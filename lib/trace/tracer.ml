type t = {
  capacity : int;
  ring : Kernel.event option array;
  mutable next : int;
  mutable total : int;
  mutable snapshot_on : (Kernel.event -> bool) option;
  mutable snapshot : Kernel.event list;  (* oldest first; [] = never taken *)
  mutable snapshots : int;
}

let create ?(capacity = 512) () =
  { capacity = max 1 capacity;
    ring = Array.make (max 1 capacity) None;
    next = 0;
    total = 0;
    snapshot_on = None;
    snapshot = [];
    snapshots = 0 }

let events t =
  (* Only [min total capacity] slots hold events; before the ring wraps
     the rest are None and need not be scanned. The occupied window
     ends just before [next], so walking it newest-index-first and
     consing yields oldest-first order. *)
  let n = min t.total t.capacity in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match t.ring.((t.next - n + i + t.capacity) mod t.capacity) with
    | Some ev -> out := ev :: !out
    | None -> ()
  done;
  !out

let record t ev =
  t.ring.(t.next) <- Some ev;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1;
  (* Snapshot-on-event: freeze the last-N window the moment the
     predicate fires (the trigger is the snapshot's newest event), not
     at end-of-run when the interesting history may already have been
     evicted. With no predicate installed the record path pays one
     branch and allocates nothing. *)
  match t.snapshot_on with
  | Some p when p ev ->
    t.snapshot <- events t;
    t.snapshots <- t.snapshots + 1
  | _ -> ()

let attach t kernel =
  Kernel.set_capture kernel (Some (Capture.of_hook (record t)))

let set_snapshot_on t p = t.snapshot_on <- p

let last_snapshot t = t.snapshot

let snapshots_taken t = t.snapshots

let recorded t = t.total

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.total <- 0;
  t.snapshot <- [];
  t.snapshots <- 0

(* Endpoint columns are 8 wide: long server names ("user100" is 7
   chars, bdev/mfs are shorter) keep the arrows aligned. *)
let pp_event = function
  | Kernel.E_msg { time; src; dst; tag; call; rid; parent; cls = _ } ->
    Printf.sprintf "%10d  %-8s -> %-8s %s%s [rid %d%s]" time
      (Endpoint.server_name src) (Endpoint.server_name dst)
      (Message.Tag.to_string tag)
      (if call then " (call)" else "")
      rid
      (if parent = 0 then "" else Printf.sprintf " < %d" parent)
  | Kernel.E_reply { time; src; dst; tag = _; rid } ->
    Printf.sprintf "%10d  %-8s => %-8s reply [rid %d]" time
      (Endpoint.server_name src) (Endpoint.server_name dst) rid
  | Kernel.E_window_open { time; ep; rid } ->
    Printf.sprintf "%10d  %-8s window open [rid %d]" time
      (Endpoint.server_name ep) rid
  | Kernel.E_window_close { time; ep; rid; policy } ->
    Printf.sprintf "%10d  %-8s window close%s [rid %d]" time
      (Endpoint.server_name ep)
      (if policy then " (policy)" else "")
      rid
  | Kernel.E_checkpoint { time; ep; rid; cycles } ->
    Printf.sprintf "%10d  %-8s checkpoint (%d cycles) [rid %d]" time
      (Endpoint.server_name ep) cycles rid
  | Kernel.E_store_logged { time; ep; rid; bytes } ->
    Printf.sprintf "%10d  %-8s store logged (%dB) [rid %d]" time
      (Endpoint.server_name ep) bytes rid
  | Kernel.E_kcall { time; ep; rid; kc } ->
    Printf.sprintf "%10d  %-8s kcall %s [rid %d]" time
      (Endpoint.server_name ep) kc rid
  | Kernel.E_crash { time; ep; reason; window_open; rid; policy } ->
    Printf.sprintf "%10d  CRASH %s (%s) window=%s policy=%s [rid %d]" time
      (Endpoint.server_name ep) reason
      (if window_open then "open" else "closed")
      policy rid
  | Kernel.E_hang_detected { time; ep } ->
    Printf.sprintf "%10d  HANG %s" time (Endpoint.server_name ep)
  | Kernel.E_rollback_begin { time; ep; rid } ->
    Printf.sprintf "%10d  %-8s rollback begin [rid %d]" time
      (Endpoint.server_name ep) rid
  | Kernel.E_rollback_end { time; ep; rid; bytes } ->
    Printf.sprintf "%10d  %-8s rollback end (%dB) [rid %d]" time
      (Endpoint.server_name ep) bytes rid
  | Kernel.E_restart { time; ep; rid; policy } ->
    Printf.sprintf "%10d  RESTART %s policy=%s [rid %d]" time
      (Endpoint.server_name ep) policy rid
  | Kernel.E_halt { time; halt } ->
    Printf.sprintf "%10d  HALT %s" time (Kernel.halt_to_string halt)
  | Kernel.E_spawn { time; ep; parent } ->
    Printf.sprintf "%10d  SPAWN %s parent=%s" time
      (Endpoint.server_name ep) (Endpoint.server_name parent)

let touches ep = function
  | Kernel.E_msg { src; dst; _ } | Kernel.E_reply { src; dst; _ } ->
    src = ep || dst = ep
  | Kernel.E_crash { ep = e; _ }
  | Kernel.E_restart { ep = e; _ }
  | Kernel.E_window_open { ep = e; _ }
  | Kernel.E_window_close { ep = e; _ }
  | Kernel.E_checkpoint { ep = e; _ }
  | Kernel.E_store_logged { ep = e; _ }
  | Kernel.E_kcall { ep = e; _ }
  | Kernel.E_hang_detected { ep = e; _ }
  | Kernel.E_rollback_begin { ep = e; _ }
  | Kernel.E_rollback_end { ep = e; _ }
  | Kernel.E_spawn { ep = e; _ } -> e = ep
  | Kernel.E_halt _ -> true

let timeline ?only t =
  let evs = events t in
  let evs =
    match only with None -> evs | Some ep -> List.filter (touches ep) evs
  in
  List.map pp_event evs
