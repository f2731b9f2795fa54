type divergence = {
  div_index : int;
  div_recorded : Kernel.event option;
  div_replayed : Kernel.event option;
  div_rid : int;
  div_chain : int list;
}

type outcome = {
  rp_header : Journal.header;
  rp_recorded : int;
  rp_replayed : int;
  rp_halt : Kernel.halt;
  rp_cost_mismatch : bool;
  rp_divergence : divergence option;
}

(* rid -> parent, from the recorded deliveries. Replayed events are
   never consulted: past the divergence the replay's causality is
   suspect, the journal's is ground truth. *)
let chain_of_parents parents rid =
  let rec walk acc rid =
    if rid = 0 || List.mem rid acc then List.rev acc
    else
      match Hashtbl.find_opt parents rid with
      | None -> List.rev (rid :: acc)
      | Some parent -> walk (rid :: acc) parent
  in
  walk [] rid

let parents_of_events recorded =
  let parents = Hashtbl.create 256 in
  Array.iter
    (function
      | Kernel.E_msg { rid; parent; _ } -> Hashtbl.replace parents rid parent
      | _ -> ())
    recorded;
  parents

let rid_chain recorded rid = chain_of_parents (parents_of_events recorded) rid

(* The streaming core: the recorded side is a pull cursor, consumed
   exactly once and in order, so the journal never materializes. The
   parents map accrues from every record pulled; after the run the
   remaining records are drained so the map (and the record count)
   cover the whole journal — [Hashtbl.replace] order matches the
   array-based walk, keeping divergence chains byte-identical. *)
let run_stream ~exec ?cost_fingerprint header ~next =
  let parents = Hashtbl.create 256 in
  let pulled = ref 0 in
  let ended = ref false in
  let pull () =
    if !ended then None
    else
      match next () with
      | None ->
        ended := true;
        None
      | Some ev ->
        (match ev with
         | Kernel.E_msg { rid; parent; _ } ->
           Hashtbl.replace parents rid parent
         | _ -> ());
        incr pulled;
        Some ev
  in
  let i = ref 0 in
  let first_mismatch = ref None in
  let hook ev =
    (if !first_mismatch = None then
       match pull () with
       | None -> first_mismatch := Some (!i, None, Some ev)
       | Some want ->
         if ev <> want then first_mismatch := Some (!i, Some want, Some ev));
    incr i
  in
  let halt = exec header ~hook in
  (* Replay ended with journal records left over: the journal's next
     record is the divergence (its rid names the request the replay
     never reached). *)
  (if !first_mismatch = None then
     match pull () with
     | Some want -> first_mismatch := Some (!i, Some want, None)
     | None -> ());
  while pull () <> None do () done;
  let divergence =
    match !first_mismatch with
    | None -> None
    | Some (idx, rec_ev, rep_ev) ->
      let rid =
        match rec_ev, rep_ev with
        | Some e, _ -> Journal.event_rid e
        | None, Some e -> Journal.event_rid e
        | None, None -> 0
      in
      Some
        { div_index = idx;
          div_recorded = rec_ev;
          div_replayed = rep_ev;
          div_rid = rid;
          div_chain = chain_of_parents parents rid }
  in
  { rp_header = header;
    rp_recorded = !pulled;
    rp_replayed = !i;
    rp_halt = halt;
    rp_cost_mismatch =
      (match cost_fingerprint with
       | Some fp -> fp <> header.Journal.jh_cost_fingerprint
       | None -> false);
    rp_divergence = divergence }

let run ~exec ?cost_fingerprint header recorded =
  let i = ref 0 in
  let next () =
    if !i < Array.length recorded then begin
      let ev = recorded.(!i) in
      incr i;
      Some ev
    end
    else None
  in
  run_stream ~exec ?cost_fingerprint header ~next

let exit_code o = match o.rp_divergence with None -> 0 | Some _ -> 2

(* Compact one-line event rendering for divergence reports. *)
let pp_event = function
  | Kernel.E_msg { time; src; dst; tag; call; rid; parent; _ } ->
    Printf.sprintf "msg t=%d %s->%s %s%s rid=%d parent=%d" time
      (Endpoint.server_name src) (Endpoint.server_name dst)
      (Message.Tag.to_string tag) (if call then "(call)" else "") rid parent
  | Kernel.E_reply { time; src; dst; rid; _ } ->
    Printf.sprintf "reply t=%d %s=>%s rid=%d" time
      (Endpoint.server_name src) (Endpoint.server_name dst) rid
  | Kernel.E_window_open { time; ep; rid } ->
    Printf.sprintf "window_open t=%d %s rid=%d" time
      (Endpoint.server_name ep) rid
  | Kernel.E_window_close { time; ep; rid; policy } ->
    Printf.sprintf "window_close t=%d %s rid=%d policy=%b" time
      (Endpoint.server_name ep) rid policy
  | Kernel.E_checkpoint { time; ep; rid; cycles } ->
    Printf.sprintf "checkpoint t=%d %s rid=%d cycles=%d" time
      (Endpoint.server_name ep) rid cycles
  | Kernel.E_store_logged { time; ep; rid; bytes } ->
    Printf.sprintf "store_logged t=%d %s rid=%d bytes=%d" time
      (Endpoint.server_name ep) rid bytes
  | Kernel.E_kcall { time; ep; rid; kc } ->
    Printf.sprintf "kcall t=%d %s %s rid=%d" time (Endpoint.server_name ep)
      kc rid
  | Kernel.E_crash { time; ep; reason; window_open; rid; policy } ->
    Printf.sprintf "crash t=%d %s (%s) window=%b policy=%s rid=%d" time
      (Endpoint.server_name ep) reason window_open policy rid
  | Kernel.E_hang_detected { time; ep } ->
    Printf.sprintf "hang_detected t=%d %s" time (Endpoint.server_name ep)
  | Kernel.E_rollback_begin { time; ep; rid } ->
    Printf.sprintf "rollback_begin t=%d %s rid=%d" time
      (Endpoint.server_name ep) rid
  | Kernel.E_rollback_end { time; ep; rid; bytes } ->
    Printf.sprintf "rollback_end t=%d %s rid=%d bytes=%d" time
      (Endpoint.server_name ep) rid bytes
  | Kernel.E_restart { time; ep; rid; policy } ->
    Printf.sprintf "restart t=%d %s policy=%s rid=%d" time
      (Endpoint.server_name ep) policy rid
  | Kernel.E_halt { time; halt } ->
    Printf.sprintf "halt t=%d %s" time (Kernel.halt_to_string halt)
  | Kernel.E_spawn { time; ep; parent } ->
    Printf.sprintf "spawn t=%d %s parent=%s" time
      (Endpoint.server_name ep) (Endpoint.server_name parent)

(* Endpoint columns are 8 wide: long server names ("user100" is 7
   chars, bdev/mfs are shorter) keep the arrows aligned. *)
let pp_aligned = function
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

let aligned ?only evs =
  let evs =
    match only with None -> evs | Some ep -> List.filter (touches ep) evs
  in
  List.map pp_aligned evs

let render o =
  let b = Buffer.create 512 in
  Printf.bprintf b "replay: %s\n" (Journal.header_to_string o.rp_header);
  Printf.bprintf b "recorded %d records, replayed %d events, halted: %s\n"
    o.rp_recorded o.rp_replayed (Kernel.halt_to_string o.rp_halt);
  if o.rp_cost_mismatch then
    Buffer.add_string b
      "WARNING: replay cost table differs from the recorded run's \
       (fingerprint mismatch) — divergence is expected\n";
  (match o.rp_divergence with
   | None -> Buffer.add_string b "verdict: IDENTICAL (zero divergences)\n"
   | Some d ->
     Printf.bprintf b "verdict: DIVERGED at record %d\n" d.div_index;
     Printf.bprintf b "  recorded: %s\n"
       (match d.div_recorded with
        | Some e -> pp_event e
        | None -> "<end of journal>");
     Printf.bprintf b "  replayed: %s\n"
       (match d.div_replayed with
        | Some e -> pp_event e
        | None -> "<replay ended>");
     Printf.bprintf b "  causal rid chain: %s\n"
       (if d.div_chain = [] then "(root context)"
        else
          String.concat " < " (List.map string_of_int d.div_chain)));
  Buffer.contents b

let json_event = function
  | None -> "null"
  | Some e -> Chrome_trace.escaped (pp_event e)

let to_json o =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n  \"journal\": %s,\n"
    (Chrome_trace.escaped (Journal.header_to_string o.rp_header));
  Printf.bprintf b "  \"seed\": %d,\n" o.rp_header.Journal.jh_seed;
  Printf.bprintf b "  \"spec\": %s,\n"
    (Chrome_trace.escaped o.rp_header.Journal.jh_spec);
  Printf.bprintf b "  \"workload\": %s,\n"
    (Chrome_trace.escaped o.rp_header.Journal.jh_workload);
  Printf.bprintf b "  \"recorded\": %d,\n  \"replayed\": %d,\n" o.rp_recorded
    o.rp_replayed;
  Printf.bprintf b "  \"halt\": %s,\n"
    (Chrome_trace.escaped (Kernel.halt_to_string o.rp_halt));
  Printf.bprintf b "  \"cost_mismatch\": %b,\n" o.rp_cost_mismatch;
  (match o.rp_divergence with
   | None -> Buffer.add_string b "  \"divergence\": null\n"
   | Some d ->
     Printf.bprintf b
       "  \"divergence\": {\n    \"index\": %d,\n    \"rid\": %d,\n\
       \    \"chain\": [%s],\n    \"recorded\": %s,\n    \"replayed\": %s\n  }\n"
       d.div_index d.div_rid
       (String.concat ", " (List.map string_of_int d.div_chain))
       (json_event d.div_recorded) (json_event d.div_replayed));
  Buffer.add_string b "}\n";
  Buffer.contents b
