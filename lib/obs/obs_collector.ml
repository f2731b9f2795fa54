(* Pre-bound handles: the record path must not touch the registry's
   hash table. *)
type meters = {
  m_msgs : Metrics.counter;
  m_calls : Metrics.counter;
  m_replies : Metrics.counter;
  m_window_opens : Metrics.counter;
  m_window_closes : Metrics.counter;
  m_policy_closes : Metrics.counter;
  m_checkpoints : Metrics.counter;
  m_checkpoint_cycles : Metrics.counter;
  m_stores_logged : Metrics.counter;
  m_store_bytes : Metrics.counter;
  m_kcalls : Metrics.counter;
  m_crashes : Metrics.counter;
  m_hangs : Metrics.counter;
  m_rollbacks : Metrics.counter;
  m_rollback_bytes : Metrics.counter;
  m_restarts : Metrics.counter;
}

type t = {
  mutable evs : Kernel.event array;
  mutable n : int;
  registry : Metrics.t option;
  meters : meters option;
}

let dummy_event = Kernel.E_halt { time = 0; halt = Kernel.H_hang }

let make_meters m =
  { m_msgs = Metrics.counter m "osiris.msgs_delivered";
    m_calls = Metrics.counter m "osiris.calls";
    m_replies = Metrics.counter m "osiris.replies";
    m_window_opens = Metrics.counter m "osiris.window_opens";
    m_window_closes = Metrics.counter m "osiris.window_closes";
    m_policy_closes = Metrics.counter m "osiris.policy_closes";
    m_checkpoints = Metrics.counter m "osiris.checkpoints";
    m_checkpoint_cycles = Metrics.counter m "osiris.checkpoint_cycles";
    m_stores_logged = Metrics.counter m "osiris.stores_logged";
    m_store_bytes = Metrics.counter m "osiris.store_bytes_logged";
    m_kcalls = Metrics.counter m "osiris.kcalls";
    m_crashes = Metrics.counter m "osiris.crashes";
    m_hangs = Metrics.counter m "osiris.hangs_detected";
    m_rollbacks = Metrics.counter m "osiris.rollbacks";
    m_rollback_bytes = Metrics.counter m "osiris.rollback_bytes";
    m_restarts = Metrics.counter m "osiris.restarts" }

(* The telemetry engine's summary gauges ([Timeseries.publish]) are
   pre-registered at collector creation so [Metrics.dump] lists the
   same deterministically sorted name set whether or not a sampler
   ran — runs without telemetry report the series as 0. *)
let preregister_timeline m =
  List.iter
    (fun name -> ignore (Metrics.gauge m ("osiris.timeline." ^ name)))
    [ "interval"; "sources"; "samples"; "retained"; "dropped" ]

(* Same treatment for the trace-query scan gauges (Query.publish):
   dumps enumerate them at 0 even when no query ran this session. *)
let preregister_query m =
  List.iter
    (fun name -> ignore (Metrics.gauge m ("osiris.query." ^ name)))
    [ "blocks_scanned"; "blocks_skipped"; "records_decoded" ]

let create ?metrics () =
  (match metrics with
   | None -> ()
   | Some m ->
     preregister_timeline m;
     preregister_query m);
  { evs = Array.make 1024 dummy_event;
    n = 0;
    registry = metrics;
    meters = Option.map make_meters metrics }

let update m = function
  | Kernel.E_msg { call; _ } ->
    Metrics.incr m.m_msgs;
    if call then Metrics.incr m.m_calls
  | Kernel.E_reply _ -> Metrics.incr m.m_replies
  | Kernel.E_window_open _ -> Metrics.incr m.m_window_opens
  | Kernel.E_window_close { policy; _ } ->
    Metrics.incr m.m_window_closes;
    if policy then Metrics.incr m.m_policy_closes
  | Kernel.E_checkpoint { cycles; _ } ->
    Metrics.incr m.m_checkpoints;
    Metrics.add m.m_checkpoint_cycles cycles
  | Kernel.E_store_logged { bytes; _ } ->
    Metrics.incr m.m_stores_logged;
    Metrics.add m.m_store_bytes bytes
  | Kernel.E_kcall _ -> Metrics.incr m.m_kcalls
  | Kernel.E_crash _ -> Metrics.incr m.m_crashes
  | Kernel.E_hang_detected _ -> Metrics.incr m.m_hangs
  | Kernel.E_rollback_begin _ -> Metrics.incr m.m_rollbacks
  | Kernel.E_rollback_end { bytes; _ } -> Metrics.add m.m_rollback_bytes bytes
  | Kernel.E_restart _ -> Metrics.incr m.m_restarts
  | Kernel.E_halt _ | Kernel.E_spawn _ -> ()

let record t ev =
  if t.n = Array.length t.evs then begin
    let bigger = Array.make (2 * t.n) dummy_event in
    Array.blit t.evs 0 bigger 0 t.n;
    t.evs <- bigger
  end;
  t.evs.(t.n) <- ev;
  t.n <- t.n + 1;
  match t.meters with None -> () | Some m -> update m ev

let attach t kernel =
  Kernel.set_capture kernel (Some (Capture.of_hook (record t)))

let events t = Array.to_list (Array.sub t.evs 0 t.n)

let count t = t.n

let clear t = t.n <- 0

let metrics t = t.registry

let snapshot_server_stats m kernel =
  (* Kernel-wide load-shedding tally. Shed exits (status 75) are not in
     the event stream — the exit status rides the PM call payload — so
     the meter path can't count them; snapshot from the kernel's own
     counter instead. *)
  Metrics.set (Metrics.gauge m "osiris.shed_exits") (Kernel.shed_exits kernel);
  List.iter
    (fun ep ->
       let ss = Kernel.server_stats kernel ep in
       let g field v = Metrics.set (Metrics.gauge m (ss.Kernel.ss_name ^ "." ^ field)) v in
       g "ops_total" ss.Kernel.ss_ops_total;
       g "ops_in_window" ss.Kernel.ss_ops_in_window;
       g "busy_cycles" ss.Kernel.ss_busy_cycles;
       g "logged_stores" ss.Kernel.ss_logged_stores;
       g "skipped_stores" ss.Kernel.ss_skipped_stores;
       g "deduped_stores" ss.Kernel.ss_deduped_stores;
       g "undo_peak_bytes" ss.Kernel.ss_undo_peak_bytes;
       g "rollback_bytes" ss.Kernel.ss_rollback_bytes;
       g "restore_bytes_saved" ss.Kernel.ss_restore_bytes_saved;
       g "window_opens" ss.Kernel.ss_window_opens;
       g "policy_closes" ss.Kernel.ss_policy_closes;
       g "restarts" ss.Kernel.ss_restarts)
    (Kernel.server_endpoints kernel)
