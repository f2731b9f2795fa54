module Tablefmt = Osiris_util.Tablefmt
module Stats = Osiris_util.Stats

let handler_table spans =
  (* Bucket completed request-span latencies per (server, handler). *)
  let tbl : (int * string, Histogram.t) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (s : Span.t) ->
       if s.Span.sp_kind = Span.Request && s.Span.sp_complete then begin
         let key = (s.Span.sp_ep, s.Span.sp_name) in
         let h =
           match Hashtbl.find_opt tbl key with
           | Some h -> h
           | None ->
             let h = Histogram.create () in
             Hashtbl.replace tbl key h;
             order := key :: !order;
             h
         in
         Histogram.observe h (s.Span.sp_end - s.Span.sp_start)
       end)
    (Span.flatten spans);
  let keys = List.sort compare (List.rev !order) in
  if keys = [] then ""
  else
    let rows =
      List.map
        (fun ((ep, name) as key) ->
           let h = Hashtbl.find tbl key in
           [ Endpoint.server_name ep;
             name;
             string_of_int (Histogram.count h);
             Tablefmt.fixed 0 (Histogram.p50 h);
             Tablefmt.fixed 0 (Histogram.p95 h);
             Tablefmt.fixed 0 (Histogram.p99 h);
             string_of_int (Histogram.max_value h) ])
        keys
    in
    Tablefmt.render ~title:"per-handler latency (virtual cycles)"
      ~header:[ "server"; "handler"; "count"; "p50"; "p95"; "p99"; "max" ]
      ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
               Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      rows

let recovery_table kernel =
  (* Kernel.recovery_latencies is newest-first; summarize sorts, so the
     ordering is irrelevant here — it only matters to consumers that
     index the list directly. *)
  let lats = List.map float_of_int (Kernel.recovery_latencies kernel) in
  if lats = [] then ""
  else
    let s = Stats.summarize lats in
    Tablefmt.render ~title:"recovery latency (crash -> restart, virtual cycles)"
      ~header:[ "count"; "p50"; "p95"; "p99"; "max" ]
      ~align:[ Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
               Tablefmt.Right ]
      [ [ string_of_int s.Stats.n;
          Tablefmt.fixed 0 s.Stats.p50;
          Tablefmt.fixed 0 s.Stats.p95;
          Tablefmt.fixed 0 s.Stats.p99;
          Tablefmt.fixed 0 s.Stats.max ] ]

let metrics_table m =
  let rows =
    List.map
      (fun (name, v) ->
         match v with
         | Metrics.V_counter c -> [ name; "counter"; string_of_int c ]
         | Metrics.V_gauge g -> [ name; "gauge"; string_of_int g ]
         | Metrics.V_hist h ->
           [ name; "histogram";
             Printf.sprintf "n=%d p50=%.0f p95=%.0f p99=%.0f max=%d"
               (Histogram.count h) (Histogram.p50 h) (Histogram.p95 h)
               (Histogram.p99 h) (Histogram.max_value h) ])
      (Metrics.dump m)
  in
  if rows = [] then ""
  else
    Tablefmt.render ~title:"metrics" ~header:[ "series"; "kind"; "value" ]
      ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right ]
      rows

(* Kernel-wide and per-server lifetime counters, republished as gauges
   named ["<server>.<field>"] next to the event-derived series. Shed
   exits (status 75) are not in the event stream — the exit status
   rides the PM call payload — so they come from the kernel's own
   counter. *)
let snapshot_server_stats m kernel =
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

let metrics ~kernel events =
  let m = Metrics.create () in
  (* The telemetry summary gauges ([Timeseries.publish]) and the query
     scan gauges ([Query.publish]) are registered at 0, so the dump
     lists the same name set whether or not a sampler or query ran. *)
  List.iter
    (fun name -> ignore (Metrics.gauge m name))
    [ "osiris.timeline.interval"; "osiris.timeline.sources";
      "osiris.timeline.samples"; "osiris.timeline.retained";
      "osiris.timeline.dropped"; "osiris.query.blocks_scanned";
      "osiris.query.blocks_skipped"; "osiris.query.records_decoded" ];
  let c name = Metrics.counter m ("osiris." ^ name) in
  let msgs = c "msgs_delivered" and calls = c "calls"
  and replies = c "replies" and window_opens = c "window_opens"
  and window_closes = c "window_closes" and policy_closes = c "policy_closes"
  and checkpoints = c "checkpoints" and checkpoint_cycles = c "checkpoint_cycles"
  and stores_logged = c "stores_logged" and store_bytes = c "store_bytes_logged"
  and kcalls = c "kcalls" and crashes = c "crashes"
  and hangs = c "hangs_detected" and rollbacks = c "rollbacks"
  and rollback_bytes = c "rollback_bytes" and restarts = c "restarts" in
  List.iter
    (function
      | Kernel.E_msg { call; _ } ->
        Metrics.incr msgs;
        if call then Metrics.incr calls
      | Kernel.E_reply _ -> Metrics.incr replies
      | Kernel.E_window_open _ -> Metrics.incr window_opens
      | Kernel.E_window_close { policy; _ } ->
        Metrics.incr window_closes;
        if policy then Metrics.incr policy_closes
      | Kernel.E_checkpoint { cycles; _ } ->
        Metrics.incr checkpoints;
        Metrics.add checkpoint_cycles cycles
      | Kernel.E_store_logged { bytes; _ } ->
        Metrics.incr stores_logged;
        Metrics.add store_bytes bytes
      | Kernel.E_kcall _ -> Metrics.incr kcalls
      | Kernel.E_crash _ -> Metrics.incr crashes
      | Kernel.E_hang_detected _ -> Metrics.incr hangs
      | Kernel.E_rollback_begin _ -> Metrics.incr rollbacks
      | Kernel.E_rollback_end { bytes; _ } -> Metrics.add rollback_bytes bytes
      | Kernel.E_restart _ -> Metrics.incr restarts
      | Kernel.E_halt _ | Kernel.E_spawn _ -> ())
    events;
  snapshot_server_stats m kernel;
  m

let render ?metrics ~kernel spans =
  let sections =
    [ handler_table spans;
      recovery_table kernel;
      (match metrics with Some m -> metrics_table m | None -> "") ]
  in
  String.concat "\n" (List.filter (fun s -> s <> "") sections)
