(* Critical-path engine tests: the conservation invariant (breakdowns
   sum back to end-to-end latency, exactly, on deterministic and
   QCheck-randomized runs), journal/live attribution parity, session
   spans anchored at arrival vtime, the unified nearest-rank
   definition, and shed-exit accounting. *)

module Stats = Osiris_util.Stats

(* A live event stream: [hook] feeds it, [events ()] reads it back
   oldest first. *)
let stream () =
  let evs = ref [] in
  ((fun ev -> evs := ev :: !evs), fun () -> List.rev !evs)

(* Run the workload a header describes with a stream hooked from boot;
   return the header and the events. *)
let collect_run ?(spec = "enhanced") ?(workload = "quickstart")
    ?(crash = "none") ?(count = 1) ~seed () =
  let header =
    match
      Runspec.make_header ~seed ~spec ~workload ~crash ~crash_count:count ()
    with
    | Ok h -> h
    | Error m -> Alcotest.fail m
  in
  let hook, events = stream () in
  ignore (Runspec.exec header ~hook);
  (header, events ())

let check_conserved what (r : Critpath.result) =
  List.iter
    (fun b ->
       let total = Critpath.total b in
       let sum = Critpath.breakdown_sum b in
       if sum <> total then
         Alcotest.failf "%s: %s rid=%d: buckets sum to %d, latency is %d"
           what
           (Endpoint.server_name b.Critpath.cp_ep)
           b.Critpath.cp_rid sum total;
       if total < 0 then Alcotest.failf "%s: negative latency" what;
       List.iter
         (fun (_, c) ->
            if c < 0 then Alcotest.failf "%s: negative service" what)
         b.Critpath.cp_service)
    r.Critpath.cr_requests

(* ---------------- conservation ------------------------------------ *)

let test_conservation_quickstart () =
  let _, events = collect_run ~seed:42 ~crash:"ds" () in
  let r = Critpath.analyze events in
  Alcotest.(check bool) "has requests" true (r.Critpath.cr_requests <> []);
  Alcotest.(check int) "all complete" 0 r.Critpath.cr_incomplete;
  check_conserved "quickstart+ds" r

let test_conservation_crash_storm () =
  (* A mid-storm crash under injected load: recovery episodes overlap
     live request waits, exercising the collateral/rollback/restart
     cuts. *)
  let hook, events = stream () in
  let sys =
    System.build ~seed:7 ~event_hook:hook (Sysconf.uniform Policy.enhanced)
  in
  let k = System.kernel sys in
  let reqs =
    Loadgen.inject k
      { Loadgen.default_spec with l_seed = 7; l_requests = 30; l_rate = 30_000 }
  in
  Runspec.arm k [ Runspec.Crash_replies (Endpoint.vfs, 1) ];
  ignore (Kernel.run k);
  ignore (Loadgen.collect k reqs);
  let r = Critpath.analyze (events ()) in
  Alcotest.(check bool) "storm requests analyzed" true
    (List.length r.Critpath.cr_requests >= 30);
  check_conserved "crash storm" r

let prop_conservation =
  (* Randomized seeds, specs, crash plans and workloads: conservation
     is exact on every run the generator can produce. *)
  let specs =
    [ "enhanced"; "baseline"; "stateless"; "enhanced,ds=stateless";
      "enhanced,vfs=pessimistic" ]
  in
  let gen =
    QCheck.Gen.(
      quad (int_bound 999) (oneofl specs)
        (oneofl [ "none"; "pm"; "vfs"; "vm"; "ds"; "rs" ])
        (oneofl [ "quickstart"; "workgen" ]))
  in
  let arb =
    QCheck.make gen ~print:(fun (seed, spec, crash, wl) ->
        Printf.sprintf "seed=%d spec=%s crash=%s workload=%s" seed spec crash
          wl)
  in
  QCheck.Test.make ~name:"conservation over random runs" ~count:15 arb
    (fun (seed, spec, crash, workload) ->
       match Runspec.make_header ~seed ~spec ~workload ~crash () with
       | Error _ -> QCheck.assume_fail ()
       | Ok header ->
         let hook, events = stream () in
         ignore (Runspec.exec header ~hook);
         let r = Critpath.analyze (events ()) in
         List.for_all
           (fun b -> Critpath.breakdown_sum b = Critpath.total b)
           r.Critpath.cr_requests)

(* ---------------- journal parity ---------------------------------- *)

let test_journal_parity () =
  let header, events = collect_run ~seed:42 ~crash:"ds" () in
  let live = Critpath.analyze events in
  match Flight.capture header with
  | Error m -> Alcotest.fail m
  | Ok c ->
    let replayed = Critpath.analyze (Array.to_list c.Flight.cap_events) in
    Alcotest.(check bool)
      "journal attribution structurally identical to live" true
      (live = replayed)

(* ---------------- session spans (arrival anchoring) --------------- *)

let test_session_spans () =
  let hook, events = stream () in
  let sys =
    System.build ~seed:11 ~event_hook:hook (Sysconf.uniform Policy.enhanced)
  in
  let k = System.kernel sys in
  let spec = { Loadgen.default_spec with l_seed = 11; l_requests = 20 } in
  ignore (Loadgen.inject k spec);
  Runspec.arm k [ Runspec.Crash_replies (Endpoint.vfs, 1) ];
  ignore (Kernel.run k);
  let events = events () in
  let spans = Span.build events in
  let sessions =
    List.filter (fun s -> s.Span.sp_kind = Span.Session) spans
  in
  (* Every spawned process opens a Session root carrying its arrival
     vtime — the E_spawn instant, which for injected load precedes
     first dispatch. *)
  List.iter
    (function
      | Kernel.E_spawn { time; ep; _ } ->
        (match
           List.find_opt
             (fun s -> s.Span.sp_ep = ep && s.Span.sp_start = time)
             sessions
         with
         | Some s ->
           List.iter
             (fun (child : Span.t) ->
                if child.Span.sp_start < s.Span.sp_start then
                  Alcotest.fail "request starts before its arrival")
             s.Span.sp_children
         | None ->
           Alcotest.failf "no session span for %s at arrival %d"
             (Endpoint.server_name ep) time)
      | _ -> ())
    events;
  (* Storm requests nest under their sessions instead of floating as
     roots, and [top_requests] still surfaces them for the latency
     consumers. *)
  let nested =
    List.exists
      (fun s ->
         List.exists
           (fun (c : Span.t) -> c.Span.sp_kind = Span.Request)
           s.Span.sp_children)
      sessions
  in
  Alcotest.(check bool) "requests nested under sessions" true nested;
  Alcotest.(check bool) "top_requests finds them" true
    (List.exists
       (fun (s : Span.t) -> s.Span.sp_kind = Span.Request)
       (Span.top_requests spans))

(* ---------------- unified nearest rank ---------------------------- *)

let test_rank_definition () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 a.(Stats.rank ~num:1 ~den:2 100 - 1);
  Alcotest.(check int) "p95" 95 a.(Stats.rank ~num:95 ~den:100 100 - 1);
  Alcotest.(check int) "p99" 99 a.(Stats.rank ~num:99 ~den:100 100 - 1);
  Alcotest.(check int) "p99.9" 100 a.(Stats.rank ~num:999 ~den:1000 100 - 1);
  Alcotest.(check int) "clamp low" 1 (Stats.rank ~num:1 ~den:1_000_000 5);
  Alcotest.(check int) "clamp high" 5 (Stats.rank ~num:1 ~den:1 5)

let prop_percentile_surfaces_agree =
  (* The three quantile surfaces (Stats floats, Loadgen ints, and the
     timeline's sliding windows via Stats.rank) must quote the same
     element for the same sample. *)
  let arb =
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (int_bound 10_000))
        (oneofl [ (1, 2); (95, 100); (99, 100); (999, 1000) ]))
  in
  QCheck.Test.make ~name:"percentile surfaces agree" ~count:200 arb
    (fun (xs, (num, den)) ->
       QCheck.assume (xs <> []);
       let ints = Array.of_list (List.sort compare xs) in
       let floats = Array.map float_of_int ints in
       let n = Array.length ints in
       let via_loadgen = Loadgen.percentile ints ~num ~den in
       let via_rank = ints.(Stats.rank ~num ~den n - 1) in
       let via_stats =
         int_of_float
           (Stats.percentile_sorted floats (100. *. float num /. float den))
       in
       via_loadgen = via_rank && via_stats = via_rank)

(* ---------------- shed accounting --------------------------------- *)

let test_shed_accounting () =
  let sys = System.build ~seed:3 (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  let spec =
    { Loadgen.default_spec with l_seed = 3; l_requests = 40; l_rate = 60_000 }
  in
  let reqs = Loadgen.inject k spec in
  Runspec.arm k [ Runspec.Crash_replies (Endpoint.pm, 1) ];
  ignore (Kernel.run k);
  let o = Loadgen.collect k reqs in
  Alcotest.(check int) "kernel shed counter matches collected outcomes"
    o.Loadgen.o_shed (Kernel.shed_exits k);
  let ts = Timeseries.create () in
  Timeseries.add_kernel_sources ts k;
  Alcotest.(check bool) "kernel.shed series registered" true
    (List.mem "kernel.shed" (Timeseries.source_names ts))

let () =
  Alcotest.run "critpath"
    [ ( "conservation",
        [ Alcotest.test_case "quickstart + ds crash" `Quick
            test_conservation_quickstart;
          Alcotest.test_case "crash storm" `Quick
            test_conservation_crash_storm;
          QCheck_alcotest.to_alcotest prop_conservation ] );
      ( "parity",
        [ Alcotest.test_case "journal = live" `Quick test_journal_parity ] );
      ( "spans",
        [ Alcotest.test_case "session arrival anchoring" `Quick
            test_session_spans ] );
      ( "percentiles",
        [ Alcotest.test_case "rank definition" `Quick test_rank_definition;
          QCheck_alcotest.to_alcotest prop_percentile_surfaces_agree ] );
      ( "kernel",
        [ Alcotest.test_case "shed accounting" `Quick test_shed_accounting ]
      ) ]
