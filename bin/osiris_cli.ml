(* osiris — command-line front end to the simulated OS.

   Subcommands:
     suite     run the prototype test suite under a recovery policy
     bench     run one Unixbench workload and print its score
     coverage  print per-server recovery coverage (Table I style)
     memory    print per-server memory overhead (Table VI style)
     disrupt   service-disruption sweep on one benchmark (Figure 3)
     sites     profile and list fault sites
     stress    run randomly generated workloads (deterministic per seed)
     fsck      filesystem invariant check (block conservation)
     events    run a generated workload, print the tail of its IPC
               event log (was `timeline` before the vtime telemetry
               engine took that name)
     timeline  run quickstart with the vtime telemetry engine attached,
               render the sampled series as an ANSI dashboard
     load      open-loop saturation sweep: step offered load, crash a
               server mid-storm, report goodput + tail latency
               (--attribute adds per-step p99-vs-p50 blame columns)
     why       causal critical-path attribution: conserved latency
               breakdowns per request, p99-vs-p50 blame ranking
     trace     run the quickstart workload, export a Perfetto trace
     report    per-handler latency / recovery / metrics report
     profile   cycle-accounting profile (per-compartment phase matrix,
               JSON + folded flamegraph artifacts)
     health    recovery-health watchdog report (MTTR, crash loops,
               overhead vs baseline)
     survivability
               fault-injection survivability matrix over system specs
               (default rows: Tables II/III)
     policies  list the named recovery policies and the spec grammar
     record    run a workload with the flight recorder attached
     replay    re-execute a journal, diff streams, report divergence
     postmortem
               causal root-cause walkback over a recorded journal
*)

open Cmdliner

let policy_conv =
  let parse s =
    match Policy.by_name s with
    | Some p -> Ok p
    | None ->
      Error (`Msg (Printf.sprintf
                     "unknown policy %S (try: baseline, stateless, naive, \
                      pessimistic, enhanced, enhanced-unopt)" s))
  in
  let print fmt (p : Policy.t) = Format.pp_print_string fmt p.Policy.name in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(value & opt policy_conv Policy.enhanced
       & info [ "p"; "policy" ] ~docv:"POLICY" ~doc:"Recovery policy.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the campaign fan-out (0 = auto: \
               $(b,OSIRIS_JOBS) or cores - 1; 1 = sequential). Results \
               are byte-identical whatever the worker count.")

(* Coarse progress on stderr for long sweeps (~10 updates), leaving
   stdout byte-stable across worker counts. *)
let sweep_progress ~completed ~total =
  if total >= 200 then begin
    let step = max 1 (total / 10) in
    if completed mod step = 0 || completed = total then
      Printf.eprintf "  %d/%d runs\n%!" completed total
  end

let arch_arg =
  let arch_c =
    Arg.enum [ ("microkernel", Kernel.Microkernel); ("monolithic", Kernel.Monolithic) ]
  in
  Arg.(value & opt arch_c Kernel.Microkernel
       & info [ "arch" ] ~docv:"ARCH" ~doc:"System architecture (cost model).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the system log.")

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ] ~doc:"Log every IPC event (very verbose).")

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ())

(* Every single-run command describes its run as a [Runspec.t] and
   hands it to [Runspec.run] with its observers attached. *)
let described ~seed ~workload ~faults conf =
  { Runspec.rs_seed = seed;
    rs_arch = Kernel.Microkernel;
    rs_conf = conf;
    rs_workload = workload;
    rs_faults = faults }

let crash_faults ~count = function
  | None -> []
  | Some ep -> [ Runspec.Crash_replies (ep, count) ]

(* The event views (events, trace, report, timeline, why, health) read
   a recorded run: [Flight.capture] runs the description with an
   in-memory journal and hands back the decoded events. Every run this
   CLI describes has a header form. *)
let capture ?profiler ?telemetry spec =
  match
    Result.bind (Runspec.to_header spec)
      (Flight.capture ?profiler ?telemetry)
  with
  | Ok c -> c
  | Error m -> failwith ("capture: " ^ m)

let suite_cmd =
  let run policy seed verbose trace =
    setup_logs ();
    if trace then Logs.set_level (Some Logs.Debug);
    let sys, halt =
      Runspec.run
        (described ~seed ~workload:"suite" ~faults:[] (Sysconf.uniform policy))
    in
    let lines = System.log_lines sys in
    if verbose then List.iter print_endline lines;
    let r = Testsuite.parse_results lines in
    Printf.printf "halt: %s\n" (Kernel.halt_to_string halt);
    Printf.printf "tests: %d passed, %d failed, complete=%b\n" r.Testsuite.passed
      r.Testsuite.failed r.Testsuite.complete;
    List.iter
      (fun (name, status) -> Printf.printf "  FAIL %s (status %d)\n" name status)
      r.Testsuite.failures;
    if r.Testsuite.complete && r.Testsuite.failed = 0 then 0 else 1
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run the prototype test suite.")
    Term.(const run $ policy_arg $ seed_arg $ verbose_arg $ trace_arg)

let bench_cmd =
  let bench_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"BENCH" ~doc:"Benchmark name or 'all'.")
  in
  let run policy seed arch name =
    setup_logs ();
    let run_one b =
      let r = Experiment.run_bench ~arch ~seed policy b in
      Printf.printf "%-18s %10.1f iters/s  (%d iters, %d cycles, %s)\n"
        r.Experiment.br_name r.Experiment.br_score r.Experiment.br_iters
        r.Experiment.br_cycles
        (Kernel.halt_to_string r.Experiment.br_halt)
    in
    (match name with
     | "all" -> List.iter run_one Unixbench.all
     | n ->
       (match Unixbench.find n with
        | Some b -> run_one b
        | None ->
          Printf.eprintf "unknown benchmark %S\n" n;
          Stdlib.exit 2));
    0
  in
  Cmd.v (Cmd.info "bench" ~doc:"Run Unixbench workloads.")
    Term.(const run $ policy_arg $ seed_arg $ arch_arg $ bench_arg)

let coverage_cmd =
  let run seed =
    setup_logs ();
    let print_policy policy =
      let rows, halt = Experiment.coverage_run ~seed policy in
      Printf.printf "policy %-12s (halt: %s)\n" policy.Policy.name
        (Kernel.halt_to_string halt);
      List.iter
        (fun r ->
           Printf.printf "  %-6s %5.1f%%\n" r.Experiment.cov_server
             (100. *. r.Experiment.cov_fraction))
        rows;
      Printf.printf "  %-6s %5.1f%% (weighted mean)\n" "all"
        (100. *. Experiment.weighted_mean_coverage rows)
    in
    print_policy Policy.pessimistic;
    print_policy Policy.enhanced;
    0
  in
  Cmd.v (Cmd.info "coverage" ~doc:"Recovery coverage per server (Table I).")
    Term.(const run $ seed_arg)

let memory_cmd =
  let run seed =
    setup_logs ();
    let rows = Experiment.memory_overhead ~seed () in
    Printf.printf "%-8s %10s %10s %10s %10s\n" "server" "base(kB)" "clone(kB)"
      "undo(kB)" "total(kB)";
    List.iter
      (fun r ->
         Printf.printf "%-8s %10d %10d %10d %10d\n" r.Experiment.mem_server
           r.Experiment.mem_base_kb r.Experiment.mem_clone_kb
           r.Experiment.mem_undo_kb r.Experiment.mem_total_overhead_kb)
      rows;
    0
  in
  Cmd.v (Cmd.info "memory" ~doc:"Per-server memory overhead (Table VI).")
    Term.(const run $ seed_arg)

let disrupt_cmd =
  let bench_arg =
    Arg.(value & pos 0 string "spawn"
         & info [] ~docv:"BENCH" ~doc:"Benchmark name.")
  in
  let run name seed jobs =
    setup_logs ();
    match Unixbench.find name with
    | None ->
      Printf.eprintf "unknown benchmark %S
" name;
      2
    | Some bench ->
      List.iter
        (fun r ->
           Printf.printf "interval %10d  score %12.0f  recoveries %4d  %s
"
             r.Disruption.dis_interval r.Disruption.dis_score
             r.Disruption.dis_restarts
             (if r.Disruption.dis_completed then "ok" else "DEGRADED"))
        (Disruption.sweep ~seed ~jobs bench);
      0
  in
  Cmd.v (Cmd.info "disrupt" ~doc:"Service-disruption sweep (Figure 3).")
    Term.(const run $ bench_arg $ seed_arg $ jobs_arg)

let sites_cmd =
  let run policy seed select =
    setup_logs ();
    let sites = Campaign.profile_sites ~seed policy in
    Printf.printf "%d distinct post-boot fault sites in the core servers
"
      (List.length sites);
    let by_server = Hashtbl.create 8 in
    List.iter
      (fun s ->
         let name = Endpoint.server_name s.Kernel.site_ep in
         Hashtbl.replace by_server name
           (1 + Option.value ~default:0 (Hashtbl.find_opt by_server name)))
      sites;
    Hashtbl.iter (fun name n -> Printf.printf "  %-5s %5d sites
" name n)
      by_server;
    if select > 0 then begin
      Printf.printf "seed-%d sample of %d (rank order):\n" seed select;
      List.iter
        (fun s -> Printf.printf "  %s\n" (Kernel.site_to_string s))
        (Campaign.select_sites ~seed ~sample:select sites)
    end;
    0
  in
  let select_arg =
    let doc =
      "Also print the campaign's $(docv)-site sample for this seed, in \
       selection (rank) order."
    in
    Arg.(value & opt int 0 & info [ "select" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "sites" ~doc:"Profile and summarize fault sites.")
    Term.(const run $ policy_arg $ seed_arg $ select_arg)

let stress_cmd =
  let count_arg =
    Arg.(value & opt int 20
         & info [ "runs" ] ~docv:"N" ~doc:"Number of generated workloads.")
  in
  let run policy seed count verbose =
    setup_logs ();
    let failures = ref 0 in
    for i = 0 to count - 1 do
      let wseed = seed + i in
      let _, halt =
        Runspec.run
          (described ~seed:wseed ~workload:"workgen" ~faults:[]
             (Sysconf.uniform policy))
      in
      let ok = halt = Kernel.H_completed 0 in
      if not ok then begin
        incr failures;
        Printf.printf "seed %d: %s\n" wseed (Kernel.halt_to_string halt);
        if verbose then
          List.iter (fun a -> Printf.printf "    %s\n" a)
            (Workgen.describe ~seed:wseed ())
      end
    done;
    Printf.printf "%d/%d generated workloads clean under %s\n"
      (count - !failures) count policy.Policy.name;
    if !failures = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"Run randomly generated workloads (deterministic per seed).")
    Term.(const run $ policy_arg $ seed_arg $ count_arg $ verbose_arg)

let fsck_cmd =
  let run policy seed =
    setup_logs ();
    let sys, halt =
      Runspec.run
        (described ~seed ~workload:"suite" ~faults:[] (Sysconf.uniform policy))
    in
    Printf.printf "suite: %s\n" (Kernel.halt_to_string halt);
    (match Mfs.check_invariants (System.mfs sys) ~bdev:(System.bdev sys) with
     | Ok () ->
       print_endline "fsck: clean (block conservation holds)";
       0
     | Error m ->
       Printf.printf "fsck: CORRUPT: %s\n" m;
       1)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Run the suite, then verify filesystem block conservation.")
    Term.(const run $ policy_arg $ seed_arg)

let events_cmd =
  let last_arg =
    Arg.(value & opt int 40
         & info [ "last" ] ~docv:"N" ~doc:"Events to show (from the end).")
  in
  let run policy seed last =
    setup_logs ();
    let c =
      capture
        (described ~seed ~workload:"workgen" ~faults:[]
           (Sysconf.uniform policy))
    in
    let n = Array.length c.Flight.cap_events in
    let shown = min (max 1 last) (n - c.Flight.cap_boot) in
    List.iter print_endline
      (Replay.aligned
         (Array.to_list (Array.sub c.Flight.cap_events (n - shown) shown)));
    Printf.printf "(%d events total; halted: %s)\n" (n - c.Flight.cap_boot)
      (Kernel.halt_to_string c.Flight.cap_halt);
    0
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:"Run a generated workload and print the tail of its IPC event \
             log.")
    Term.(const run $ policy_arg $ seed_arg $ last_arg)

(* trace/report/timeline/profile/health/why/record/load inject
   deterministic, recoverable crashes: the chosen server fail-stops at
   its first in-window Replies, so a trace shows a full
   crash/rollback/restart sequence nested under the request that
   triggered it. *)
let crash_name = function None -> "none" | Some ep -> Endpoint.server_name ep

let crash_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Runspec.crash_of_name s) in
  let print fmt crash = Format.pp_print_string fmt (crash_name crash) in
  Arg.(value & opt (conv (parse, print)) (Some Endpoint.ds)
       & info [ "crash" ] ~docv:"SERVER"
         ~doc:"Inject one recoverable crash into this server (none to \
               disable).")

(* The quickstart workload, recorded from boot, and its events. *)
let quickstart ?profiler ?telemetry policy seed crash =
  let c =
    capture ?profiler ?telemetry
      (described ~seed ~workload:"quickstart"
         ~faults:(crash_faults ~count:1 crash) (Sysconf.uniform policy))
  in
  (c, Array.to_list c.Flight.cap_events)

let trace_cmd =
  let json_arg =
    Arg.(value & opt string "osiris_trace.json"
         & info [ "json" ] ~docv:"PATH"
           ~doc:"Chrome trace-event output file (load it in \
                 ui.perfetto.dev).")
  in
  let run policy seed crash json =
    setup_logs ();
    (* Sampled profiler: per-phase cycle-rate counter tracks alongside
       the span tracks. *)
    let profiler = Profiler.create ~sample_every:20_000 () in
    let c, events = quickstart ~profiler policy seed crash in
    let spans = Span.build events in
    let counters = Flame.counter_samples profiler in
    let oc = open_out json in
    output_string oc (Chrome_trace.of_spans ~events ~counters spans);
    close_out oc;
    (* Show the trees that contain recovery work; the full forest
       (boot included) lives in the JSON. *)
    let interesting =
      List.filter
        (fun s ->
           Span.find (fun x -> x.Span.sp_kind = Span.Recovery) [ s ] <> None)
        spans
    in
    List.iter print_endline (Span.render_tree interesting);
    Printf.printf
      "%d events, %d spans (%d with recovery) | halted: %s\nwrote %s\n"
      (Array.length c.Flight.cap_events)
      (Span.count spans) (List.length interesting)
      (Kernel.halt_to_string c.Flight.cap_halt) json;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the quickstart workload and export a Perfetto-loadable \
             span trace.")
    Term.(const run $ policy_arg $ seed_arg $ crash_arg $ json_arg)

let report_cmd =
  let run policy seed crash =
    setup_logs ();
    let c, events = quickstart policy seed crash in
    let kernel = System.kernel c.Flight.cap_system in
    print_endline
      (Obs_report.render ~metrics:(Obs_report.metrics ~kernel events) ~kernel
         (Span.build events));
    Printf.printf "halted: %s\n" (Kernel.halt_to_string c.Flight.cap_halt);
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run the quickstart workload and print latency / recovery / \
             metrics tables.")
    Term.(const run $ policy_arg $ seed_arg $ crash_arg)

(* ------------------------------------------------------------------ *)
(* Compartment-layer commands                                          *)
(* ------------------------------------------------------------------ *)

let sysconf_conv =
  let parse s =
    match Sysconf.parse s with Ok c -> Ok c | Error m -> Error (`Msg m)
  in
  let print fmt (c : Sysconf.t) = Format.pp_print_string fmt (Sysconf.name c) in
  Arg.conv (parse, print)

(* ------------------------------------------------------------------ *)
(* Profiler / health commands                                          *)
(* ------------------------------------------------------------------ *)

let spec_opt_arg =
  Arg.(value & opt (some sysconf_conv) None
       & info [ "spec" ] ~docv:"SPEC"
         ~doc:"System spec (overrides $(b,--policy)): \
               default[,server=policy[/budget]]...")

let conf_of_args policy spec =
  match spec with Some c -> c | None -> Sysconf.uniform policy

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

let timeline_cmd =
  let interval_arg =
    Arg.(value & opt int 2048
         & info [ "interval" ] ~docv:"N"
           ~doc:"Sampling period in virtual cycles.")
  in
  let window_arg =
    Arg.(value & opt int 8
         & info [ "window" ] ~docv:"W"
           ~doc:"Sliding latency window, in samples.")
  in
  let json_arg =
    Arg.(value & opt string "osiris_timeline.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the series as CSV.")
  in
  let perfetto_arg =
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"PATH"
           ~doc:"Also write Perfetto counter tracks (plus the span trace) \
                 for ui.perfetto.dev.")
  in
  let no_color_arg =
    Arg.(value & flag
         & info [ "no-color" ] ~doc:"Plain dashboard (no ANSI codes).")
  in
  let run policy seed crash interval window json csv perfetto no_color =
    setup_logs ();
    let ts = Timeseries.create ~interval () in
    let c, events = quickstart ~telemetry:ts policy seed crash in
    let kernel = System.kernel c.Flight.cap_system in
    let spans = Span.build events in
    (* Request latency = completed top-level request spans, stamped at
       completion — what the sliding percentile windows consume. Since
       arrival anchoring, request spans nest under per-process Session
       roots; [top_requests] finds them either way. *)
    let latencies =
      List.filter_map
        (fun (s : Span.t) ->
           if s.Span.sp_complete then
             Some (s.Span.sp_end, s.Span.sp_end - s.Span.sp_start)
           else None)
        (Span.top_requests spans)
    in
    let tl = Timeline.of_kernel ~latencies ~window ts kernel in
    print_string (Timeline.dashboard ~color:(not no_color) tl);
    Printf.printf "halted: %s\n" (Kernel.halt_to_string c.Flight.cap_halt);
    write_file json (Timeline.to_json tl);
    (match csv with
     | Some p -> write_file p (Timeline.to_csv tl)
     | None -> ());
    (match perfetto with
     | Some p ->
       write_file p
         (Chrome_trace.of_spans ~counters:(Timeline.counter_samples tl) spans)
     | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Run the quickstart workload with the vtime telemetry engine \
             attached and render the sampled series as an ANSI dashboard, \
             plus deterministic JSON/CSV artifacts and Perfetto counter \
             tracks.")
    Term.(const run $ policy_arg $ seed_arg $ crash_arg $ interval_arg
          $ window_arg $ json_arg $ csv_arg $ perfetto_arg $ no_color_arg)

(* Open-loop saturation sweep: step the offered load, drive each step
   through Loadgen (arrival times fixed up front — no coordinated
   omission), optionally crash a server mid-storm, and report goodput
   plus tail latency per step. Steps fan out over the Parfan domain
   pool; every reported number is an integer derived from the seed, so
   the JSON/CSV artifacts are byte-identical across re-runs and across
   worker counts. *)
let load_cmd =
  let requests_arg =
    Arg.(value & opt int 200
         & info [ "requests" ] ~docv:"N" ~doc:"Arrivals per step.")
  in
  let rate_min_arg =
    Arg.(value & opt int 5_000
         & info [ "rate-min" ] ~docv:"RPS"
           ~doc:"Lowest offered load (requests per simulated second).")
  in
  let rate_max_arg =
    Arg.(value & opt int 40_000
         & info [ "rate-max" ] ~docv:"RPS"
           ~doc:"Highest offered load (requests per simulated second).")
  in
  let steps_arg =
    Arg.(value & opt int 8
         & info [ "steps" ] ~docv:"K"
           ~doc:"Sweep points, linearly spaced over \
                 [$(b,--rate-min), $(b,--rate-max)].")
  in
  let arrival_arg =
    Arg.(value & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ])
           `Poisson
         & info [ "arrival" ] ~docv:"MODEL"
           ~doc:"Arrival process: $(b,poisson) (memoryless) or \
                 $(b,bursty) (on/off modulated, same average rate).")
  in
  let on_us_arg =
    Arg.(value & opt int 1_000
         & info [ "on-us" ] ~docv:"US"
           ~doc:"Bursty: mean ON-phase length, simulated microseconds.")
  in
  let off_us_arg =
    Arg.(value & opt int 3_000
         & info [ "off-us" ] ~docv:"US"
           ~doc:"Bursty: mean OFF-gap length, simulated microseconds.")
  in
  let keys_arg =
    Arg.(value & opt int 64
         & info [ "keys" ] ~docv:"N"
           ~doc:"Popularity universe (distinct files / DS keys).")
  in
  let zipf_arg =
    Arg.(value & opt float 1.1
         & info [ "zipf" ] ~docv:"S"
           ~doc:"Zipf skew exponent for key popularity (0 = uniform).")
  in
  let json_arg =
    Arg.(value & opt string "osiris_load.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"PATH"
           ~doc:"Also write the latency-under-load table as CSV.")
  in
  let timeline_arg =
    Arg.(value & opt (some string) None
         & info [ "timeline" ] ~docv:"PATH"
           ~doc:"Write the highest-rate step's Timeline JSON (sampled \
                 series + sliding latency percentiles + recovery \
                 episodes).")
  in
  let attribute_arg =
    Arg.(value & flag
         & info [ "attribute" ]
           ~doc:"Run the critical-path engine on every step and add \
                 per-step p99-vs-p50 blame columns (which latency \
                 bucket — queueing, service, checkpointing, recovery \
                 collateral... — separates the tail from the median) \
                 plus the sweep's knee step to the JSON/CSV artifacts.")
  in
  let run policy seed crash jobs requests rate_min rate_max steps arrival
      on_us off_us keys zipf json csv timeline attribute =
    setup_logs ();
    let cycles_per_us = Loadgen.cycles_per_second / 1_000_000 in
    let l_arrival =
      match arrival with
      | `Poisson -> Loadgen.Poisson
      | `Bursty ->
        Loadgen.Bursty
          { on_mean = on_us * cycles_per_us;
            off_mean = off_us * cycles_per_us }
    in
    let steps = max 1 steps in
    let rates =
      List.init steps (fun i ->
          if steps = 1 then rate_min
          else rate_min + (i * (rate_max - rate_min) / (steps - 1)))
    in
    let step rate =
      let spec =
        { Loadgen.l_seed = seed; l_requests = requests; l_rate = rate;
          l_arrival; l_mix = Loadgen.default_mix; l_keys = keys;
          l_zipf = zipf }
      in
      let ts = Timeseries.create ~interval:2048 () in
      (* Attribution records the step to an in-memory journal and
         analyzes the decoded events. A storm has no Runspec form, so
         the header only labels the journal; nothing replays it. *)
      let journal =
        if not attribute then None
        else
          Some
            (Journal.to_memory
               { Journal.jh_version = Journal.version; jh_seed = seed;
                 jh_arch = Kernel.Microkernel; jh_spec = policy.Policy.name;
                 jh_workload = "load"; jh_crash = crash_name crash;
                 jh_crash_count = 1;
                 jh_cost_fingerprint = Costs.fingerprint Costs.microkernel })
      in
      let sys =
        System.build ~seed ~telemetry:ts ?journal (Sysconf.uniform policy)
      in
      let kernel = System.kernel sys in
      let reqs = Loadgen.inject kernel spec in
      Runspec.arm kernel (crash_faults ~count:1 crash);
      let halt = Kernel.run kernel in
      let o =
        { (Loadgen.collect kernel reqs) with Loadgen.o_spec_rate = rate }
      in
      let crashes = List.length (Kernel.crash_times kernel) in
      let restarts =
        List.fold_left
          (fun acc ep -> acc + (Kernel.server_stats kernel ep).Kernel.ss_restarts)
          0 System.core_servers
      in
      let tl_json =
        Timeline.to_json
          (Timeline.of_kernel ~latencies:o.Loadgen.o_lat_pairs ts kernel)
      in
      let att =
        Option.map
          (fun w ->
             Journal.close w;
             match Journal.read_string (Journal.contents w) with
             | Error m -> failwith ("load: " ^ m)
             | Ok (_, events) ->
               let cp = Critpath.analyze (Array.to_list events) in
               (Tailprof.profile cp.Critpath.cr_requests,
                cp.Critpath.cr_incomplete))
          journal
      in
      (halt, o, crashes, restarts, Kernel.shed_exits kernel, att, tl_json)
    in
    let results = Parfan.map ?jobs:(if jobs = 0 then None else Some jobs) step rates in
    let p o num den = Loadgen.percentile o.Loadgen.o_latencies ~num ~den in
    let lat_max o =
      let n = Array.length o.Loadgen.o_latencies in
      if n = 0 then 0 else o.Loadgen.o_latencies.(n - 1)
    in
    let rows =
      List.map
        (fun (halt, o, crashes, restarts, _, _, _) ->
           [ string_of_int o.Loadgen.o_spec_rate;
             string_of_int (Loadgen.goodput_rps o);
             string_of_int o.Loadgen.o_ok;
             string_of_int o.Loadgen.o_shed;
             string_of_int (p o 1 2);
             string_of_int (p o 95 100);
             string_of_int (p o 99 100);
             string_of_int (p o 999 1000);
             string_of_int (lat_max o);
             string_of_int crashes;
             string_of_int restarts;
             (match halt with
              | Kernel.H_completed 0 -> "drained"
              | h -> Kernel.halt_to_string h) ])
        results
    in
    print_string
      (Osiris_util.Tablefmt.render
         ~title:
           (Printf.sprintf
              "Open-loop saturation sweep: %d requests/step, %s arrivals, \
               crash %s (latencies in virtual cycles)"
              requests
              (match arrival with `Poisson -> "poisson" | `Bursty -> "bursty")
              (crash_name crash))
         ~header:
           [ "offered"; "goodput"; "ok"; "shed"; "p50"; "p95"; "p99";
             "p99.9"; "max"; "crashes"; "restarts"; "halt" ]
         ~align:
           Osiris_util.Tablefmt.
             [ Right; Right; Right; Right; Right; Right; Right; Right;
               Right; Right; Right; Left ]
         rows);
    let buf = Buffer.create 2048 in
    Printf.bprintf buf "{\n  \"sweep\": \"load\",\n";
    Printf.bprintf buf "  \"seed\": %d,\n  \"requests\": %d,\n" seed requests;
    Printf.bprintf buf "  \"arrival\": \"%s\",\n"
      (match arrival with `Poisson -> "poisson" | `Bursty -> "bursty");
    Printf.bprintf buf "  \"crash\": \"%s\",\n" (crash_name crash);
    Printf.bprintf buf "  \"keys\": %d,\n  \"zipf\": \"%g\",\n" keys zipf;
    let attribution_json att =
      match att with
      | None -> ""
      | Some (prof, incomplete) ->
        let b = Buffer.create 256 in
        (match prof with
         | None ->
           Printf.bprintf b ",\n     \"attribution\": {\"n\": 0, \
                            \"incomplete\": %d}" incomplete
         | Some tp ->
           Printf.bprintf b
             ",\n     \"attribution\": {\"n\": %d, \"incomplete\": %d, \
              \"p50_cut\": %d, \"p99_cut\": %d, \"blame10\": [\n"
             tp.Tailprof.tp_n incomplete tp.Tailprof.tp_p50
             tp.Tailprof.tp_p99;
           let last = List.length tp.Tailprof.tp_blame - 1 in
           List.iteri
             (fun j (bk, delta) ->
                let bi = Tailprof.bucket_index bk in
                Printf.bprintf b
                  "       {\"bucket\": \"%s\", \"p50_mean10\": %d, \
                   \"p99_mean10\": %d, \"delta10\": %d}%s\n"
                  (Tailprof.bucket_name bk)
                  tp.Tailprof.tp_low.Tailprof.co_mean10.(bi)
                  tp.Tailprof.tp_high.Tailprof.co_mean10.(bi)
                  delta
                  (if j = last then "" else ","))
             tp.Tailprof.tp_blame;
           Buffer.add_string b "     ]}");
        Buffer.contents b
    in
    Printf.bprintf buf "  \"steps\": [\n";
    List.iteri
      (fun i (_, o, crashes, restarts, kshed, att, _) ->
         Printf.bprintf buf
           "    {\"offered_rps\": %d, \"goodput_rps\": %d, \"completed\": \
            %d, \"ok\": %d, \"shed\": %d, \"kernel_shed\": %d,\n\
           \     \"makespan\": %d, \"p50\": %d, \"p95\": %d, \"p99\": %d, \
            \"p999\": %d, \"max\": %d,\n\
           \     \"crashes\": %d, \"restarts\": %d%s}%s\n"
           o.Loadgen.o_spec_rate (Loadgen.goodput_rps o)
           o.Loadgen.o_completed o.Loadgen.o_ok o.Loadgen.o_shed kshed
           o.Loadgen.o_makespan (p o 1 2) (p o 95 100) (p o 99 100)
           (p o 999 1000) (lat_max o) crashes restarts (attribution_json att)
           (if i = List.length results - 1 then "" else ","))
      results;
    if attribute then begin
      let p99s =
        Array.of_list (List.map (fun (_, o, _, _, _, _, _) -> p o 99 100) results)
      in
      Printf.bprintf buf "  ],\n  \"knee_step\": %d\n}\n" (Tailprof.knee p99s)
    end
    else Printf.bprintf buf "  ]\n}\n";
    write_file json (Buffer.contents buf);
    (match csv with
     | Some path ->
       let cb = Buffer.create 1024 in
       Buffer.add_string cb
         "offered_rps,goodput_rps,completed,ok,shed,kernel_shed,makespan,\
          p50,p95,p99,p999,max,crashes,restarts";
       if attribute then
         for i = 0 to Tailprof.n_buckets - 1 do
           Printf.bprintf cb ",blame_%s10"
             (Tailprof.bucket_name (Tailprof.bucket_of_index i))
         done;
       Buffer.add_char cb '\n';
       List.iter
         (fun (_, o, crashes, restarts, kshed, att, _) ->
            Printf.bprintf cb "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d"
              o.Loadgen.o_spec_rate (Loadgen.goodput_rps o)
              o.Loadgen.o_completed o.Loadgen.o_ok o.Loadgen.o_shed kshed
              o.Loadgen.o_makespan (p o 1 2) (p o 95 100) (p o 99 100)
              (p o 999 1000) (lat_max o) crashes restarts;
            (if attribute then
               let delta10 = Array.make Tailprof.n_buckets 0 in
               (match att with
                | Some (Some tp, _) ->
                  List.iter
                    (fun (bk, d) -> delta10.(Tailprof.bucket_index bk) <- d)
                    tp.Tailprof.tp_blame
                | _ -> ());
               Array.iter (fun d -> Printf.bprintf cb ",%d" d) delta10);
            Buffer.add_char cb '\n')
         results;
       write_file path (Buffer.contents cb)
     | None -> ());
    (match timeline, List.rev results with
     | Some path, (_, _, _, _, _, _, tl_json) :: _ -> write_file path tl_json
     | _ -> ());
    0
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Open-loop heavy-traffic saturation sweep: step the offered \
             load over Poisson or bursty arrivals with Zipf-skewed \
             popularity, inject a crash mid-storm, and report goodput and \
             tail latency per step as deterministic JSON/CSV artifacts.")
    Term.(const run $ policy_arg $ seed_arg $ crash_arg $ jobs_arg
          $ requests_arg $ rate_min_arg $ rate_max_arg $ steps_arg
          $ arrival_arg $ on_us_arg $ off_us_arg $ keys_arg $ zipf_arg
          $ json_arg $ csv_arg $ timeline_arg $ attribute_arg)

(* Causal critical-path attribution: decompose each request's latency
   into conserved buckets and rank which bucket separates the p99 tail
   from the median. The analysis is a pure function of the event
   stream, so attributing a recorded journal (--journal) yields an
   artifact byte-identical to the live run that produced it — the
   parity gate in bench/critpath_bench.ml. *)
let why_cmd =
  let spec_all_arg =
    Arg.(value & opt_all string []
         & info [ "spec" ] ~docv:"SPEC"
           ~doc:"System spec(s) to attribute (repeatable; overrides \
                 $(b,--policy)): default[,server=policy[/budget]]... Specs \
                 fan out over the domain pool; the artifact merges them in \
                 submission order, byte-identical at any $(b,--jobs).")
  in
  let workload_arg =
    Arg.(value & opt string "quickstart"
         & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload: quickstart, suite, or workgen (seed-derived).")
  in
  let count_arg =
    Arg.(value & opt int 1
         & info [ "crashes" ] ~docv:"N" ~doc:"Crashes to inject.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
           ~doc:"Attribute a recorded journal instead of running live. The \
                 journal fixes the run, so the flags that describe one \
                 ($(b,--spec), $(b,--crash), ...) are rejected with it.")
  in
  let json_arg =
    Arg.(value & opt string "osiris_why.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let perfetto_arg =
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"PATH"
           ~doc:"Also write a Perfetto span trace of the first run with \
                 flow arrows tracing each tail request's critical path \
                 across the server tracks.")
  in
  let top_arg =
    Arg.(value & opt int 3
         & info [ "top" ] ~docv:"N"
           ~doc:"Slowest requests to detail on stdout.")
  in
  let tenths v = Printf.sprintf "%d.%d" (v / 10) (abs v mod 10) in
  let service_json b =
    "["
    ^ String.concat ", "
        (List.map
           (fun (ep, c) ->
              Printf.sprintf "[%s, %d]"
                (Chrome_trace.escaped (Endpoint.server_name ep))
                c)
           b.Critpath.cp_service)
    ^ "]"
  in
  let request_json buf (b : Critpath.breakdown) =
    Printf.bprintf buf
      "      {\"ep\": %s, \"rid\": %d, \"injected\": %b, \"arrival\": %d, \
       \"exit\": %d, \"total\": %d,\n\
      \       \"own\": %d, \"queue\": %d, \"service\": %s, \"checkpoint\": \
       %d, \"rollback\": %d, \"restart\": %d, \"collateral\": %d, \
       \"path\": [%s]}"
      (Chrome_trace.escaped (Endpoint.server_name b.Critpath.cp_ep))
      b.Critpath.cp_rid b.Critpath.cp_injected b.Critpath.cp_arrival
      b.Critpath.cp_exit (Critpath.total b) b.Critpath.cp_own
      b.Critpath.cp_queue (service_json b) b.Critpath.cp_checkpoint
      b.Critpath.cp_rollback b.Critpath.cp_restart b.Critpath.cp_collateral
      (String.concat ", " (List.map string_of_int b.Critpath.cp_path))
  in
  let profile_json buf = function
    | None -> Buffer.add_string buf "null"
    | Some tp ->
      Printf.bprintf buf
        "{\"n\": %d, \"p50_cut\": %d, \"p99_cut\": %d, \"blame10\": [\n"
        tp.Tailprof.tp_n tp.Tailprof.tp_p50 tp.Tailprof.tp_p99;
      let last = List.length tp.Tailprof.tp_blame - 1 in
      List.iteri
        (fun j (bk, delta) ->
           let bi = Tailprof.bucket_index bk in
           Printf.bprintf buf
             "        {\"bucket\": \"%s\", \"p50_mean10\": %d, \
              \"p99_mean10\": %d, \"delta10\": %d}%s\n"
             (Tailprof.bucket_name bk)
             tp.Tailprof.tp_low.Tailprof.co_mean10.(bi)
             tp.Tailprof.tp_high.Tailprof.co_mean10.(bi)
             delta
             (if j = last then "      ]}" else ","))
        tp.Tailprof.tp_blame
  in
  (* The flags that describe a live run, and the command-line words
     that set any of them: a journal already fixes its run, so with
     --journal any such word is an error. *)
  let live_args =
    Term.(with_used_args
            (const (fun policy specs seed arch workload crash count jobs ->
                 (policy, specs, seed, arch, workload, crash, count, jobs))
             $ policy_arg $ spec_all_arg $ seed_arg $ arch_arg $ workload_arg
             $ crash_arg $ count_arg $ jobs_arg))
  in
  let run ((policy, specs, seed, arch, workload, crash, count, jobs), used)
      journal json perfetto top =
    setup_logs ();
    let runs =
      match journal, List.find_opt (String.starts_with ~prefix:"-") used with
      | Some _, Some word ->
        let flag =
          match String.index_opt word '=' with
          | Some i -> String.sub word 0 i
          | None -> word
        in
        Printf.eprintf
          "why: %s does not apply with --journal: the journal fixes the run\n"
          flag;
        Error 1
      | Some path, None ->
        (match Journal.read_file path with
         | Error m ->
           prerr_endline ("why: " ^ m);
           Error 1
         | Ok (_header, events) -> Ok [ Array.to_list events ])
      | None, _ ->
        let specs = if specs = [] then [ policy.Policy.name ] else specs in
        let headers =
          List.map
            (fun s ->
               Runspec.make_header ~arch ~seed ~spec:s ~workload
                 ~crash:(crash_name crash) ~crash_count:count ())
            specs
        in
        (match
           List.find_map
             (function Error m -> Some m | Ok _ -> None)
             headers
         with
         | Some m ->
           prerr_endline ("why: " ^ m);
           Error 1
         | None ->
           let headers =
             List.filter_map
               (function Ok h -> Some h | Error _ -> None)
               headers
           in
           Ok
             (Parfan.map
                ?jobs:(if jobs = 0 then None else Some jobs)
                (fun header ->
                   match Flight.capture header with
                   | Error m -> failwith ("why: " ^ m)
                   | Ok c -> Array.to_list c.Flight.cap_events)
                headers))
    in
    match runs with
    | Error rc -> rc
    | Ok runs ->
      let analyzed =
        List.map
          (fun events ->
             let cp = Critpath.analyze events in
             (events, cp, Tailprof.profile cp.Critpath.cr_requests))
          runs
      in
      (* Conservation is the tool's contract: refuse to emit an
         artifact whose buckets don't sum back to the latencies. *)
      let violations =
        List.concat_map
          (fun (_, cp, _) ->
             List.filter
               (fun b -> Critpath.breakdown_sum b <> Critpath.total b)
               cp.Critpath.cr_requests)
          analyzed
      in
      if violations <> [] then begin
        Printf.eprintf
          "why: INTERNAL: %d request(s) violate conservation (e.g. %s: sum \
           %d <> total %d)\n"
          (List.length violations)
          (Endpoint.server_name (List.hd violations).Critpath.cp_ep)
          (Critpath.breakdown_sum (List.hd violations))
          (Critpath.total (List.hd violations));
        1
      end
      else begin
        List.iteri
          (fun i (_, cp, prof) ->
             let reqs = cp.Critpath.cr_requests in
             Printf.printf
               "run %d: %d completed request(s), %d incomplete — \
                conservation exact\n"
               i (List.length reqs) cp.Critpath.cr_incomplete;
             (match prof with
              | None -> ()
              | Some tp ->
                Printf.printf "  p50 %d cycles, p99 %d cycles (n=%d)\n"
                  tp.Tailprof.tp_p50 tp.Tailprof.tp_p99 tp.Tailprof.tp_n;
                print_string
                  (Osiris_util.Tablefmt.render
                     ~title:"p99-vs-p50 blame (mean cycles per request)"
                     ~header:[ "bucket"; "p50 mean"; "p99 mean"; "blame" ]
                     ~align:
                       Osiris_util.Tablefmt.[ Left; Right; Right; Right ]
                     (List.map
                        (fun (bk, delta) ->
                           let bi = Tailprof.bucket_index bk in
                           [ Tailprof.bucket_name bk;
                             tenths tp.Tailprof.tp_low.Tailprof.co_mean10.(bi);
                             tenths tp.Tailprof.tp_high.Tailprof.co_mean10.(bi);
                             tenths delta ])
                        tp.Tailprof.tp_blame)));
             let slowest =
               List.sort
                 (fun a b -> compare (Critpath.total b) (Critpath.total a))
                 reqs
             in
             List.iteri
               (fun j b ->
                  if j < top then begin
                    Printf.printf
                      "  #%d %s: total %d = own %d + queue %d + service %d \
                       + ckpt %d + rollback %d + restart %d + collateral %d\n"
                      (j + 1)
                      (Endpoint.server_name b.Critpath.cp_ep)
                      (Critpath.total b) b.Critpath.cp_own
                      b.Critpath.cp_queue (Critpath.service_total b)
                      b.Critpath.cp_checkpoint b.Critpath.cp_rollback
                      b.Critpath.cp_restart b.Critpath.cp_collateral;
                    List.iter
                      (fun (ep, c) ->
                         Printf.printf "       service[%s] = %d\n"
                           (Endpoint.server_name ep) c)
                      b.Critpath.cp_service
                  end)
               slowest)
          analyzed;
        let buf = Buffer.create 4096 in
        Printf.bprintf buf "{\n  \"tool\": \"why\",\n  \"runs\": [\n";
        let nruns = List.length analyzed in
        List.iteri
          (fun i (_, cp, prof) ->
             Printf.bprintf buf "    {\"incomplete\": %d,\n     \"requests\": [\n"
               cp.Critpath.cr_incomplete;
             let reqs = cp.Critpath.cr_requests in
             let last = List.length reqs - 1 in
             List.iteri
               (fun j b ->
                  request_json buf b;
                  Buffer.add_string buf (if j = last then "\n     ],\n" else ",\n"))
               reqs;
             if reqs = [] then Buffer.add_string buf "     ],\n";
             Buffer.add_string buf "     \"profile\": ";
             profile_json buf prof;
             Buffer.add_string buf (if i = nruns - 1 then "}\n" else "},\n"))
          analyzed;
        Printf.bprintf buf "  ]\n}\n";
        write_file json (Buffer.contents buf);
        (match perfetto, analyzed with
         | Some path, (events, cp, prof) :: _ ->
           let spans = Span.build events in
           let anchor_of = Hashtbl.create 256 in
           List.iter
             (fun (s : Span.t) ->
                if not (Hashtbl.mem anchor_of s.Span.sp_id) then
                  Hashtbl.replace anchor_of s.Span.sp_id
                    { Chrome_trace.fa_tid = s.Span.sp_ep;
                      fa_ts = s.Span.sp_start })
             (Span.flatten spans);
           let tail_cut =
             match prof with Some tp -> tp.Tailprof.tp_p99 | None -> 0
           in
           let flows =
             List.filter_map
               (fun (b : Critpath.breakdown) ->
                  if Critpath.total b >= tail_cut && b.Critpath.cp_path <> []
                  then
                    Some
                      (b.Critpath.cp_rid,
                       List.filter_map
                         (Hashtbl.find_opt anchor_of)
                         b.Critpath.cp_path)
                  else None)
               cp.Critpath.cr_requests
           in
           write_file path (Chrome_trace.of_spans ~events ~flows spans)
         | _ -> ());
        0
      end
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Causal critical-path attribution: decompose each request's \
             end-to-end latency into an exactly conserved breakdown (own \
             compute, queueing, per-server service, checkpoint windows, \
             self-inflicted rollback/restart, recovery collateral) and \
             rank which bucket separates the p99 tail from the median.")
    Term.(const run $ live_args $ journal_arg $ json_arg $ perfetto_arg
          $ top_arg)

let profile_cmd =
  let json_arg =
    Arg.(value & opt string "osiris_profile.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let folded_arg =
    Arg.(value & opt string "osiris_profile.folded"
         & info [ "folded" ] ~docv:"PATH"
           ~doc:"Folded-stack flamegraph output (feed to flamegraph.pl / \
                 inferno / speedscope).")
  in
  let run policy spec seed crash json folded =
    setup_logs ();
    let conf = conf_of_args policy spec in
    let profiler = Profiler.create () in
    let sys, halt =
      Runspec.run ~profiler
        (described ~seed ~workload:"quickstart"
           ~faults:(crash_faults ~count:1 crash) conf)
    in
    let kernel = System.kernel sys in
    print_endline (Profiler.report profiler);
    Printf.printf "halted: %s\n" (Kernel.halt_to_string halt);
    write_file json (Profiler.to_json profiler);
    write_file folded (Flame.folded profiler);
    match Profiler.check_conservation profiler kernel with
    | Ok () ->
      Printf.printf "conservation: ok (%d cycles attributed over %d records)\n"
        (Profiler.total_cycles profiler) (Profiler.n_records profiler);
      0
    | Error m ->
      Printf.printf "conservation VIOLATED: %s\n" m;
      1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run the quickstart workload under the cycle-accounting \
             profiler: per-compartment phase matrix, JSON artifact, and \
             folded flamegraph.")
    Term.(const run $ policy_arg $ spec_opt_arg $ seed_arg $ crash_arg
          $ json_arg $ folded_arg)

let health_cmd =
  let json_arg =
    Arg.(value & opt string "osiris_health.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let crashes_arg =
    Arg.(value & opt int 1
         & info [ "crashes" ] ~docv:"N"
           ~doc:"Recoverable crashes to inject into the --crash server.")
  in
  let run policy spec seed crash crashes json =
    setup_logs ();
    let conf = conf_of_args policy spec in
    let profiler = Profiler.create () in
    let c =
      capture ~profiler
        (described ~seed ~workload:"quickstart"
           ~faults:(crash_faults ~count:crashes crash) conf)
    in
    let comps =
      Health.snapshot ~profiler ~budget_for:(Sysconf.budget_for conf)
        (Array.to_list c.Flight.cap_events) (System.kernel c.Flight.cap_system)
    in
    print_endline (Health.render comps);
    Printf.printf "halted: %s\n" (Kernel.halt_to_string c.Flight.cap_halt);
    write_file json (Health.to_json comps);
    if List.for_all (fun c -> c.Health.co_status = Health.Healthy) comps then 0
    else 1
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Run the quickstart workload and report per-compartment \
             recovery health: MTTR, success ratio, crash-loop detection, \
             overhead vs baseline.")
    Term.(const run $ policy_arg $ spec_opt_arg $ seed_arg $ crash_arg
          $ crashes_arg $ json_arg)

let survivability_cmd =
  let model_arg =
    let model_c =
      Arg.enum [ ("fail-stop", Edfi.Fail_stop); ("full-edfi", Edfi.Full_edfi) ]
    in
    Arg.(value & opt model_c Edfi.Fail_stop
         & info [ "model" ] ~docv:"MODEL" ~doc:"Fault model.")
  in
  let sample_arg =
    Arg.(value & opt int 0
         & info [ "sample" ] ~docv:"N"
           ~doc:"Fault sites per spec (0 = all, the default — the full \
                 757-site-style sweep; the domain pool makes it the \
                 normal path).")
  in
  let spec_arg =
    Arg.(value & opt_all sysconf_conv []
         & info [ "spec" ] ~docv:"SPEC"
           ~doc:"System spec: default[,server=policy[/budget]]..., e.g. \
                 'enhanced,ds=stateless,vm=pessimistic/3'. Repeatable; one \
                 matrix row per spec. Default: uniform specs of the four \
                 evaluation policies (the Tables II/III diagonal).")
  in
  let json_arg =
    Arg.(value & opt string "survivability.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let timeline_arg =
    Arg.(value & opt (some string) None
         & info [ "timeline" ] ~docv:"PATH"
           ~doc:"Also write the campaign telemetry rollup (merged MTTR \
                 histograms, per-server recovery latency, crash-storm \
                 timeline; plus wall-clock pool utilization) as JSON.")
  in
  let run model sample seed jobs specs json timeline =
    setup_logs ();
    let specs =
      match specs with
      | [] -> List.map Sysconf.uniform Policy.all_evaluated
      | specs -> specs
    in
    let model_name =
      match model with Edfi.Fail_stop -> "fail-stop" | Edfi.Full_edfi -> "full-edfi"
    in
    let pool_stats = ref None in
    let rows, rollup =
      Campaign.survivability_matrix_rollup ~seed ~sample ~jobs
        ~stats:(fun s -> pool_stats := Some s)
        ~progress:sweep_progress model specs
    in
    Printf.printf "%-40s %6s %6s %9s %6s (%d runs each)\n" "spec" "pass%"
      "fail%" "shutdown%" "crash%"
      (match rows with r :: _ -> r.Campaign.runs | [] -> 0);
    List.iter
      (fun r ->
         let f o = 100. *. Campaign.fraction r o in
         Printf.printf "%-40s %6.1f %6.1f %9.1f %6.1f\n" r.Campaign.row_policy
           (f Campaign.Pass) (f Campaign.Fail) (f Campaign.Shutdown)
           (f Campaign.Crash))
      rows;
    let buf = Buffer.create 1024 in
    Printf.bprintf buf
      "{\n  \"experiment\": \"survivability_matrix\",\n  \"model\": %S,\n\
      \  \"seed\": %d,\n  \"sample\": %d,\n  \"rows\": [\n"
      model_name seed sample;
    List.iteri
      (fun i r ->
         Printf.bprintf buf
           "    {\"spec\": %s, \"runs\": %d, \"pass\": %d, \"fail\": %d, \
            \"shutdown\": %d, \"crash\": %d}%s\n"
           (Chrome_trace.escaped r.Campaign.row_policy) r.Campaign.runs r.Campaign.pass
           r.Campaign.fail r.Campaign.shutdown r.Campaign.crash
           (if i = List.length rows - 1 then "" else ","))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    write_file json (Buffer.contents buf);
    (* The rollup's deterministic sections are byte-identical at any
       --jobs; the "pool" section (wall-clock worker utilization) is
       the one exception and rides only in this artifact. *)
    (match timeline with
     | Some p ->
       write_file p (Campaign.rollup_to_json ?pool:!pool_stats rollup)
     | None -> ());
    (* Stderr, not stdout or the artifact: wall-clock pool statistics
       are the only output allowed to vary with --jobs. *)
    (match !pool_stats with
     | Some s -> prerr_endline (Parfan.speedup_line s)
     | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "survivability"
       ~doc:"Mixed-policy survivability matrix: one row per system spec \
             (uniform specs re-derive Tables II/III). The sweep fans out \
             across an OCaml 5 domain pool; artifacts are byte-identical \
             for any $(b,--jobs).")
    Term.(const run $ model_arg $ sample_arg $ seed_arg $ jobs_arg $ spec_arg
          $ json_arg $ timeline_arg)

let policies_cmd =
  let run () =
    setup_logs ();
    Printf.printf "%-18s %-12s %-8s %-22s %-6s %s\n" "name" "instrument"
      "window" "recovery" "dedup" "closes-window-on";
    List.iter
      (fun (p : Policy.t) ->
         let closes =
           let cls =
             List.filter p.Policy.closes_window
               [ Seep.Read_only; Seep.State_modifying; Seep.Reply ]
           in
           if cls = [] then "nothing"
           else
             String.concat ","
               (List.map
                  (function
                    | Seep.Read_only -> "read-only"
                    | Seep.State_modifying -> "state-modifying"
                    | Seep.Reply -> "reply")
                  cls)
         in
         Printf.printf "%-18s %-12s %-8s %-22s %-6b %s%s\n" p.Policy.name
           (match p.Policy.instrumentation with
            | Window.Never -> "never"
            | Window.When_open -> "when-open"
            | Window.Always -> "always"
            | Window.Snapshot -> "snapshot")
           (if p.Policy.window_on_receive then "yes" else "no")
           (Policy.recovery_to_string p.Policy.recovery)
           p.Policy.dedup_log closes
           (match p.Policy.graduated with
            | Some k -> Printf.sprintf " (hardens after %d SEEPs)" k
            | None -> ""))
      Policy.all_known;
    print_endline
      "\nspecs for `osiris survivability --spec` combine these per \
       compartment:\n  default[,server=policy[/budget]]...   e.g. \
       enhanced,ds=stateless,vm=pessimistic/3";
    0
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:"List the known recovery policies and their attributes.")
    Term.(const run $ const ())

(* ---- Flight recorder: record / replay / postmortem ---- *)

let journal_path_arg =
  Arg.(value & opt string "osiris.journal"
       & info [ "journal" ] ~docv:"PATH"
         ~doc:"Journal file.")

let read_raw path =
  match In_channel.with_open_bin path In_channel.input_all with
  | bytes -> Ok bytes
  | exception Sys_error m -> Error m

(* Sidecar loading degrades, never fails: a missing, damaged, or stale
   index means a full scan with a stderr warning — identical answers,
   just slower. *)
let load_index ~journal path =
  let ipath = path ^ Journal.index_suffix in
  if not (Sys.file_exists ipath) then None
  else
    match Journal.read_index_file ~journal ipath with
    | Ok ix -> Some ix
    | Error m ->
      Printf.eprintf
        "warning: ignoring sidecar %s (%s); falling back to full scan\n%!"
        ipath m;
      None

(* --perturb-cost, shared by record and replay: the header arch's
   table with one entry off by one. *)
let perturbed_costs ~perturb header =
  if perturb then
    Some (Costs.perturbed (Kernel.costs_of_arch header.Journal.jh_arch))
  else None

let record_cmd =
  let spec_str_arg =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"SPEC"
           ~doc:"System spec recorded in the header (overrides \
                 $(b,--policy)): default[,server=policy[/budget]]...")
  in
  let workload_arg =
    Arg.(value & opt string "quickstart"
         & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload to record: quickstart, suite, or workgen \
                 (seed-derived).")
  in
  let count_arg =
    Arg.(value & opt int 1
         & info [ "crashes" ] ~docv:"N" ~doc:"Crashes to inject.")
  in
  let ring_arg =
    Arg.(value & opt (some int) None
         & info [ "ring" ] ~docv:"N"
           ~doc:"Bounded-memory mode: keep only the last N events in a \
                 ring, frozen at each crash and spilled at halt (default: \
                 full-fidelity streaming).")
  in
  let no_index_arg =
    Arg.(value & flag
         & info [ "no-index" ]
           ~doc:"Skip writing the seekable sidecar block index \
                 (PATH.idx); queries over this journal will full-scan.")
  in
  let perturb_arg =
    Arg.(value & flag
         & info [ "perturb-cost" ]
           ~doc:"Record under a cost table with one entry perturbed \
                 while keeping the header's fingerprint — produces a \
                 journal whose trajectory diverges from an unperturbed \
                 recording of the same header (the $(b,osiris diff) \
                 structural-divergence fixture).")
  in
  let run policy spec seed arch workload crash count ring no_index perturb
      path =
    setup_logs ();
    let spec = match spec with Some s -> s | None -> policy.Policy.name in
    match
      Runspec.make_header ~arch ~seed ~spec ~workload
        ~crash:(crash_name crash) ~crash_count:count ()
    with
    | Error m -> prerr_endline ("record: " ^ m); 1
    | Ok header ->
      let costs = perturbed_costs ~perturb header in
      (match Flight.record ~path ?ring ?costs ~index:(not no_index) header
       with
       | Error m -> prerr_endline ("record: " ^ m); 1
       | Ok r ->
         Printf.printf "recorded: %s\n" (Journal.header_to_string header);
         Printf.printf "halted: %s\n"
           (Kernel.halt_to_string r.Flight.rec_halt);
         Printf.printf "%d records, %d bytes%s -> %s%s\n"
           r.Flight.rec_records r.Flight.rec_bytes
           (if r.Flight.rec_snapshots > 0 then
              Printf.sprintf " (ring mode, %d crash snapshot(s))"
                r.Flight.rec_snapshots
            else "")
           path
           (if no_index then ""
            else Printf.sprintf " (+ index %s)" (path ^ Journal.index_suffix));
         0)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a workload with the flight recorder attached, writing a \
             replayable event journal and its seekable sidecar index.")
    Term.(const run $ policy_arg $ spec_str_arg $ seed_arg $ arch_arg
          $ workload_arg $ crash_arg $ count_arg $ ring_arg $ no_index_arg
          $ perturb_arg $ journal_path_arg)

let replay_cmd =
  let json_arg =
    Arg.(value & opt string "osiris_replay.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let perturb_arg =
    Arg.(value & flag
         & info [ "perturb-cost" ]
           ~doc:"Replay under a cost table with one entry perturbed — the \
                 intentional-divergence fixture (expect exit 2 with the \
                 first divergent record named).")
  in
  let run path json perturb =
    setup_logs ();
    match read_raw path with
    | Error m -> prerr_endline m; 1
    | Ok bytes ->
      (match Journal.stream_of_string bytes with
       | Error m -> prerr_endline m; 1
       | Ok (header, st) ->
         let costs = perturbed_costs ~perturb header in
         (* Streaming cursor: the journal is never materialized as an
            array. In-record damage ends the stream and is reported as
            a read error (exit 1), not a divergence. *)
         let decode_err = ref None in
         let next () =
           match Journal.stream_next st with
           | Ok ev -> ev
           | Error m ->
             if !decode_err = None then decode_err := Some m;
             None
         in
         let outcome = Flight.replay_stream ?costs header ~next in
         (match !decode_err with
          | Some m -> prerr_endline ("replay: " ^ m); 1
          | None ->
            print_string (Replay.render outcome);
            write_file json (Replay.to_json outcome);
            Replay.exit_code outcome))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a journaled run and diff the event streams: exit 0 \
             when byte-identical, 2 on divergence (first divergent record \
             and its causal rid chain reported), 1 on read errors.")
    Term.(const run $ journal_path_arg $ json_arg $ perturb_arg)

let postmortem_cmd =
  let json_arg =
    Arg.(value & opt string "osiris_postmortem.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let run path json =
    setup_logs ();
    match read_raw path with
    | Error m -> prerr_endline m; 1
    | Ok bytes ->
      (match Postmortem.analyze_journal bytes with
       | Error m -> prerr_endline m; 1
       | Ok report ->
         print_string
           (Postmortem.render report.Postmortem.pm_header report);
         write_file json (Postmortem.to_json report);
         0)
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:"Walk a journal backwards from each crash through the causal \
             rid chain to its root cause; report recovery outcome and \
             latency without re-executing.")
    Term.(const run $ journal_path_arg $ json_arg)

(* ---- Trace query engine: index / query / diff ---- *)

let index_cmd =
  let block_arg =
    Arg.(value & opt int Journal.default_block_records
         & info [ "block-records" ] ~docv:"N"
           ~doc:"Records per index block (smaller blocks skip more, \
                 cost more summaries).")
  in
  let run path block_records =
    setup_logs ();
    match read_raw path with
    | Error m -> prerr_endline ("index: " ^ m); 1
    | Ok bytes ->
      (match Journal.build_index ~block_records bytes with
       | Error m -> prerr_endline ("index: " ^ m); 1
       | Ok ix ->
         let ipath = path ^ Journal.index_suffix in
         Journal.write_index_file ~path:ipath ix;
         Printf.printf "indexed %s: %d records in %d blocks -> %s\n" path
           ix.Journal.ix_records
           (Array.length ix.Journal.ix_blocks)
           ipath;
         0)
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"(Re)build the seekable sidecar block index for a journal — \
             byte-identical to the one $(b,osiris record) writes.")
    Term.(const run $ journal_path_arg $ block_arg)

let query_cmd =
  let filter_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILTER"
           ~doc:"Filter terms, AND-ed: key=v1,v2,... over server, kind, \
                 tag, rid, chain, policy; vtime bounds time>=N / time<N; \
                 a leading ! negates a term. Empty matches everything.")
  in
  let agg_arg =
    Arg.(value & opt string "count"
         & info [ "agg" ] ~docv:"AGG"
           ~doc:"Aggregation: count, rate:WIDTH (matches per vtime \
                 bucket), percentiles:FIELD (bytes|cycles|latency), or \
                 by:DIM (server|kind|tag|policy).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"PATH" ~doc:"Write the JSON artifact.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"PATH" ~doc:"Write the CSV artifact.")
  in
  let no_index_arg =
    Arg.(value & flag
         & info [ "no-index" ]
           ~doc:"Ignore any sidecar index and full-scan (same answers; \
                 the byte-identity is a bench gate).")
  in
  let parse_agg s =
    if s = "count" then Ok Query.Count
    else
      match String.index_opt s ':' with
      | Some i ->
        let key = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        (match key with
         | "rate" ->
           (match int_of_string_opt v with
            | Some w when w > 0 -> Ok (Query.Rate w)
            | _ -> Error (Printf.sprintf "bad rate bucket width %S" v))
         | "percentiles" | "p" ->
           (match Query.field_of_name v with
            | Some f -> Ok (Query.Percentiles f)
            | None -> Error (Printf.sprintf "unknown field %S" v))
         | "by" | "group" ->
           (match Query.dim_of_name v with
            | Some d -> Ok (Query.Group_by d)
            | None -> Error (Printf.sprintf "unknown dimension %S" v))
         | _ -> Error (Printf.sprintf "unknown aggregation %S" s))
      | None -> Error (Printf.sprintf "unknown aggregation %S" s)
  in
  let run path no_index agg_s json csv terms =
    setup_logs ();
    match read_raw path with
    | Error m -> prerr_endline ("query: " ^ m); 1
    | Ok bytes ->
      (match Query.parse_filter (String.concat " " terms) with
       | Error m -> prerr_endline ("query: " ^ m); 1
       | Ok filter ->
         (match parse_agg agg_s with
          | Error m -> prerr_endline ("query: " ^ m); 1
          | Ok agg ->
            let index =
              if no_index then None else load_index ~journal:bytes path
            in
            let stats = Journal.scan_stats () in
            (match Query.run ?index ~stats ~filter ~agg bytes with
             | Error m -> prerr_endline ("query: " ^ m); 1
             | Ok o ->
               print_string (Query.render o (Some stats));
               (match json with
                | Some p -> write_file p (Query.to_json o)
                | None -> ());
               (match csv with
                | Some p -> write_file p (Query.to_csv o)
                | None -> ());
               0)))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run a typed filter + aggregation over a journal in one \
             streaming pass, using the sidecar index to decode only \
             blocks that can match.")
    Term.(const run $ journal_path_arg $ no_index_arg $ agg_arg $ json_arg
          $ csv_arg $ filter_arg)

let diff_cmd =
  let a_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JOURNAL_A" ~doc:"Baseline journal.")
  in
  let b_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"JOURNAL_B" ~doc:"Journal to compare against A.")
  in
  let json_arg =
    Arg.(value & opt string "osiris_diff.json"
         & info [ "json" ] ~docv:"PATH" ~doc:"JSON artifact path.")
  in
  let run a b json =
    setup_logs ();
    match read_raw a with
    | Error m -> prerr_endline ("diff: " ^ m); 1
    | Ok ja ->
      (match read_raw b with
       | Error m -> prerr_endline ("diff: " ^ m); 1
       | Ok jb ->
         (match Rundiff.compare_runs ~label_a:a ~label_b:b ja jb with
          | Error m -> prerr_endline ("diff: " ^ m); 1
          | Ok r ->
            print_string (Rundiff.render r);
            write_file json (Rundiff.to_json r);
            Rundiff.exit_code r))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Differential diagnosis of two recorded runs: structural \
             first-divergence with its causal chain, plus event-mix, \
             per-server latency, MTTR, and critical-path blame deltas. \
             Exit 0 when identical, 2 on any difference, 1 on errors.")
    Term.(const run $ a_arg $ b_arg $ json_arg)

let main =
  Cmd.group
    (Cmd.info "osiris" ~version:"1.0.0"
       ~doc:"OSIRIS: compartmentalized OS crash recovery (simulation)")
    [ suite_cmd; bench_cmd; coverage_cmd; memory_cmd; survivability_cmd; policies_cmd; disrupt_cmd; sites_cmd; fsck_cmd;
      stress_cmd; events_cmd; timeline_cmd; load_cmd; why_cmd; trace_cmd;
      report_cmd; profile_cmd; health_cmd; record_cmd; replay_cmd;
      postmortem_cmd; index_cmd; query_cmd; diff_cmd ]

let () = Stdlib.exit (Cmd.eval' main)
