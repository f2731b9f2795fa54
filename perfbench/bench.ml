(* The repo benchmark: host cost of the simulator on three workloads.

   Usage (from the repo root):
     dune exec -- ./perfbench/bench.exe \
       --workload suite|campaign|storm --seed N --seconds S --trace 0|1

   Every workload is a loop of iterations run back to back for
   [--seconds]. The first iteration is warm-up and is never timed.
   Each iteration's simulated outputs are checked, against
   perfbench/reference.txt when the seed has a reference and against
   the first iteration on the same input otherwise. [--trace 0] prints
   the end-to-end metrics; [--trace 1] wraps every library call in a
   span and prints the per-layer metrics. The last stdout line is one
   JSON object. README.md explains the workloads and the metrics. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- spans ----------------------------------------------------------

   A span is one library call made by the benchmark. Spans are kept in
   memory while tracing and written out once at the end; untraced runs
   time the same calls but keep nothing. Spans are flat: every span's
   parent is the iteration that made it (-1 for workload set-up), so a
   span's self time is its duration. *)

type span = { sp_name : string; sp_iter : int; sp_t0 : int; sp_t1 : int }

let tracing = ref false
let cur_iter = ref (-1)
let spans : span list ref = ref []

(* Run [f], returning its result and host ns; recorded as a span when
   tracing. *)
let timed name f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  if !tracing then
    spans := { sp_name = name; sp_iter = !cur_iter; sp_t0 = t0; sp_t1 = t1 }
             :: !spans;
  (r, t1 - t0)

let span name f = fst (timed name f)

(* ---- statistics ---------------------------------------------------- *)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fmedian_int l = median (List.map float_of_int l)

(* ---- checking -------------------------------------------------------

   An observation is a list of named simulated outputs. The reference
   file holds lines [<seed> <workload>.<key> <value...>]; the value is
   the rest of the line. *)

let reference_path = "perfbench/reference.txt"

let load_reference ~seed ~workload =
  let prefix = Printf.sprintf "%d %s." seed workload in
  let tbl = Hashtbl.create 64 in
  (match open_in reference_path with
   | exception Sys_error _ -> ()
   | ic ->
     (try
        while true do
          let line = input_line ic in
          let pl = String.length prefix in
          if String.length line > pl && String.sub line 0 pl = prefix then
            match String.index_from_opt line pl ' ' with
            | Some sp ->
              Hashtbl.replace tbl
                (String.sub line pl (sp - pl))
                (String.sub line (sp + 1) (String.length line - sp - 1))
            | None -> ()
        done
      with End_of_file -> ());
     close_in ic);
  tbl

type checker = {
  reference : (string, string) Hashtbl.t;
  first : (string, string) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let checker ~seed ~workload =
  { reference = load_reference ~seed ~workload; first = Hashtbl.create 256;
    attempted = 0; failed = 0 }

(* Check one iteration's observation: every value must equal the
   reference when the seed has one, and the first value seen under the
   same key. *)
let check c obs =
  let bad = ref [] in
  List.iter
    (fun (key, v) ->
       (match Hashtbl.find_opt c.reference key with
        | Some r when r <> v -> bad := Printf.sprintf "%s: %s, reference %s" key v r :: !bad
        | _ -> ());
       match Hashtbl.find_opt c.first key with
       | None -> Hashtbl.replace c.first key v
       | Some f when f <> v -> bad := Printf.sprintf "%s: %s, first run %s" key v f :: !bad
       | Some _ -> ())
    obs;
  c.attempted <- c.attempted + 1;
  if !bad <> [] then begin
    c.failed <- c.failed + 1;
    List.iter (fun m -> Printf.eprintf "MISMATCH %s\n%!" m) (List.rev !bad)
  end

let fail_iteration c exn =
  c.attempted <- c.attempted + 1;
  c.failed <- c.failed + 1;
  Printf.eprintf "ERROR iteration raised %s\n%!" (Printexc.to_string exn)

(* ---- per-iteration record ------------------------------------------ *)

type iter = {
  it_wall : int;           (* whole iteration, host ns *)
  it_build : int list;     (* System.build + boot, host ns each *)
  it_build_major : float;  (* major words allocated by the builds *)
  it_run : int;            (* the run call, host ns *)
  it_ops : int;            (* simulated ops during the run call *)
  it_minor : float;        (* minor words during the run call *)
  it_extra : int;          (* workload-specific: see each workload *)
  it_probe : int;          (* host-speed probe just before, host ns *)
}

(* Simulated counts for the per-layer report, summed over the distinct
   inputs of a workload, each counted once. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 64
let counted : (string, unit) Hashtbl.t = Hashtbl.create 128

let add_counts ~input l =
  if not (Hashtbl.mem counted input) then begin
    Hashtbl.replace counted input ();
    List.iter
      (fun (n, v) ->
         Hashtbl.replace counts n (v + Option.value ~default:0 (Hashtbl.find_opt counts n)))
      l
  end

(* Simulated statistics of one run, summed over every server. *)
let kernel_counts k ~ops =
  let sum f =
    List.fold_left (fun acc ep -> acc + f (Kernel.server_stats k ep)) 0
      (Kernel.server_endpoints k)
  in
  [ "kernel.ops", ops;
    "kernel.messages", Kernel.messages_delivered k;
    "kernel.vtime", Kernel.now k;
    "kernel.crashes", Kernel.crashes k;
    "kernel.restarts", Kernel.restarts k;
    "checkpoint.window_opens", sum (fun s -> s.Kernel.ss_window_opens);
    "checkpoint.logged_stores", sum (fun s -> s.Kernel.ss_logged_stores);
    "checkpoint.deduped_stores", sum (fun s -> s.Kernel.ss_deduped_stores);
    "checkpoint.rollback_bytes", sum (fun s -> s.Kernel.ss_rollback_bytes);
    "checkpoint.restore_bytes_saved",
    sum (fun s -> s.Kernel.ss_restore_bytes_saved) ]

(* [System.build] timed, with the major words it allocates. *)
let build ?journal ~seed conf =
  let _, _, major0 = Gc.counters () in
  let sys, ns = timed "system.build" (fun () -> System.build ?journal ~seed conf) in
  let _, _, major1 = Gc.counters () in
  (sys, ns, major1 -. major0)

(* A run call timed, with the simulated ops and minor words it costs. *)
let run_phase k f =
  let ops0 = Kernel.total_ops k in
  let minor0 = Gc.minor_words () in
  let r, ns = timed "kernel.run" f in
  let minor1 = Gc.minor_words () in
  (r, ns, Kernel.total_ops k - ops0, minor1 -. minor0)

let enhanced = Sysconf.uniform Policy.enhanced
let stateless = Sysconf.uniform Policy.stateless

(* ---- workload: suite ----------------------------------------------- *)

let suite_iter ~seed c =
  let sys, build_ns, major = build ~seed enhanced in
  let k = System.kernel sys in
  let halt, run_ns, ops, minor =
    run_phase k (fun () -> System.run sys ~root:Testsuite.driver)
  in
  span "bench.check" (fun () ->
      let r = Testsuite.parse_results (System.log_lines sys) in
      check c
        [ "halt", Kernel.halt_to_string halt;
          "passed", string_of_int r.Testsuite.passed;
          "failed", string_of_int r.Testsuite.failed;
          "total_ops", string_of_int (Kernel.total_ops k);
          "vtime", string_of_int (Kernel.now k) ];
      add_counts ~input:"" (kernel_counts k ~ops));
  { it_wall = 0; it_probe = 0; it_build = [ build_ns ]; it_build_major = major;
    it_run = run_ns; it_ops = ops; it_minor = minor; it_extra = 0 }

(* ---- workload: campaign --------------------------------------------

   A fixed fault set: [sample] fail-stop sites, each injected under
   uniform enhanced and uniform stateless. Every iteration injects one
   (policy, site) pair twice: once through [Campaign.run_one_conf], the
   library entry point whose host cost is [runs_per_s], and once
   decomposed into [System.build] + [System.run] with the same fault
   armed, which splits build from run and exposes the kernel's
   counters. The two outcomes must agree. *)

let campaign_sample = 60

let classify halt (r : Testsuite.results) =
  match halt with
  | Kernel.H_shutdown _ -> Campaign.Shutdown
  | Kernel.H_panic _ | Kernel.H_hang -> Campaign.Crash
  | Kernel.H_completed status ->
    if not r.Testsuite.complete then Campaign.Crash
    else if r.Testsuite.failed > 0 || status <> 0 then Campaign.Fail
    else Campaign.Pass

let campaign_pairs ~seed =
  let sites =
    span "campaign.profile_sites" (fun () ->
        Campaign.profile_sites ~seed Policy.enhanced)
  in
  let chosen =
    span "campaign.select_sites" (fun () ->
        (* The selection seed [Campaign.survivability] derives. *)
        Campaign.select_sites ~seed:(seed + 1) ~sample:campaign_sample sites)
  in
  Array.of_list
    (List.concat_map
       (fun site -> [ ("enhanced", enhanced, site); ("stateless", stateless, site) ])
       chosen)

let campaign_iter ~seed c pairs i =
  let name, conf, site = pairs.(i mod Array.length pairs) in
  let action = Edfi.action_for Edfi.Fail_stop site in
  let outcome, run_one_ns =
    timed "campaign.run_one_conf" (fun () ->
        Campaign.run_one_conf ~seed conf site action)
  in
  let sys, build_ns, major = build ~seed conf in
  let k = System.kernel sys in
  let fired = ref false in
  Kernel.set_fault_hook k
    (Some
       (fun s ->
          if (not !fired) && Kernel.compare_site s site = 0 then begin
            fired := true;
            Some action
          end
          else None));
  let halt, run_ns, ops, minor =
    run_phase k (fun () -> System.run sys ~root:Testsuite.driver)
  in
  span "bench.check" (fun () ->
      let twin = classify halt (Testsuite.parse_results (System.log_lines sys)) in
      (* Both runs of the pair are checked under the pair's key. *)
      let key = name ^ "." ^ Kernel.site_to_string site in
      check c [ key, Campaign.outcome_name outcome; key, Campaign.outcome_name twin ];
      add_counts ~input:key
        (("campaign.outcomes." ^ name ^ "." ^ Campaign.outcome_name outcome, 1)
         :: kernel_counts k ~ops));
  { it_wall = 0; it_probe = 0; it_build = [ build_ns ]; it_build_major = major;
    it_run = run_ns; it_ops = ops; it_minor = minor; it_extra = run_one_ns }

(* ---- workload: storm -----------------------------------------------

   One open-loop Loadgen storm recorded into an in-memory journal, with
   one fail-stop crash of DS at its first in-window reply after the
   middle arrival. The recorded bytes are then indexed, queried twice,
   decoded, and analysed. [it_extra] is the analysis phase's host ns. *)

let storm_requests = 2000
let storm_rate = 20_000

let storm_spec ~seed =
  { Loadgen.l_seed = seed; l_requests = storm_requests; l_rate = storm_rate;
    l_arrival = Loadgen.Poisson; l_mix = Loadgen.default_mix; l_keys = 64;
    l_zipf = 1.1 }

let storm_header ~seed =
  { Journal.jh_version = Journal.version; jh_seed = seed;
    jh_arch = Kernel.Microkernel; jh_spec = "enhanced"; jh_workload = "storm";
    jh_crash = "ds"; jh_crash_count = 1;
    jh_cost_fingerprint = Costs.fingerprint Costs.microkernel }

let arm_mid_crash k (reqs : Loadgen.request array) =
  let mid = reqs.(Array.length reqs / 2).Loadgen.rq_arrival in
  let armed = ref true in
  Kernel.set_fault_hook k
    (Some
       (fun site ->
          if !armed && site.Kernel.site_ep = Endpoint.ds
             && site.Kernel.site_kind = Kernel.Op_reply
             && Kernel.window_is_open k Endpoint.ds && Kernel.now k >= mid
          then begin
            armed := false;
            Some (Kernel.F_crash "storm")
          end
          else None))

let md5 s = Digest.to_hex (Digest.string s)

let exit_digest k (reqs : Loadgen.request array) =
  let b = Buffer.create (16 * Array.length reqs) in
  Array.iter
    (fun r ->
       match Kernel.user_exit k r.Loadgen.rq_ep with
       | Some (st, at) -> Printf.bprintf b "%d:%d;" st at
       | None -> Buffer.add_string b "-;")
    reqs;
  md5 (Buffer.contents b)

let get = function Ok v -> v | Error m -> failwith m

(* The storm's simulation without a journal: build, inject, arm, run.
   Returns the run's host ns and its trajectory summary. *)
let storm_detached ~seed =
  let sys = System.build ~seed enhanced in
  let k = System.kernel sys in
  let reqs = Loadgen.inject k (storm_spec ~seed) in
  arm_mid_crash k reqs;
  let t0 = now_ns () in
  let halt = Kernel.run k in
  let ns = now_ns () - t0 in
  (ns, [ "halt", Kernel.halt_to_string halt;
         "total_ops", string_of_int (Kernel.total_ops k);
         "exit_digest", exit_digest k reqs ])

let storm_iter ~seed c =
  let w = Journal.to_memory (storm_header ~seed) in
  let sys, build_ns, major = build ~journal:w ~seed enhanced in
  let k = System.kernel sys in
  let reqs = span "loadgen.inject" (fun () -> Loadgen.inject k (storm_spec ~seed)) in
  arm_mid_crash k reqs;
  let halt, run_ns, ops, minor = run_phase k (fun () -> Kernel.run k) in
  let o = span "loadgen.collect" (fun () -> Loadgen.collect k reqs) in
  span "journal.close" (fun () -> Journal.close w);
  let bytes = Journal.contents w in
  let t_analyze = now_ns () in
  let index = span "journal.index" (fun () -> get (Journal.build_index bytes)) in
  let records = index.Journal.ix_records in
  let vt = Kernel.now k in
  let lo = vt / 2 in
  let window = Query.All [ Query.Time_ge lo; Query.Time_lt (lo + (vt / 100)) ] in
  let stats = Journal.scan_stats () in
  let q_window =
    span "query.window" (fun () ->
        get (Query.run ~index ~stats ~filter:window
               ~agg:(Query.Group_by Query.D_kind) bytes))
  in
  let q_full =
    span "query.full" (fun () ->
        get (Query.run ~filter:Query.True ~agg:(Query.Group_by Query.D_server) bytes))
  in
  let _, events = span "journal.decode" (fun () -> get (Journal.read_string bytes)) in
  let cp = span "critpath.analyze" (fun () -> Critpath.analyze (Array.to_list events)) in
  let tp = span "tailprof.profile" (fun () -> Tailprof.profile cp.Critpath.cr_requests) in
  let analyze_ns = now_ns () - t_analyze in
  span "bench.check" (fun () ->
      let blame =
        match tp with
        | None -> "none"
        | Some p ->
          Printf.sprintf "n=%d p50=%d p99=%d %s" p.Tailprof.tp_n p.Tailprof.tp_p50
            p.Tailprof.tp_p99
            (String.concat ","
               (List.map
                  (fun (b, v) -> Printf.sprintf "%s:%d" (Tailprof.bucket_name b) v)
                  p.Tailprof.tp_blame))
      in
      let p99 = Loadgen.percentile o.Loadgen.o_latencies ~num:99 ~den:100 in
      check c
        [ "halt", Kernel.halt_to_string halt;
          "total_ops", string_of_int (Kernel.total_ops k);
          "exit_digest", exit_digest k reqs;
          "ok", string_of_int o.Loadgen.o_ok;
          "shed", string_of_int o.Loadgen.o_shed;
          "p99_vcycles", string_of_int p99;
          "records", string_of_int records;
          "journal_digest", md5 bytes;
          "query_window_matched", string_of_int q_window.Query.q_matched;
          "query_window_digest", md5 (Query.to_json q_window);
          "query_full_matched", string_of_int q_full.Query.q_matched;
          "query_full_digest", md5 (Query.to_json q_full);
          "critpath_requests", string_of_int (List.length cp.Critpath.cr_requests);
          "tailprof", blame ];
      add_counts ~input:""
        (kernel_counts k ~ops
          @ [ "loadgen.ok", o.Loadgen.o_ok;
              "loadgen.shed", o.Loadgen.o_shed;
              "loadgen.p99_vcycles", p99;
              "journal.records", records;
              "critpath.requests", List.length cp.Critpath.cr_requests;
              (* Ratios kept as parts per million until printed. *)
              "journal.bytes_per_event_ppm",
              String.length bytes * 1_000_000 / max 1 records;
              "query.window_decoded_ratio_ppm",
              stats.Journal.sc_records_decoded * 1_000_000 / max 1 records ]));
  { it_wall = 0; it_probe = 0; it_build = [ build_ns ]; it_build_major = major;
    it_run = run_ns; it_ops = ops; it_minor = minor; it_extra = analyze_ns }

(* ---- host-speed probe ----------------------------------------------

   On a shared host, other tenants' memory traffic moves every host time
   here by up to 1.5x, in phases that last from seconds to minutes,
   longer than a run. A fixed memory-streaming probe, owned by the
   benchmark and run just before each iteration, slows down with them:
   across runs, normalizing by it cuts the spread of the suite's
   run_ns_per_op about threefold and the storm's about twofold. The
   end-to-end host times are therefore reported at a reference speed:
   each iteration's times are scaled by [probe_ref_ns / probe]. The raw
   times and the probe are printed beside them. *)

let probe_words = 1 lsl 20  (* 8 MB *)

(* The probe's median on a 2-vCPU Xeon guest with 105 MB of shared L3,
   in a quiet phase. *)
let probe_ref_ns = 4.0e6

(* Outside the OCaml heap, so that [peak_heap_mb] stays the program's. *)
let probe_array =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words in
     Bigarray.Array1.fill a 1;
     a)

let probe () =
  let a = Lazy.force probe_array in
  let t0 = now_ns () in
  let sum = ref 0 in
  for _ = 1 to 2 do
    for i = 0 to probe_words - 1 do sum := !sum + Bigarray.Array1.unsafe_get a i done
  done;
  ignore (Sys.opaque_identity !sum);
  now_ns () - t0

(* ---- the measurement loop ------------------------------------------

   Iteration 0 is warm-up: run and checked, never timed. Then rounds run
   until [seconds] have passed, in whole passes of [pass] rounds (the
   campaign's pass visits every pair once, so every run measures the
   same mix of outcomes). An untraced run makes one iteration per
   round. A traced run makes two on the same input, traced then
   untraced, so span cost ([trace.overhead_pct]) is a like-for-like
   ratio; the storm adds a journal-detached run of the same storm to
   each round ([journal.capture_overhead_pct]). *)

type round = {
  rd_main : iter;             (* traced when tracing, else the only one *)
  rd_plain : iter option;     (* untraced twin of a traced round *)
  rd_detached : int option;   (* storm: Kernel.run ns without journal *)
}

let safe c f = try Some (f ()) with e -> fail_iteration c e; None

let run_iteration c ~traced ~slot f input =
  let probe_ns = probe () in
  tracing := traced;
  cur_iter := slot;
  let t0 = now_ns () in
  let r = safe c (fun () -> f input) in
  let wall = now_ns () - t0 in
  tracing := false;
  Option.map (fun it -> { it with it_wall = wall; it_probe = probe_ns }) r

let measure c ~trace ~seconds ?(pass = 1) ?detached f =
  ignore (run_iteration c ~traced:false ~slot:0 f 0);
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let rounds = ref [] and n = ref 0 and slot = ref 1 in
  while !n = 0 || !n mod pass <> 0 || now_ns () < deadline do
    let input = !n + 1 in
    let main = run_iteration c ~traced:trace ~slot:!slot f input in
    incr slot;
    let plain =
      if trace then begin
        let r = run_iteration c ~traced:false ~slot:!slot f input in
        incr slot;
        r
      end
      else None
    in
    let det =
      match detached with
      | Some d when trace ->
        Option.map
          (fun (ns, obs) -> check c obs; ns)
          (safe c d)
      | _ -> None
    in
    (match main with
     | Some m ->
       rounds := { rd_main = m; rd_plain = plain; rd_detached = det } :: !rounds
     | None -> ());
    incr n
  done;
  List.rev !rounds

(* ---- reporting ----------------------------------------------------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
          (* A metric with no samples (every iteration failed) reads 0;
             the run is then reported incorrect anyway. *)
          Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
            (if Float.is_finite v then v else 0.) unit)
       metrics)

let write_spans workload =
  let dir = "perfbench/out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/%s.spans.json" dir workload in
  let oc = open_out path in
  let all = List.rev !spans in
  let base = match all with [] -> 0 | s :: _ -> s.sp_t0 in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
       Printf.fprintf oc "%s{\"name\": %S, \"parent\": %d, \"start_ns\": %d, \"end_ns\": %d}\n"
         (if i = 0 then "  " else ", ") s.sp_name s.sp_iter (s.sp_t0 - base)
         (s.sp_t1 - base))
    all;
  output_string oc "]\n";
  close_out oc;
  path

(* Every per-layer span name, so each workload prints the same set. *)
let layer_spans =
  [ "system.build"; "kernel.run"; "campaign.run_one_conf"; "loadgen.inject";
    "loadgen.collect"; "journal.close"; "journal.index"; "query.window";
    "query.full"; "journal.decode"; "critpath.analyze"; "tailprof.profile";
    "bench.check" ]

let count_names =
  [ "kernel.ops", "count"; "kernel.messages", "count"; "kernel.vtime", "cycles";
    "kernel.crashes", "count"; "kernel.restarts", "count";
    "checkpoint.window_opens", "count"; "checkpoint.logged_stores", "count";
    "checkpoint.deduped_stores", "count"; "checkpoint.rollback_bytes", "bytes";
    "checkpoint.restore_bytes_saved", "bytes"; "loadgen.ok", "count";
    "loadgen.shed", "count"; "loadgen.p99_vcycles", "cycles";
    "journal.records", "count"; "critpath.requests", "count" ]

let per_layer rounds =
  let wall = ref 0 in
  List.iter (fun r -> wall := !wall + r.rd_main.it_wall) rounds;
  let self = Hashtbl.create 16 in
  let total_spans = ref 0 in
  List.iter
    (fun s ->
       if s.sp_iter > 0 then begin
         let d = s.sp_t1 - s.sp_t0 in
         total_spans := !total_spans + d;
         Hashtbl.replace self s.sp_name
           (d + Option.value ~default:0 (Hashtbl.find_opt self s.sp_name))
       end)
    !spans;
  let wall = float_of_int (max 1 !wall) in
  let pct name =
    100. *. float_of_int (Option.value ~default:0 (Hashtbl.find_opt self name)) /. wall
  in
  let mains = List.map (fun r -> r.rd_main) rounds in
  let ratios =
    List.filter_map
      (fun r ->
         Option.map
           (fun p -> float_of_int r.rd_main.it_wall /. float_of_int p.it_wall)
           r.rd_plain)
      rounds
  in
  let capture =
    List.filter_map
      (fun r ->
         Option.map (fun d -> float_of_int r.rd_main.it_run /. float_of_int d)
           r.rd_detached)
      rounds
  in
  let count name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) in
  [ "system.build_s", fmedian_int (List.concat_map (fun i -> i.it_build) mains) /. 1e9, "s";
    "system.build_major_words", median (List.map (fun i -> i.it_build_major) mains), "words";
    "kernel.run_s", fmedian_int (List.map (fun i -> i.it_run) mains) /. 1e9, "s" ]
  @ List.map (fun n -> (n ^ "_pct", pct n, "%")) layer_spans
  @ List.map (fun (n, u) -> (n, count n, u)) count_names
  @ List.concat_map
    (fun p ->
       List.map
         (fun o ->
            let n = Printf.sprintf "campaign.outcomes.%s.%s" p o in
            (n, count n, "count"))
         [ "pass"; "fail"; "shutdown"; "crash" ])
    [ "enhanced"; "stateless" ]
  @ [ "journal.bytes_per_event", count "journal.bytes_per_event_ppm" /. 1e6, "bytes";
      "journal.capture_overhead_pct",
      (if capture = [] then 0. else 100. *. (median capture -. 1.)), "%";
      "query.window_decoded_ratio", count "query.window_decoded_ratio_ppm" /. 1e6, "ratio";
      "trace.overhead_pct", (if ratios = [] then 0. else 100. *. (median ratios -. 1.)), "%";
      "trace.residual_pct",
      100. *. (wall -. float_of_int !total_spans) /. wall, "%" ]

let end_to_end ~workload rounds =
  let mains = List.map (fun r -> r.rd_main) rounds in
  (* [scaled] puts an iteration's host ns at the reference speed. *)
  let scale i = probe_ref_ns /. float_of_int i.it_probe in
  let values ~scaled f =
    List.concat_map
      (fun i -> List.map (fun v -> if scaled then v *. scale i else v) (f i))
      mains
  in
  let one f i = [ float_of_int (f i) ] in
  let per_op f i = [ f i /. float_of_int (max 1 i.it_ops) ] in
  let builds ~scaled = values ~scaled (fun i -> List.map float_of_int i.it_build) in
  let ns_per_op ~scaled = values ~scaled (per_op (fun i -> float_of_int i.it_run)) in
  (* The campaign's rate is that of its [Campaign.run_one_conf] calls;
     whole passes keep their mix of pairs the same in every run. *)
  let run_ns ~scaled =
    values ~scaled (one (fun i -> if workload = "campaign" then i.it_extra else i.it_wall))
  in
  (* Sample counts and the tail, for the human-readable lines: p90 is
     shown once at least ten samples lie beyond it. *)
  let summary label scale values =
    let a = Array.of_list values in
    Array.sort compare a;
    let n = Array.length a in
    Printf.printf "  %-28s n=%-5d median=%.4f%s\n" label n (median values /. scale)
      (if n >= 100 then Printf.sprintf " p90=%.4f" (a.(n * 9 / 10) /. scale) else "")
  in
  summary "probe_ms" 1e6 (values ~scaled:false (one (fun i -> i.it_probe)));
  summary "raw build_ms" 1e6 (builds ~scaled:false);
  summary "raw run_ns_per_op" 1. (ns_per_op ~scaled:false);
  summary (if workload = "campaign" then "raw run_one_conf_ms" else "raw iteration_ms") 1e6
    (run_ns ~scaled:false);
  if workload = "storm" then
    summary "raw analyze_ms" 1e6 (values ~scaled:false (one (fun i -> i.it_extra)));
  [ "setup_s", median (builds ~scaled:true) /. 1e9, "s";
    "run_ns_per_op", median (ns_per_op ~scaled:true), "ns";
    "minor_words_per_op", median (values ~scaled:false (per_op (fun i -> i.it_minor))), "words";
    "runs_per_s", 1e9 /. median (run_ns ~scaled:true), "1/s";
    "peak_heap_mb", peak_heap_mb (), "MB" ]

let print_table workload rounds =
  let by = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let l = Option.value ~default:[] (Hashtbl.find_opt by s.sp_name) in
       Hashtbl.replace by s.sp_name ((s.sp_t1 - s.sp_t0) :: l))
    !spans;
  Printf.printf "workload %s: %d rounds\n" workload (List.length rounds);
  if !spans <> [] then begin
    Printf.printf "  %-24s %8s %12s %12s\n" "span" "calls" "total_s" "median_ms";
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by []
    |> List.sort compare
    |> List.iter (fun (k, v) ->
        Printf.printf "  %-24s %8d %12.6f %12.4f\n" k (List.length v)
          (float_of_int (List.fold_left ( + ) 0 v) /. 1e9)
          (fmedian_int v /. 1e6))
  end

(* ---- main ---------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref false in
  let emit = ref false in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "suite|campaign|storm";
      "--seed", Arg.Set_int seed, "N workload seed (default 42)";
      "--seconds", Arg.Set_int seconds, "S measurement window (default 10)";
      "--trace", Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"),
      " end-to-end (0) or per-layer (1) metrics";
      "--emit-reference", Arg.Set emit,
      " run one pass and print reference lines for the seed" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let seed = !seed and trace = !trace in
  let seconds = if !emit then 0 else !seconds in
  let c = checker ~seed ~workload:!workload in
  let rounds =
    match !workload with
    | "suite" ->
      measure c ~trace ~seconds (fun _ -> suite_iter ~seed c)
    | "campaign" ->
      tracing := trace;
      let pairs = campaign_pairs ~seed in
      tracing := false;
      let n = Array.length pairs in
      (* Input 0 (warm-up) is pair 0; input i is pair (i - 1) mod n, so
         the first pass after warm-up covers every pair once. *)
      measure c ~trace ~seconds ~pass:n (fun input ->
          campaign_iter ~seed c pairs (max 0 (input - 1)))
    | "storm" ->
      measure c ~trace ~seconds ~detached:(fun () -> storm_detached ~seed)
        (fun _ -> storm_iter ~seed c)
    | w ->
      Printf.eprintf "unknown workload %S (suite, campaign, storm)\n" w;
      exit 2
  in
  if !emit then begin
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.first []
    |> List.sort compare
    |> List.iter (fun (k, v) -> Printf.printf "%d %s.%s %s\n" seed !workload k v);
    exit (if c.failed = 0 then 0 else 1)
  end;
  print_table !workload rounds;
  let metrics =
    if trace then begin
      Printf.printf "spans: %s\n" (write_spans !workload);
      per_layer rounds
    end
    else end_to_end ~workload:!workload rounds
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %16.6f %s\n" n v u) metrics;
  Printf.printf "failed_ratio %d/%d\n" c.failed c.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (c.failed = 0) c.attempted c.failed (json_metrics metrics);
  exit (if c.failed = 0 then 0 else 1)
