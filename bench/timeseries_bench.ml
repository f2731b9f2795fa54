(* Telemetry-engine benchmark: what vtime-sampled series cost on the
   kernel's clock-advance path, and whether campaign rollups stay
   deterministic under the domain pool.

   Run with [dune exec bench/main.exe timeseries]. Emits a JSON report
   (path from OSIRIS_TIMESERIES_BENCH_JSON, default
   BENCH_timeseries.json) and exits non-zero when a gate fails, so a
   small-budget run doubles as a CI smoke test:

     OSIRIS_BENCH_MS            per-variant wall budget in ms (default 200)
     OSIRIS_TIMESERIES_BENCH_JSON
                                output path (default BENCH_timeseries.json)
     OSIRIS_TIMESERIES_MAX_OVERHEAD_PCT
                                maximum tolerated telemetered-run
                                slowdown over the bare run, in percent
                                (default 3)

   Gates:
     sampling_zero_alloc     one Timeseries.sample tick over the full
                             standard kernel source set allocates
                             nothing (minor-word delta over 100k ticks)
     telemetry_overhead      the sampling engine's cost on a workgen
                             run — the run's worth of per-tick source
                             reads plus series setup, as a fraction of
                             the cycle-counted run — stays under the
                             gate. The reference is the cycle-counted
                             run because attaching telemetry turns
                             cycle counts on, and their cost (~2%
                             here) is the profiler's separately gated
                             feature (bench/profiler_bench.ml); this
                             gate isolates what the sampling engine
                             itself adds on top. The cost is computed
                             from a tight-loop measurement of
                             Timeseries.sample over the real frozen
                             source set (deterministic to a few ns)
                             rather than from the difference of two
                             whole-run timings: on a contended host
                             the run-to-run noise floor exceeds the
                             gate itself (compare calibration.ideal
                             in BENCH_parfan.json), so the end-to-end
                             deltas are reported as informational
                             context instead
     rollup_identity         the campaign rollup artifact
                             (Campaign.rollup_to_json, pool section
                             omitted) is byte-identical at jobs:1 and
                             jobs:4 *)

open Harness

let workload_seed = 42
let sample_interval = 4096

(* Ring capacity for the timed runs: the workgen run takes ~171
   samples at this interval, so 256 retains every one of them. (The
   4096 default is sized for long campaigns; on a 2.5 ms run its
   ~900 KB of ring preallocation would dominate the overhead
   measurement without buying anything.) *)
let ring_capacity = 256

(* The measured workload: the same generated mixed workload the obs
   bench uses — every server sees traffic. Systems are single-use, so
   each sample rebuilds one; the build cost is identical across
   variants (the telemetered variant additionally pays Timeseries
   ring preallocation, which is part of what "attaching telemetry"
   costs and is what the gate is about). *)

let run_plain () =
  let sys = System.build ~seed:workload_seed (Sysconf.uniform Policy.enhanced) in
  match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
  | Kernel.H_completed _ -> ()
  | halt ->
    failwith ("timeseries bench workload halted: " ^ Kernel.halt_to_string halt)

(* The overhead baseline: same run, cycle counts on, no sampler. *)
let run_cycle_counted () =
  let sys = System.build ~seed:workload_seed (Sysconf.uniform Policy.enhanced) in
  Kernel.enable_cycle_counts (System.kernel sys);
  match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
  | Kernel.H_completed _ -> ()
  | halt ->
    failwith ("timeseries bench workload halted: " ^ Kernel.halt_to_string halt)

let run_telemetered () =
  let ts = Timeseries.create ~interval:sample_interval ~capacity:ring_capacity () in
  let sys =
    System.build ~seed:workload_seed ~telemetry:ts
      (Sysconf.uniform Policy.enhanced)
  in
  match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
  | Kernel.H_completed _ -> ts
  | halt ->
    failwith ("timeseries bench workload halted: " ^ Kernel.halt_to_string halt)

(* ------------------------------------------------------------------ *)

(* Allocation probe: run the workload once with telemetry attached so
   the source set is the real frozen kernel set (counters, run queue,
   per-server inbox/alive, per-phase cycles), then drive the sampling
   hot path directly — 100k manual ticks past the end of the run.
   Ring wraparound is exercised (100k >> capacity), delta sources keep
   updating their last-value slots, and none of it may allocate. *)
let sampling_alloc_probe () =
  let ts = run_telemetered () in
  let n_sources = Timeseries.n_sources ts in
  let run_samples = Timeseries.samples_taken ts in
  let base =
    Timeseries.time_at ts (Timeseries.retained ts - 1) + sample_interval
  in
  let ops = 100_000 in
  let storm () =
    for i = 0 to ops - 1 do
      Timeseries.sample ts (base + (i * sample_interval))
    done
  in
  (ops, n_sources, run_samples, minor_words_of storm, ts, base)

(* Per-tick cost of the sampling hot path on the same frozen source
   set, best of a fixed number of tight-loop repetitions. The loop is
   deterministic work over preallocated arrays, so its best-of is
   stable to a few ns where whole-run deltas on this class of host
   are not. *)
let per_sample_probe ts base =
  let ops = 100_000 in
  let loop () =
    for i = 0 to ops - 1 do
      Timeseries.sample ts (base + (i * sample_interval))
    done
  in
  loop ();
  (* warm *)
  let best = ref infinity in
  for _ = 1 to 12 do
    let s = now_ns () in
    loop ();
    let d = now_ns () -. s in
    if d < !best then best := d
  done;
  !best /. float_of_int ops

(* One-time series setup cost a telemetered run pays before its first
   tick: create, register [n] sources, freeze the flat arrays and
   preallocate the rings (first sample). *)
let setup_probe n =
  let mk () =
    let ts =
      Timeseries.create ~interval:sample_interval ~capacity:ring_capacity ()
    in
    for i = 0 to n - 1 do
      Timeseries.add_source ts
        ~name:("setup.src" ^ string_of_int i)
        ~kind:(if i land 1 = 0 then Timeseries.Gauge else Timeseries.Delta)
        (fun () -> i)
    done;
    Timeseries.sample ts sample_interval
  in
  mk ();
  (* warm *)
  let best = ref infinity in
  for _ = 1 to 16 do
    let s = now_ns () in
    mk ();
    let d = now_ns () -. s in
    if d < !best then best := d
  done;
  !best

(* Rollup determinism probe: a small sampled fail-stop campaign under
   two specs, fanned out at jobs:1 (the sequential oracle) and jobs:4
   (more workers than this container has cores — maximal reordering
   pressure). The artifact must match byte for byte; only the optional
   pool section, omitted here, may vary. *)
let rollup_probe () =
  let confs =
    [ Sysconf.uniform Policy.enhanced; Sysconf.uniform Policy.pessimistic ]
  in
  let artifact jobs =
    let _rows, ro =
      Campaign.survivability_matrix_rollup ~sample:4 ~jobs Edfi.Fail_stop confs
    in
    Campaign.rollup_to_json ro
  in
  let a1 = artifact 1 in
  let a4 = artifact 4 in
  (a1, a4)

let json_bool b = if b then "true" else "false"

let run () =
  Printf.printf
    "\n================================================================\n\
     Telemetry engine: sampling allocation, attach overhead, rollups\n\
     ================================================================\n";
  (* ---- allocation ---- *)
  let ops, n_sources, run_samples, words, ts, probe_base =
    sampling_alloc_probe ()
  in
  Printf.printf
    "sampling storm: %d ticks x %d sources -> %.0f minor words allocated\n"
    ops n_sources words;
  (* ---- sampling cost (the gated quantity) ---- *)
  let ps_ns = per_sample_probe ts probe_base in
  let setup_ns = setup_probe n_sources in
  (* ---- wall time ---- *)
  let best, rounds =
    best_ns_interleaved
      [ ("bare", fun () -> run_plain ());
        ("cycle-counted", fun () -> run_cycle_counted ());
        ("telemetered", fun () -> ignore (run_telemetered () : Timeseries.t)) ]
  in
  let bare_ns = best.(0) and base_ns = best.(1) and tele_ns = best.(2) in
  let model_ns = setup_ns +. (float_of_int run_samples *. ps_ns) in
  let overhead_pct = 100. *. model_ns /. base_ns in
  let e2e_pct = 100. *. (tele_ns -. base_ns) /. base_ns in
  Printf.printf
    "sampling cost: %.1f ns/tick x %d ticks + %.3f ms setup = %.3f ms\n\
    \  = %.2f%% of the cycle-counted run (interval %d, %d sources)\n"
    ps_ns run_samples (setup_ns /. 1e6) (model_ns /. 1e6) overhead_pct
    sample_interval n_sources;
  Printf.printf
    "whole-run wall time (informational; best of %d interleaved rounds):\n\
    \  bare               %.2f ms\n\
    \  cycle counts only  %.2f ms (%+.2f%% vs bare; profiler_bench's gate)\n\
    \  telemetry attached %.2f ms (%+.2f%% vs cycle-counted; noise floor\n\
    \                     on a contended host exceeds the gate, hence the\n\
    \                     tight-loop gate above)\n"
    rounds (bare_ns /. 1e6) (base_ns /. 1e6)
    (100. *. (base_ns -. bare_ns) /. bare_ns)
    (tele_ns /. 1e6) e2e_pct;
  (* ---- rollup identity ---- *)
  let a1, a4 = rollup_probe () in
  let identical = String.equal a1 a4 in
  Printf.printf
    "campaign rollup artifact: %d bytes at jobs:1, %d bytes at jobs:4 — %s\n"
    (String.length a1) (String.length a4)
    (if identical then "byte-identical" else "DIFFER");
  (* ---- gates ---- *)
  let threshold = env_float "OSIRIS_TIMESERIES_MAX_OVERHEAD_PCT" ~default:3. in
  (* 64-word slack: Gc.minor_words itself and the probe closure may
     box a float or two; the 100k ticks themselves must add nothing. *)
  let alloc_ok = words < 64. in
  let overhead_ok = overhead_pct < threshold in
  let gates =
    [ ("sampling_zero_alloc", alloc_ok);
      ("telemetry_overhead", overhead_ok);
      ("rollup_identity", identical) ]
  in
  (* ---- JSON report ---- *)
  let buf = Buffer.create 1024 in
  let f = Printf.bprintf in
  f buf "{\n";
  f buf "  \"bench\": \"timeseries\",\n";
  f buf "  \"budget_ms\": %.0f,\n" (budget_ns () /. 1e6);
  f buf "  \"workload_seed\": %d,\n" workload_seed;
  f buf
    "  \"sampling\": {\"ticks\": %d, \"sources\": %d, \"interval\": %d,\n\
    \    \"minor_words\": %.0f},\n"
    ops n_sources sample_interval words;
  f buf
    "  \"cost\": {\"per_sample_ns\": %.1f, \"setup_ns\": %.0f,\n\
    \    \"samples_per_run\": %d, \"overhead_pct\": %.3f,\n\
    \    \"max_overhead_pct\": %.1f},\n"
    ps_ns setup_ns run_samples overhead_pct threshold;
  f buf
    "  \"wall\": {\"bare_ns\": %.0f, \"cycle_counted_ns\": %.0f,\n\
    \    \"telemetered_ns\": %.0f, \"end_to_end_pct\": %.3f},\n"
    bare_ns base_ns tele_ns e2e_pct;
  f buf
    "  \"rollup\": {\"sample\": 4, \"jobs_a\": 1, \"jobs_b\": 4,\n\
    \    \"bytes\": %d, \"identical\": %s},\n"
    (String.length a1) (json_bool identical);
  f buf "  \"gates\": {%s}\n"
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "\"%s\": %s" n (json_bool ok))
          gates));
  f buf "}\n";
  let path = json_path "OSIRIS_TIMESERIES_BENCH_JSON" ~default:"BENCH_timeseries.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  if failed <> [] then begin
    List.iter
      (fun (n, _) ->
         Printf.eprintf "timeseries bench: gate FAILED: %s\n" n)
      failed;
    exit 1
  end
  else Printf.printf "all %d gates passed\n" (List.length gates)
