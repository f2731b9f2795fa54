(* Telemetry-engine benchmark: what vtime-sampled series cost on the
   kernel's clock-advance path, and whether campaign rollups stay
   deterministic under the domain pool.

   Run with [dune exec bench/main.exe timeseries]. Gates:
     sampling_zero_alloc     one Timeseries.sample tick over the full
                             standard kernel source set allocates
                             nothing (minor-word delta over 100k ticks)
     telemetry_overhead      the sampling engine's cost on a workgen
                             run — the run's worth of per-tick source
                             reads plus series setup, as a fraction of
                             the cycle-counted run — stays under
                             [max_overhead_pct]. The reference is the cycle-counted
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
let per_sample_probe cfg ts base =
  let ops = 100_000 in
  let loop () =
    for i = 0 to ops - 1 do
      Timeseries.sample ts (base + (i * sample_interval))
    done
  in
  best (sample cfg ~budget_scale:0. ~min_rounds:12 [ timed loop ]) 0
  /. float_of_int ops

(* One-time series setup cost a telemetered run pays before its first
   tick: create, register [n] sources, freeze the flat arrays and
   preallocate the rings (first sample). *)
let setup_probe cfg n =
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
  best (sample cfg ~budget_scale:0. ~min_rounds:16 [ timed mk ]) 0

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

(* Maximum tolerated sampling cost as a share of the cycle-counted
   run, in percent. The allocation and rollup gates are exact at any
   budget; this one is relaxed in the smoke run because runtest
   executes it beside the rest of the suite. *)
let max_overhead_pct = { strict = 3.; smoke = 25. }

let run cfg =
  heading "Telemetry engine: sampling allocation, attach overhead, rollups";
  (* ---- allocation ---- *)
  let ops, n_sources, run_samples, words, ts, probe_base =
    sampling_alloc_probe ()
  in
  Printf.printf
    "sampling storm: %d ticks x %d sources -> %.0f minor words allocated\n"
    ops n_sources words;
  (* ---- sampling cost (the gated quantity) ---- *)
  let ps_ns = per_sample_probe cfg ts probe_base in
  let setup_ns = setup_probe cfg n_sources in
  (* ---- wall time ---- *)
  let s =
    sample cfg
      [ timed run_plain;
        timed run_cycle_counted;
        timed (fun () -> ignore (run_telemetered () : Timeseries.t)) ]
  in
  let bare_ns = best s 0 and base_ns = best s 1 and tele_ns = best s 2 in
  let model_ns = setup_ns +. (float_of_int run_samples *. ps_ns) in
  let overhead_pct = 100. *. model_ns /. base_ns in
  let e2e_pct = pct_over ~base:base_ns tele_ns in
  let e2e_spread = spread_pct s ~base:1 2 in
  Printf.printf
    "sampling cost: %.1f ns/tick x %d ticks + %.3f ms setup = %.3f ms\n\
    \  = %.2f%% of the cycle-counted run (interval %d, %d sources)\n"
    ps_ns run_samples (setup_ns /. 1e6) (model_ns /. 1e6) overhead_pct
    sample_interval n_sources;
  Printf.printf
    "whole-run wall time (informational; best of %d interleaved rounds):\n\
    \  bare               %.2f ms\n\
    \  cycle counts only  %.2f ms (%+.2f%% vs bare; profiler_bench's gate)\n\
    \  telemetry attached %.2f ms (%+.2f%% vs cycle-counted; per-round\n\
    \                     IQR [%+.1f, %+.1f] — the noise floor on a\n\
    \                     contended host exceeds the gate, hence the\n\
    \                     tight-loop gate above)\n"
    s.rounds (bare_ns /. 1e6) (base_ns /. 1e6)
    (pct_over ~base:bare_ns base_ns)
    (tele_ns /. 1e6) e2e_pct (fst e2e_spread) (snd e2e_spread);
  (* ---- rollup identity ---- *)
  let a1, a4 = rollup_probe () in
  let identical = String.equal a1 a4 in
  Printf.printf
    "campaign rollup artifact: %d bytes at jobs:1, %d bytes at jobs:4 — %s\n"
    (String.length a1) (String.length a4)
    (if identical then "byte-identical" else "DIFFER");
  let threshold = limit cfg max_overhead_pct in
  { fields =
      [ ("workload_seed", Int workload_seed);
        ("sampling",
         Obj
           [ ("ticks", Int ops);
             ("sources", Int n_sources);
             ("interval", Int sample_interval);
             ("minor_words", Float words) ]);
        ("cost",
         Obj
           [ ("per_sample_ns", Float ps_ns);
             ("setup_ns", Float setup_ns);
             ("samples_per_run", Int run_samples);
             ("overhead_pct", Float overhead_pct);
             ("max_overhead_pct", Float threshold) ]);
        ("wall",
         Obj
           [ ("bare_ns", Float bare_ns);
             ("cycle_counted_ns", Float base_ns);
             ("telemetered_ns", Float tele_ns);
             ("end_to_end_pct", Float e2e_pct);
             ("end_to_end_spread_pct", spread e2e_spread) ]);
        ("rollup",
         Obj
           [ ("sample", Int 4);
             ("jobs_a", Int 1);
             ("jobs_b", Int 4);
             ("bytes", Int (String.length a1));
             ("identical", Bool identical) ]) ];
    gates =
      [ (* 64-word slack: Gc.minor_words itself and the probe closure
           may box a float or two; the 100k ticks themselves must add
           nothing. *)
        ("sampling_zero_alloc", words < 64.);
        ("telemetry_overhead", overhead_pct < threshold);
        ("rollup_identity", identical) ] }
