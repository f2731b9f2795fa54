(* Parallel campaign engine benchmark: what the Parfan domain pool
   buys, and proof it changes nothing but wall time.

   The full survivability campaign (Tables II/III shape: every policy
   x every profiled fault site, one isolated kernel per run) is
   executed twice — sequentially (jobs:1, the oracle) and on the pool
   — and the result rows must be structurally byte-identical. Wall
   times give the speedup. Because hosts differ wildly in how well
   OCaml 5 domains scale on allocation-heavy work (stop-the-world
   minor collections; container CPU quotas; hyperthread siblings), the
   speedup gate is calibrated: a raw Domain.spawn static partition of
   a synthetic allocation-heavy probe — no queue, no pool — measures
   what this host can do at best, and the pool is held to a fraction
   of that, capped at the absolute target. On a real 4-core machine
   the calibration saturates and the gate is the paper-style >= 3x at
   4 domains; on a throttled box the gate still catches a serialized
   pool without failing on physics.

   Run with [dune exec bench/main.exe parfan]; the campaign samples
   OSIRIS_SAMPLE sites per policy (the smoke run: 6). Gates:
     parfan_identical   jobs:1 and jobs:N produce structurally
                        byte-identical campaign rows (Marshal equality)
     parfan_isolation   per-run kernel counters are identical whether a
                        run executes alone or beside concurrent domains
     parfan_speedup     campaign speedup >= min([min_speedup],
                        [efficiency] x calibrated ideal scaling) *)

open Harness

(* Pool width under test. *)
let jobs = 4

(* Absolute speedup target: the paper-style >= 3x at 4 domains. *)
let min_speedup = 3.

(* Fraction of the calibrated ideal scaling the pool must reach. *)
let efficiency = 0.7

(* ---- calibration: the host's ideal domain scaling ----------------- *)

(* Allocation profile comparable to a simulation run: short-lived cons
   cells and tuples, nothing surviving. One chunk is ~10 ms. *)
let probe_chunk () =
  let acc = ref [] in
  for i = 1 to 300_000 do
    acc := (i, i + 1) :: !acc;
    if i land 4095 = 0 then acc := []
  done;
  ignore (Sys.opaque_identity !acc)

let bump_nursery () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

(* An ideal pool: static partition over raw domains, no queue, same
   per-domain nursery as Parfan workers. Deliberately does NOT go
   through Parfan — it is the oracle the pool is measured against, so
   a regression that serializes the pool cannot also slow the oracle. *)
let calibrate jobs =
  let per_dom = 4 in
  let (), seq_ns =
    time (fun () ->
        for _ = 1 to jobs * per_dom do
          probe_chunk ()
        done)
  in
  let (), par_ns =
    time (fun () ->
        let doms =
          List.init jobs (fun _ ->
              Domain.spawn (fun () ->
                  bump_nursery ();
                  for _ = 1 to per_dom do
                    probe_chunk ()
                  done))
        in
        List.iter Domain.join doms)
  in
  (seq_ns, par_ns, seq_ns /. par_ns)

(* ---- isolation: per-run counters beside concurrent domains -------- *)

let counter_probe () =
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  let halt = System.run sys ~root:Testsuite.driver in
  let k = System.kernel sys in
  ( halt,
    List.map
      (fun ep ->
         let s = Kernel.server_stats k ep in
         ( s.Kernel.ss_name, s.Kernel.ss_ops_total, s.Kernel.ss_busy_cycles,
           s.Kernel.ss_window_opens, s.Kernel.ss_restarts ))
      System.core_servers )

let run cfg =
  heading "Parfan: parallel survivability campaign vs the sequential oracle";
  let sample = cfg.sample in
  let seed = 42 in
  (* ---- isolation ---- *)
  let alone = counter_probe () in
  let d1 = Domain.spawn counter_probe and d2 = Domain.spawn counter_probe in
  let beside1 = Domain.join d1 and beside2 = Domain.join d2 in
  let isolation = alone = beside1 && alone = beside2 in
  Printf.printf "per-run counters beside concurrent domains: %s\n"
    (if isolation then "identical" else "DIVERGED");
  (* ---- the campaign, sequential then pooled ---- *)
  let campaign j stats =
    Campaign.survivability_matrix ~seed ~sample ~jobs:j ?stats Edfi.Fail_stop
      (List.map Sysconf.uniform Policy.all_evaluated)
  in
  let seq_rows, seq_ns = time (fun () -> campaign 1 None) in
  let pool_stats = ref None in
  let par_rows, par_ns =
    time (fun () -> campaign jobs (Some (fun s -> pool_stats := Some s)))
  in
  let n_runs =
    List.fold_left (fun acc (r : Campaign.row) -> acc + r.Campaign.runs) 0
      seq_rows
  in
  let identical =
    Marshal.to_string seq_rows [] = Marshal.to_string par_rows []
  in
  let speedup = seq_ns /. par_ns in
  Printf.printf
    "campaign: %d policies x %s sites = %d runs\n\
    \  sequential (jobs 1)   %8.2f s\n\
    \  pool       (jobs %d)   %8.2f s  -> speedup %.2fx\n"
    (List.length seq_rows)
    (if sample = 0 then "all" else string_of_int sample)
    n_runs (seq_ns /. 1e9) jobs (par_ns /. 1e9) speedup;
  (match !pool_stats with
   | Some s -> Printf.printf "  %s\n" (Parfan.speedup_line s)
   | None -> ());
  Printf.printf "  rows %s\n"
    (if identical then "byte-identical to the oracle" else "DIVERGED");
  (* ---- calibrated speedup gate ---- *)
  let cal_seq_ns, cal_par_ns, calib = calibrate jobs in
  let threshold = Float.min min_speedup (efficiency *. calib) in
  let speedup_ok = speedup >= threshold in
  Printf.printf
    "calibration (raw domains, %d-way static partition): %.2fx ideal\n\
    \  gate: speedup %.2fx >= min(%.1f, %.2f x %.2f) = %.2fx -> %s\n"
    jobs calib speedup min_speedup efficiency calib threshold
    (if speedup_ok then "ok" else "FAILED");
  let pool =
    match !pool_stats with
    | None -> []
    | Some s ->
      [ ("pool",
         Obj
           [ ("tasks", Int s.Parfan.pf_tasks);
             ("runs_per_sec", Float (Parfan.runs_per_sec s));
             ("imbalance_pct", Float (Parfan.imbalance_pct s));
             ("workers",
              List
                (Array.to_list
                   (Array.map
                      (fun w ->
                         Obj
                           [ ("tasks", Int w.Parfan.w_tasks);
                             ("busy_ms", Float (w.Parfan.w_busy_ns /. 1e6)) ])
                      s.Parfan.pf_workers))) ]) ]
  in
  { fields =
      [ ("seed", Int seed);
        ("sample", Int sample);
        ("jobs", Int jobs);
        ("runs", Int n_runs);
        ("wall",
         Obj
           [ ("seq_ns", Float seq_ns);
             ("par_ns", Float par_ns);
             ("speedup", Float speedup) ]);
        ("calibration",
         Obj
           [ ("seq_ns", Float cal_seq_ns);
             ("par_ns", Float cal_par_ns);
             ("ideal", Float calib);
             ("efficiency", Float efficiency);
             ("min_speedup", Float min_speedup);
             ("threshold", Float threshold) ]) ]
      @ pool
      @ [ (* Wall times, throughput and host scaling swing with the
             machine; bench_diff reads these per-path tolerances from
             the baseline so only real structural drift is flagged. *)
          ("tolerances",
           Obj
             (List.map
                (fun (path, pct) -> (path, Float pct))
                [ ("wall.seq_ns", 300.); ("wall.par_ns", 300.);
                  ("wall.speedup", 700.); ("calibration.seq_ns", 300.);
                  ("calibration.par_ns", 300.); ("calibration.ideal", 700.);
                  ("calibration.threshold", 700.);
                  ("pool.runs_per_sec", 700.); ("pool.imbalance_pct", 200.) ])) ];
    gates =
      [ ("parfan_identical", identical);
        ("parfan_isolation", isolation);
        ("parfan_speedup", speedup_ok) ] }
