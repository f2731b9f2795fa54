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

   Run with [dune exec bench/main.exe parfan]. Emits a JSON report
   (path from OSIRIS_PARFAN_BENCH_JSON, default BENCH_parfan.json) and
   exits non-zero when a gate fails:

     OSIRIS_SAMPLE                fault sites per policy (default 0 = all,
                                  the full-sweep default)
     OSIRIS_PARFAN_JOBS           pool width under test (default 4)
     OSIRIS_PARFAN_MIN_SPEEDUP    absolute speedup target (default 3)
     OSIRIS_PARFAN_EFFICIENCY     fraction of the calibrated ideal the
                                  pool must reach (default 0.7)
     OSIRIS_PARFAN_BENCH_JSON     output path (default BENCH_parfan.json)

   Gates:
     parfan_identical   jobs:1 and jobs:N produce structurally
                        byte-identical campaign rows (Marshal equality)
     parfan_isolation   per-run kernel counters are identical whether a
                        run executes alone or beside concurrent domains
     parfan_speedup     campaign speedup >= min(MIN_SPEEDUP,
                        EFFICIENCY x calibrated ideal scaling) *)

open Harness

let sample_size () =
  match Sys.getenv_opt "OSIRIS_SAMPLE" with
  | Some s -> (try int_of_string s with _ -> 0)
  | None -> 0

let pool_jobs () =
  match Sys.getenv_opt "OSIRIS_PARFAN_JOBS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

let min_speedup () = env_float "OSIRIS_PARFAN_MIN_SPEEDUP" ~default:3.

let efficiency () =
  match Sys.getenv_opt "OSIRIS_PARFAN_EFFICIENCY" with
  | Some s -> (try float_of_string s with _ -> 0.7)
  | None -> 0.7

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

let json_bool b = if b then "true" else "false"

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

let run () =
  Printf.printf
    "\n================================================================\n\
     Parfan: parallel survivability campaign vs the sequential oracle\n\
     ================================================================\n";
  let sample = sample_size () in
  let jobs = pool_jobs () in
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
  let threshold = Float.min (min_speedup ()) (efficiency () *. calib) in
  let speedup_ok = speedup >= threshold in
  Printf.printf
    "calibration (raw domains, %d-way static partition): %.2fx ideal\n\
    \  gate: speedup %.2fx >= min(%.1f, %.2f x %.2f) = %.2fx -> %s\n"
    jobs calib speedup (min_speedup ()) (efficiency ()) calib threshold
    (if speedup_ok then "ok" else "FAILED");
  (* ---- gates + JSON ---- *)
  let gates =
    [ ("parfan_identical", identical);
      ("parfan_isolation", isolation);
      ("parfan_speedup", speedup_ok) ]
  in
  let buf = Buffer.create 2048 in
  let f = Printf.bprintf in
  f buf "{\n";
  f buf "  \"bench\": \"parfan\",\n";
  f buf "  \"seed\": %d,\n" seed;
  f buf "  \"sample\": %d,\n" sample;
  f buf "  \"jobs\": %d,\n" jobs;
  f buf "  \"runs\": %d,\n" n_runs;
  f buf
    "  \"wall\": {\"seq_ns\": %.0f, \"par_ns\": %.0f, \"speedup\": %.3f},\n"
    seq_ns par_ns speedup;
  f buf
    "  \"calibration\": {\"seq_ns\": %.0f, \"par_ns\": %.0f, \
     \"ideal\": %.3f,\n    \"efficiency\": %.2f, \"min_speedup\": %.1f, \
     \"threshold\": %.3f},\n"
    cal_seq_ns cal_par_ns calib (efficiency ()) (min_speedup ()) threshold;
  (match !pool_stats with
   | Some s ->
     f buf
       "  \"pool\": {\"tasks\": %d, \"runs_per_sec\": %.1f, \
        \"imbalance_pct\": %.1f,\n    \"workers\": [%s]},\n"
       s.Parfan.pf_tasks (Parfan.runs_per_sec s) (Parfan.imbalance_pct s)
       (String.concat ", "
          (Array.to_list
             (Array.map
                (fun w ->
                   Printf.sprintf "{\"tasks\": %d, \"busy_ms\": %.1f}"
                     w.Parfan.w_tasks (w.Parfan.w_busy_ns /. 1e6))
                s.Parfan.pf_workers)))
   | None -> ());
  (* Wall times, throughput and host scaling swing with the machine;
     bench_diff reads these per-path tolerances from the baseline so
     only real structural drift is flagged. *)
  f buf
    "  \"tolerances\": {\"wall.seq_ns\": 300, \"wall.par_ns\": 300,\n\
    \    \"wall.speedup\": 700, \"calibration.seq_ns\": 300,\n\
    \    \"calibration.par_ns\": 300, \"calibration.ideal\": 700,\n\
    \    \"calibration.threshold\": 700, \"pool.runs_per_sec\": 700,\n\
    \    \"pool.imbalance_pct\": 200},\n";
  f buf "  \"gates\": {%s}\n"
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "\"%s\": %s" n (json_bool ok))
          gates));
  f buf "}\n";
  let path = json_path "OSIRIS_PARFAN_BENCH_JSON" ~default:"BENCH_parfan.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  if failed <> [] then begin
    List.iter
      (fun (n, _) -> Printf.eprintf "parfan bench: gate FAILED: %s\n" n)
      failed;
    exit 1
  end
  else Printf.printf "all %d gates passed\n" (List.length gates)
