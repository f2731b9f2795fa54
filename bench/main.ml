(* The evaluation entry point: regenerates every table and figure of the
   paper's evaluation (Section VI) and runs the layer benches.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe table1 obs      -- named experiments
     dune exec bench/main.exe -- --smoke      -- every layer bench, smoke run

   Knobs (read once by [Harness.config]; a malformed value exits 2):
   OSIRIS_BENCH_MS, the per-variant wall budget of the layer benches
   (default 200), and OSIRIS_SAMPLE, the fault sites per policy of the
   injection campaigns (default 0 = every triggered site, as in the
   paper). Campaigns fan out over the Parfan domain pool — OSIRIS_JOBS
   picks the worker count. Every requested experiment runs even after
   one fails; the exit status is 1 when any layer-bench gate failed or
   a bench raised. *)

let heading = Harness.heading

let pct x = Printf.sprintf "%.1f" (100. *. x)

(* ------------------------------------------------------------------ *)
(* Table I - recovery coverage                                         *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [ ("pm", (54.9, 61.7)); ("vfs", (72.3, 72.3)); ("vm", (64.6, 64.6));
    ("ds", (47.1, 92.8)); ("rs", (49.4, 50.5)) ]

let table1 () =
  heading "Table I: recovery coverage per server (% of execution inside recovery windows)";
  let pess, _ = Experiment.coverage_run Policy.pessimistic in
  let enh, _ = Experiment.coverage_run Policy.enhanced in
  (* Static predictions weighted by measured handler frequencies. *)
  let freq_sys = System.build (Sysconf.uniform Policy.enhanced) in
  let (_ : Kernel.halt) = System.run freq_sys ~root:Testsuite.driver in
  let freq_kernel = System.kernel freq_sys in
  let static_report policy =
    List.map
      (fun (summary : Summary.t) ->
         let ep = summary.Summary.sum_ep in
         Static_window.server_coverage
           ~frequency:(Experiment.measured_frequencies freq_kernel ep)
           ~multithreaded:(ep = Endpoint.vfs) policy summary)
      System.summaries
  in
  let static_pess = static_report Policy.pessimistic in
  let static_enh = static_report Policy.enhanced in
  let static_for reports name =
    match
      List.find_opt
        (fun r -> Endpoint.server_name r.Static_window.sr_ep = name)
        reports
    with
    | Some r -> 100. *. r.Static_window.sr_coverage
    | None -> 0.
  in
  let rows =
    List.map2
      (fun p e ->
         let name = p.Experiment.cov_server in
         let paper_p, paper_e =
           match List.assoc_opt name paper_table1 with
           | Some q -> q
           | None -> (0., 0.)
         in
         [ name;
           pct p.Experiment.cov_fraction;
           pct e.Experiment.cov_fraction;
           Printf.sprintf "%.1f" (static_for static_pess name);
           Printf.sprintf "%.1f" (static_for static_enh name);
           Printf.sprintf "%.1f" paper_p;
           Printf.sprintf "%.1f" paper_e ])
      pess enh
  in
  let mean_row =
    [ "weighted avg";
      pct (Experiment.weighted_mean_coverage pess);
      pct (Experiment.weighted_mean_coverage enh);
      "-"; "-"; "57.7"; "68.4" ]
  in
  print_string
    (Osiris_util.Tablefmt.render
       ~header:[ "server"; "pessimistic"; "enhanced"; "static(p)"; "static(e)";
                 "paper(p)"; "paper(e)" ]
       ~align:[ Osiris_util.Tablefmt.Left ] (rows @ [ mean_row ]))

(* ------------------------------------------------------------------ *)
(* Tables II and III - survivability                                   *)
(* ------------------------------------------------------------------ *)

let paper_table2 =
  [ ("stateless", (19.6, 0.0, 0.0, 80.4)); ("naive", (20.6, 2.4, 0.0, 77.0));
    ("pessimistic", (18.5, 0.0, 81.3, 0.2)); ("enhanced", (25.6, 6.5, 66.1, 1.9)) ]

let paper_table3 =
  [ ("stateless", (47.8, 10.5, 0.0, 41.7)); ("naive", (48.5, 11.9, 0.0, 39.6));
    ("pessimistic", (47.3, 10.5, 38.2, 4.0)); ("enhanced", (50.4, 12.0, 32.9, 4.8)) ]

let survivability_table title model paper sample =
  heading title;
  (if sample = 0 then
     Printf.printf
       "(all triggered fault sites per policy; set OSIRIS_SAMPLE to subsample)\n"
   else
     Printf.printf
       "(%d fault sites per policy; OSIRIS_SAMPLE=0 for all sites)\n" sample);
  let rows = Campaign.survivability_matrix ~sample model
      (List.map Sysconf.uniform Policy.all_evaluated) in
  let render_row r =
    let name = r.Campaign.row_policy in
    let pp, pf, ps, pc =
      match List.assoc_opt name paper with Some q -> q | None -> (0., 0., 0., 0.)
    in
    [ name;
      pct (Campaign.fraction r Campaign.Pass);
      pct (Campaign.fraction r Campaign.Fail);
      pct (Campaign.fraction r Campaign.Shutdown);
      pct (Campaign.fraction r Campaign.Crash);
      Printf.sprintf "%.1f/%.1f/%.1f/%.1f" pp pf ps pc ]
  in
  print_string
    (Osiris_util.Tablefmt.render
       ~header:[ "policy"; "pass%"; "fail%"; "shutdown%"; "crash%";
                 "paper (p/f/s/c)" ]
       ~align:[ Osiris_util.Tablefmt.Left ]
       (List.map render_row rows))

let table2 sample =
  survivability_table
    "Table II: survivability under fail-stop fault injection" Edfi.Fail_stop
    paper_table2 sample

let table3 sample =
  survivability_table
    "Table III: survivability under full-EDFI fault injection"
    Edfi.Full_edfi paper_table3 sample

(* ------------------------------------------------------------------ *)
(* Table IV - baseline vs "Linux" (monolithic cost model)              *)
(* ------------------------------------------------------------------ *)

let paper_table4 =
  [ ("dhry2reg", 4.77); ("whetstone-double", 2.32); ("execl", 0.86);
    ("fstime", 2.69); ("fsbuffer", 0.25); ("fsdisk", 13.09); ("pipe", 17.54);
    ("context1", 6.11); ("spawn", 33.00); ("syscall", 2.65); ("shell1", 1.12);
    ("shell8", 35.01) ]

let table4 () =
  heading "Table IV: baseline performance vs monolithic system (iterations/simulated second)";
  let mono = Experiment.bench_suite ~arch:Kernel.Monolithic Policy.none in
  let micro_rows = Experiment.bench_suite ~arch:Kernel.Microkernel Policy.none in
  let rows =
    List.map2
      (fun m u ->
         let ratio =
           Osiris_util.Stats.ratio m.Experiment.br_score u.Experiment.br_score
         in
         [ m.Experiment.br_name;
           Printf.sprintf "%.0f" m.Experiment.br_score;
           Printf.sprintf "%.0f" u.Experiment.br_score;
           Printf.sprintf "%.2f" ratio;
           Printf.sprintf "%.2f"
             (Option.value ~default:0.
                (List.assoc_opt m.Experiment.br_name paper_table4)) ])
      mono micro_rows
  in
  let ratios =
    List.map2
      (fun m u ->
         Osiris_util.Stats.ratio m.Experiment.br_score u.Experiment.br_score)
      mono micro_rows
  in
  let geo = Osiris_util.Stats.geomean ratios in
  print_string
    (Osiris_util.Tablefmt.render
       ~header:[ "benchmark"; "monolithic"; "microkernel"; "ratio"; "paper" ]
       ~align:[ Osiris_util.Tablefmt.Left ]
       (rows @ [ [ "geomean"; "-"; "-"; Printf.sprintf "%.2f" geo; "4.20" ] ]))

(* ------------------------------------------------------------------ *)
(* Table V - instrumentation slowdown                                  *)
(* ------------------------------------------------------------------ *)

let paper_table5 =
  [ ("dhry2reg", (1.001, 0.996, 0.991)); ("whetstone-double", (1.002, 1.001, 1.003));
    ("execl", (1.326, 0.750, 0.762)); ("fstime", (1.321, 0.749, 0.762));
    ("fsbuffer", (2.317, 1.175, 1.194)); ("fsdisk", (1.165, 1.168, 1.179));
    ("pipe", (1.158, 1.158, 1.169)); ("context1", (1.137, 1.146, 1.156));
    ("spawn", (1.228, 1.213, 1.253)); ("syscall", (1.173, 1.164, 1.164));
    ("shell1", (1.110, 0.942, 0.928)); ("shell8", (1.256, 1.261, 1.266)) ]

let table5 () =
  heading "Table V: slowdown of recovery instrumentation vs baseline (lower is better)";
  let base = Experiment.bench_suite Policy.none in
  let noopt = Experiment.bench_suite Policy.enhanced_unoptimized in
  let pess = Experiment.bench_suite Policy.pessimistic in
  let enh = Experiment.bench_suite Policy.enhanced in
  let slow a b =
    Osiris_util.Stats.ratio a.Experiment.br_score b.Experiment.br_score
  in
  let rows =
    List.map2
      (fun (b, n) (p, e) ->
         let pn, pp, pe =
           match List.assoc_opt b.Experiment.br_name paper_table5 with
           | Some q -> q
           | None -> (0., 0., 0.)
         in
         [ b.Experiment.br_name;
           Printf.sprintf "%.3f" (slow b n);
           Printf.sprintf "%.3f" (slow b p);
           Printf.sprintf "%.3f" (slow b e);
           Printf.sprintf "%.3f/%.3f/%.3f" pn pp pe ])
      (List.combine base noopt) (List.combine pess enh)
  in
  let geo sel =
    Osiris_util.Stats.geomean (List.map2 (fun b x -> slow b x) base sel)
  in
  print_string
    (Osiris_util.Tablefmt.render
       ~header:[ "benchmark"; "no-opt"; "pessimistic"; "enhanced";
                 "paper (n/p/e)" ]
       ~align:[ Osiris_util.Tablefmt.Left ]
       (rows
        @ [ [ "geomean";
              Printf.sprintf "%.3f" (geo noopt);
              Printf.sprintf "%.3f" (geo pess);
              Printf.sprintf "%.3f" (geo enh);
              "1.235/1.046/1.054" ] ]));
  Printf.printf
    "note: the paper's optimized geomeans are pulled below 1.1 by\n\
     scheduling-artifact speedups in execl/fstime/shell1 (ratios < 1)\n\
     that a deterministic simulation does not reproduce.\n"

(* ------------------------------------------------------------------ *)
(* Table VI - memory overhead                                          *)
(* ------------------------------------------------------------------ *)

let paper_table6 =
  [ ("pm", (628, 944, 1)); ("vfs", (1252, 1600, 13)); ("vm", (4532, 18032, 24576));
    ("ds", (248, 488, 1)); ("rs", (1696, 5004, 1)) ]

let table6 () =
  heading "Table VI: per-component memory overhead (kB)";
  let rows = Experiment.memory_overhead () in
  let render r =
    let name = r.Experiment.mem_server in
    let pb, pc, pu =
      match List.assoc_opt name paper_table6 with Some q -> q | None -> (0, 0, 0)
    in
    [ name;
      string_of_int r.Experiment.mem_base_kb;
      string_of_int r.Experiment.mem_clone_kb;
      string_of_int r.Experiment.mem_undo_kb;
      string_of_int r.Experiment.mem_total_overhead_kb;
      Printf.sprintf "%d/%d/%d" pb pc pu ]
  in
  let b, c, u, t =
    List.fold_left
      (fun (b, c, u, t) r ->
         ( b + r.Experiment.mem_base_kb,
           c + r.Experiment.mem_clone_kb,
           u + r.Experiment.mem_undo_kb,
           t + r.Experiment.mem_total_overhead_kb ))
      (0, 0, 0, 0) rows
  in
  print_string
    (Osiris_util.Tablefmt.render
       ~header:[ "server"; "base"; "+clone"; "+undo log"; "total overhead";
                 "paper (b/c/u)" ]
       ~align:[ Osiris_util.Tablefmt.Left ]
       (List.map render rows
        @ [ [ "total"; string_of_int b; string_of_int c; string_of_int u;
              string_of_int t; "8356/26068/24592" ] ]))

(* ------------------------------------------------------------------ *)
(* Figure 3 - service disruption                                       *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  heading "Figure 3: Unixbench score vs service-disruption interval (100 = undisturbed)";
  let intervals =
    [ 0; 6_400_000; 1_600_000; 400_000; 200_000; 100_000; 50_000 ]
  in
  let header =
    "benchmark"
    :: List.map
         (fun i -> if i = 0 then "none" else Printf.sprintf "%dk" (i / 1000))
         intervals
  in
  let rows =
    List.map
      (fun bench ->
         let results =
           List.map (fun interval -> Disruption.run ~bench ~interval ()) intervals
         in
         let reference =
           match results with r :: _ -> r.Disruption.dis_score | [] -> 1.
         in
         bench.Unixbench.b_name
         :: List.map
              (fun r ->
                 let idx = 100. *. r.Disruption.dis_score /. reference in
                 if r.Disruption.dis_completed then Printf.sprintf "%.0f" idx
                 else Printf.sprintf "%.0f!" idx)
              results)
      Unixbench.all
  in
  print_string
    (Osiris_util.Tablefmt.render ~header ~align:[ Osiris_util.Tablefmt.Left ]
       rows);
  Printf.printf
    "(columns: fault interval in kcycles, decreasing = higher fault influx;\n\
     '!' = run degraded. shape: PM-dependent tests (execl, spawn, syscall,\n\
     shell1, shell8) sink as the influx doubles; compute/fs tests stay\n\
     flat. The 50k column sits past the recovery-latency boundary (a PM\n\
     clone's state transfer costs ~80k cycles), where the system\n\
     thrashes: survivable fault intervals must exceed recovery latency.)\n"

(* ------------------------------------------------------------------ *)
(* RCB accounting                                                      *)
(* ------------------------------------------------------------------ *)

let find_repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let count_loc file =
  let ic = open_in file in
  let n = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let rec ml_files dir =
  Array.fold_left
    (fun acc entry ->
       let path = Filename.concat dir entry in
       if Sys.is_directory path then acc @ ml_files path
       else if Filename.check_suffix entry ".ml" then path :: acc
       else acc)
    [] (Sys.readdir dir)

let rcb () =
  heading "Reliable Computing Base (paper Section V: RCB = 12.5% of code base)";
  match find_repo_root () with
  | None -> Printf.printf "repo root not found; skipping RCB accounting\n"
  | Some root ->
    let lib = Filename.concat root "lib" in
    let all = ml_files lib in
    let rcb_prefixes =
      List.map (Filename.concat lib)
        [ "checkpoint"; "policy"; "kernel"; "memimage" ]
    in
    let rcb_files =
      List.map (Filename.concat lib) [ "servers/rs.ml"; "ipc/seep.ml" ]
    in
    let is_rcb f =
      List.exists
        (fun p ->
           String.length f >= String.length p
           && String.sub f 0 (String.length p) = p)
        rcb_prefixes
      || List.mem f rcb_files
    in
    let total = List.fold_left (fun acc f -> acc + count_loc f) 0 all in
    let rcb_total =
      List.fold_left
        (fun acc f -> if is_rcb f then acc + count_loc f else acc)
        0 all
    in
    Printf.printf
      "RCB (checkpointing, window management, restart path, message-passing\n\
       substrate, memory substrate): %d LoC of %d library LoC = %.1f%%\n\
       (paper: 29,732 of 237,270 LoC = 12.5%%)\n"
      rcb_total total
      (100. *. float_of_int rcb_total /. float_of_int (max 1 total))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  heading "Ablations (design choices from DESIGN.md)";
  let base = Experiment.bench_suite Policy.none in
  let noopt = Experiment.bench_suite Policy.enhanced_unoptimized in
  let enh = Experiment.bench_suite Policy.enhanced in
  let geo sel =
    Osiris_util.Stats.geomean
      (List.map2
         (fun b x ->
            Osiris_util.Stats.ratio b.Experiment.br_score x.Experiment.br_score)
         base sel)
  in
  Printf.printf
    "(a) undo-log write filtering: always-log %.3fx -> window-gated %.3fx\n"
    (geo noopt) (geo enh);
  let pess_cov, _ = Experiment.coverage_run Policy.pessimistic in
  let enh_cov, _ = Experiment.coverage_run Policy.enhanced in
  let pess_perf = Experiment.bench_suite Policy.pessimistic in
  Printf.printf
    "(b) SEEP classification: pessimistic %.1f%% coverage at %.3fx vs enhanced %.1f%% coverage at %.3fx\n"
    (100. *. Experiment.weighted_mean_coverage pess_cov)
    (geo pess_perf)
    (100. *. Experiment.weighted_mean_coverage enh_cov)
    (geo enh);
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
  let k = System.kernel sys in
  List.iter
    (fun ep ->
       let s = Kernel.server_stats k ep in
       Printf.printf
         "(c) %-4s: %6d windows, peak undo %7d B vs full-copy %9d B/checkpoint (%.4f%% of image)\n"
         s.Kernel.ss_name s.Kernel.ss_window_opens s.Kernel.ss_undo_peak_bytes
         s.Kernel.ss_image_bytes
         (100. *. float_of_int s.Kernel.ss_undo_peak_bytes
          /. float_of_int (max 1 s.Kernel.ss_image_bytes)))
    System.core_servers;
  (* (b') the graduated-policy dial between the two. *)
  let dial policy =
    let rows, _ = Experiment.coverage_run policy in
    100. *. Experiment.weighted_mean_coverage rows
  in
  Printf.printf
    "(b') graduated dial (weighted coverage): pess %.1f%% | grad1 %.1f%% |      grad2 %.1f%% | grad4 %.1f%% | enhanced %.1f%%\n"
    (dial Policy.pessimistic)
    (dial (Policy.enhanced_graduated 1))
    (dial (Policy.enhanced_graduated 2))
    (dial (Policy.enhanced_graduated 4))
    (dial Policy.enhanced);
  (* (d) checkpoint representation, measured: undo log vs full-copy
     snapshots on a request-heavy benchmark. *)
  let bench = Option.get (Unixbench.find "syscall") in
  let undo = Experiment.run_bench Policy.enhanced bench in
  let snap = Experiment.run_bench Policy.enhanced_snapshot bench in
  Printf.printf
    "(d) checkpoint representation on 'syscall': undo log %.0f it/s vs      full-copy snapshots %.0f it/s (%.1fx slower)\n"
    undo.Experiment.br_score snap.Experiment.br_score
    (Osiris_util.Stats.ratio undo.Experiment.br_score snap.Experiment.br_score);
  (* (e) reconciliation strategy under a persistent fault: replay
     crash-loops; error virtualization degrades gracefully. *)
  let run_persistent policy =
    let sys = System.build (Sysconf.uniform policy) in
    Kernel.set_fault_hook (System.kernel sys)
      (Some
         (fun site ->
            if site.Kernel.site_ep = Endpoint.ds
               && site.Kernel.site_handler = Some Message.Tag.T_ds_retrieve
               && site.Kernel.site_kind = Kernel.Op_load
               && site.Kernel.site_occ = 0
            then Some (Kernel.F_crash "persistent bug")
            else None));
    let halt = System.run sys ~root:Testsuite.driver in
    let results = Testsuite.parse_results (System.log_lines sys) in
    (halt, results, Kernel.restarts (System.kernel sys))
  in
  (* (f) recovery latency: crash-to-restart, per component size. *)
  let lat_sys = System.build ~max_crashes:10_000 (Sysconf.uniform Policy.enhanced) in
  let lat_kernel = System.kernel lat_sys in
  let every = ref 0 in
  Kernel.set_fault_hook lat_kernel
    (Some
       (fun site ->
          if site.Kernel.site_ep = Endpoint.pm
             && Kernel.window_is_open lat_kernel Endpoint.pm
          then begin
            incr every;
            if !every mod 500 = 0 then Some (Kernel.F_crash "latency probe")
            else None
          end
          else None));
  let (_ : Kernel.halt) = System.run lat_sys ~root:Testsuite.driver in
  (* [recovery_latencies] returns newest first; [summarize] sorts a
     copy internally, so no caller-side reversal is needed. *)
  let lats = List.map float_of_int (Kernel.recovery_latencies lat_kernel) in
  if lats <> [] then begin
    let s = Osiris_util.Stats.summarize lats in
    Printf.printf
      "(f) PM recovery latency over %d recoveries: median %.0f cycles        (%.1f us simulated), p95 %.0f\n"
      s.Osiris_util.Stats.n s.Osiris_util.Stats.p50
      (1e6 *. Costs.cycles_to_seconds (int_of_float s.Osiris_util.Stats.p50))
      s.Osiris_util.Stats.p95
  end;
  (* (g) beyond the single-fault assumption: several faults per run. *)
  List.iter
    (fun k ->
       let rows =
         if k = 1 then
           Campaign.survivability_matrix ~sample:40 Edfi.Fail_stop
             [ Sysconf.uniform Policy.enhanced ]
         else
           Campaign.survivability_multi ~sample:40 ~k Edfi.Fail_stop
             [ Policy.enhanced ]
       in
       List.iter
         (fun r ->
            Printf.printf
              "(g) %d fault(s)/run (enhanced, fail-stop): pass %.1f%% fail %.1f%% shutdown %.1f%% crash %.1f%%\n"
              k
              (100. *. Campaign.fraction r Campaign.Pass)
              (100. *. Campaign.fraction r Campaign.Fail)
              (100. *. Campaign.fraction r Campaign.Shutdown)
              (100. *. Campaign.fraction r Campaign.Crash))
         rows)
    [ 1; 2; 3 ];
  (* (h) sampling stability of the survivability tables. *)
  let spreads =
    List.map
      (fun seed ->
         match
           Campaign.survivability_matrix ~seed ~sample:40 Edfi.Fail_stop
             [ Sysconf.uniform Policy.enhanced ]
         with
         | [ r ] -> 100. *. Campaign.fraction r Campaign.Shutdown
         | _ -> 0.)
      [ 42; 1042; 2042 ]
  in
  Printf.printf
    "(h) sampling stability: enhanced fail-stop shutdown%% across 3 sampling seeds = %s (spread %.1f points)\n"
    (String.concat " / " (List.map (Printf.sprintf "%.1f") spreads))
    (List.fold_left max 0. spreads -. List.fold_left min 100. spreads);
  let eh, er, erest = run_persistent Policy.enhanced in
  let rh, rr, rrest = run_persistent Policy.enhanced_replay in
  Printf.printf
    "(e) persistent DS fault: error-virtualization -> %s (%d pass/%d fail,      %d recoveries) vs replay -> %s (%d pass/%d fail, %d recoveries)\n"
    (Kernel.halt_to_string eh) er.Testsuite.passed er.Testsuite.failed erest
    (Kernel.halt_to_string rh) rr.Testsuite.passed rr.Testsuite.failed rrest

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core primitives                     *)
(* ------------------------------------------------------------------ *)

let micro () =
  heading "Microbenchmarks (Bechamel; core recovery primitives)";
  let open Bechamel in
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let undo = Undo_log.create () in
  let t_append =
    let i = ref 0 in
    Test.make ~name:"undo_log.record"
      (Staged.stage (fun () ->
           incr i;
           ignore
             (Undo_log.record undo ~image ~offset:(8 * (!i land 0xFFF)) ~len:8);
           if Undo_log.entries undo > 4096 then Undo_log.clear undo))
  in
  let window = Window.create Window.When_open image in
  let t_window =
    Test.make ~name:"window.open+close"
      (Staged.stage (fun () ->
           Window.open_window window;
           Window.close_window window))
  in
  let t_store =
    let w = Window.create Window.Always image in
    Window.open_window w;
    let i = ref 0 in
    Test.make ~name:"memimage.set_word(logged)"
      (Staged.stage (fun () ->
           incr i;
           Memimage.set_word image (8 * (!i land 0xFF)) !i;
           if !i land 0xFFF = 0 then Undo_log.clear (Window.log w)))
  in
  let t_rollback =
    Test.make ~name:"undo_log.rollback(64 entries)"
      (Staged.stage (fun () ->
           let w = Window.create Window.When_open image in
           Window.open_window w;
           for i = 0 to 63 do
             Memimage.set_word image (8 * i) i
           done;
           Window.rollback w))
  in
  let t_boot =
    Test.make ~name:"system.build+boot"
      (Staged.stage (fun () -> ignore (System.build (Sysconf.uniform Policy.enhanced))))
  in
  let t_suite =
    Test.make ~name:"full test-suite run"
      (Staged.stage (fun () ->
           let sys = System.build (Sysconf.uniform Policy.enhanced) in
           ignore (System.run sys ~root:Testsuite.driver)))
  in
  let t_ipc =
    Test.make ~name:"ipc roundtrip x100 (wall time)"
      (Staged.stage
         (let open Prog.Syntax in
          fun () ->
            let sys = System.build (Sysconf.uniform Policy.enhanced) in
            let root =
              let rec go n =
                if n = 0 then Syscall.exit 0
                else
                  let* _ = Syscall.getpid in
                  go (n - 1)
              in
              go 100
            in
            ignore (System.run sys ~root)))
  in
  let t_recover =
    Test.make ~name:"crash+recovery cycle (wall time)"
      (Staged.stage
         (let open Prog.Syntax in
          fun () ->
            let sys = System.build (Sysconf.uniform Policy.enhanced) in
            let fired = ref false in
            Kernel.set_fault_hook (System.kernel sys)
              (Some
                 (fun site ->
                    if (not !fired) && site.Kernel.site_ep = Endpoint.ds then begin
                      fired := true;
                      Some (Kernel.F_crash "bench")
                    end
                    else None));
            let root =
              let* _ = Syscall.ds_retrieve ~key:"micro" in
              Syscall.exit 0
            in
            ignore (System.run sys ~root)))
  in
  let tests =
    [ t_append; t_window; t_store; t_rollback; t_boot; t_suite; t_ipc;
      t_recover ]
  in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
       let raw = Benchmark.all cfg [ instance ] test in
       let results =
         Analyze.all
           (Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |])
           instance raw
       in
       Hashtbl.iter
         (fun name ols ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.printf "%-34s %14.1f ns/run\n" name est
            | _ -> Printf.printf "%-34s (no estimate)\n" name)
         results)
    tests

(* ------------------------------------------------------------------ *)

let tables sample =
  [ ("table1", table1); ("table2", fun () -> table2 sample);
    ("table3", fun () -> table3 sample); ("table4", table4);
    ("table5", table5); ("table6", table6); ("fig3", fig3); ("rcb", rcb);
    ("ablation", ablation); ("micro", micro) ]

let benches =
  [ ("checkpoint", Checkpoint_bench.run); ("obs", Obs_bench.run);
    ("matrix", Matrix_bench.run); ("profiler", Profiler_bench.run);
    ("journal", Journal_bench.run); ("parfan", Parfan_bench.run);
    ("timeseries", Timeseries_bench.run); ("sched", Sched_bench.run);
    ("critpath", Critpath_bench.run); ("query", Query_bench.run) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let cfg = Harness.config ~smoke in
  let experiments =
    List.map (fun (name, f) -> (name, fun () -> f (); true)) (tables cfg.sample)
    @ List.map
        (fun (name, run) -> (name, fun () -> Harness.run_bench cfg name run))
        benches
  in
  let requested =
    match List.filter (( <> ) "--smoke") args with
    | [] when smoke -> List.map fst benches
    | [] -> List.map fst experiments
    | names -> names
  in
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) requested with
   | [] -> ()
   | unknown ->
     Printf.eprintf "unknown experiment(s) %s (available: %s)\n"
       (String.concat ", " unknown)
       (String.concat ", " (List.map fst experiments));
     exit 2);
  let ok =
    List.fold_left
      (fun ok name -> (List.assoc name experiments) () && ok)
      true requested
  in
  if not ok then exit 1
