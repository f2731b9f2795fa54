(* Tests for the Parfan domain pool: determinism of the parallel
   campaign paths (merge order, not scheduling, defines the output),
   worker-count clamping, error propagation, and the frozen kernel
   slot table that makes concurrent kernels safe in the first place. *)

(* ---------------- clamping ---------------------------------------- *)

let test_resolve_clamps_to_tasks () =
  Alcotest.(check int) "jobs > tasks clamps" 3
    (Parfan.resolve_jobs ~jobs:64 3);
  Alcotest.(check int) "exact fit" 4 (Parfan.resolve_jobs ~jobs:4 4)

let test_resolve_zero_means_auto () =
  Alcotest.(check int) "jobs:0 = auto" (Parfan.resolve_jobs 1000)
    (Parfan.resolve_jobs ~jobs:0 1000);
  Alcotest.(check int) "negative = auto" (Parfan.resolve_jobs 1000)
    (Parfan.resolve_jobs ~jobs:(-3) 1000)

let test_resolve_floor_one () =
  Alcotest.(check int) "no tasks still one worker" 1
    (Parfan.resolve_jobs ~jobs:8 0);
  Alcotest.(check int) "one task one worker" 1 (Parfan.resolve_jobs ~jobs:8 1)

(* ---------------- pool semantics ----------------------------------- *)

let test_map_matches_list_map () =
  let xs = List.init 100 Fun.id in
  let f x = x * x + 1 in
  List.iter
    (fun jobs ->
       Alcotest.(check (list int))
         (Printf.sprintf "jobs:%d equals List.map" jobs)
         (List.map f xs)
         (Parfan.map ~jobs f xs))
    [ 1; 2; 4; 8 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Parfan.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Parfan.map ~jobs:4 succ [ 7 ])

exception Boom of int

let test_map_reraises_task_failure () =
  List.iter
    (fun jobs ->
       match Parfan.map ~jobs (fun x -> if x = 5 then raise (Boom x) else x)
               (List.init 10 Fun.id)
       with
       | _ -> Alcotest.fail "expected Boom"
       | exception Boom 5 -> ())
    [ 1; 4 ]

let test_stats_accounting () =
  let got = ref None in
  let ys =
    Parfan.map ~jobs:4 ~stats:(fun s -> got := Some s) succ
      (List.init 40 Fun.id)
  in
  Alcotest.(check int) "results intact" 40 (List.length ys);
  match !got with
  | None -> Alcotest.fail "stats callback not invoked"
  | Some s ->
    Alcotest.(check int) "jobs recorded" 4 s.Parfan.pf_jobs;
    Alcotest.(check int) "tasks recorded" 40 s.Parfan.pf_tasks;
    Alcotest.(check int) "worker rows" 4 (Array.length s.Parfan.pf_workers);
    Alcotest.(check int) "workers ran every task once" 40
      (Array.fold_left (fun acc w -> acc + w.Parfan.w_tasks) 0
         s.Parfan.pf_workers)

let test_progress_reaches_total () =
  List.iter
    (fun jobs ->
       let last = ref 0 in
       let monotone = ref true in
       let (_ : int list) =
         Parfan.map ~jobs
           ~progress:(fun ~completed ~total ->
             if completed <= !last || total <> 25 then monotone := false;
             last := completed)
           succ (List.init 25 Fun.id)
       in
       Alcotest.(check bool)
         (Printf.sprintf "jobs:%d progress monotone" jobs)
         true !monotone;
       Alcotest.(check int)
         (Printf.sprintf "jobs:%d progress completes" jobs)
         25 !last)
    [ 1; 3 ]

(* ---------------- frozen slot tables ------------------------------- *)

let slot_table () =
  List.map
    (fun s -> (Kernel.slot_phase s, Kernel.slot_detail s))
    Kernel.all_slots

let test_concurrent_kernels_same_slot_table () =
  (* Two domains booting systems concurrently must observe the same
     frozen slot table — the registration lists are emptied after
     module init, so nothing can append while workers run. *)
  let probe () =
    let sys = System.build ~seed:7 (Sysconf.uniform Policy.enhanced) in
    let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
    (Kernel.n_slots, slot_table ())
  in
  let d1 = Domain.spawn probe and d2 = Domain.spawn probe in
  let n1, t1 = Domain.join d1 and n2, t2 = Domain.join d2 in
  let n0, t0 = (Kernel.n_slots, slot_table ()) in
  Alcotest.(check int) "domain 1 slot count" n0 n1;
  Alcotest.(check int) "domain 2 slot count" n0 n2;
  Alcotest.(check bool) "domain 1 table" true (t0 = t1);
  Alcotest.(check bool) "domain 2 table" true (t0 = t2)

let test_concurrent_runs_no_interference () =
  (* The same injection run executed in two concurrent domains and in
     the calling domain must classify identically — per-run kernel
     counters are instance state, never globals. *)
  let sites = Campaign.profile_sites ~seed:42 Policy.enhanced in
  let chosen = Campaign.select_sites ~seed:42 ~sample:4 sites in
  let run () =
    List.map
      (fun site ->
         Campaign.outcome_name
           (Campaign.run_one_conf (Sysconf.uniform Policy.enhanced) site
              (Edfi.action_for Edfi.Fail_stop site)))
      chosen
  in
  let seq = run () in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let p1 = Domain.join d1 and p2 = Domain.join d2 in
  Alcotest.(check (list string)) "domain 1 outcomes" seq p1;
  Alcotest.(check (list string)) "domain 2 outcomes" seq p2

(* ---------------- parallel campaign determinism -------------------- *)

let specs_pool =
  [ Sysconf.uniform Policy.enhanced;
    Sysconf.uniform Policy.stateless;
    Sysconf.assign (Sysconf.uniform Policy.enhanced) Endpoint.ds
      Policy.naive ]

let row_to_tuple (r : Campaign.row) =
  (r.Campaign.row_policy, r.Campaign.runs, r.Campaign.pass, r.Campaign.fail,
   r.Campaign.shutdown, r.Campaign.crash)

let prop_matrix_jobs_invariant =
  (* The heart of the Determinator contract: worker count is invisible
     in the output. Any (seed, sample, spec subset, jobs) draw must
     produce rows identical to the sequential oracle. *)
  let gen =
    QCheck.Gen.(
      map3
        (fun seed sample (nspecs, jobs) -> (seed, sample, nspecs, jobs))
        (int_range 1 1000) (int_range 2 5)
        (pair (int_range 1 3) (oneofl [ 2; 4; 8 ])))
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, sample, nspecs, jobs) ->
        Printf.sprintf "seed=%d sample=%d nspecs=%d jobs=%d" seed sample
          nspecs jobs)
      gen
  in
  QCheck.Test.make ~name:"survivability_matrix jobs-invariant" ~count:6 arb
    (fun (seed, sample, nspecs, jobs) ->
       let specs = List.filteri (fun i _ -> i < nspecs) specs_pool in
       let seq =
         Campaign.survivability_matrix ~seed ~sample ~jobs:1 Edfi.Fail_stop
           specs
       in
       let par =
         Campaign.survivability_matrix ~seed ~sample ~jobs Edfi.Fail_stop
           specs
       in
       List.map row_to_tuple seq = List.map row_to_tuple par)

let prop_rollup_artifact_jobs_invariant =
  (* The telemetry rollup extends the Determinator contract to the
     campaign artifact: the serialized rollup (sans the optional pool
     section) must be byte-identical at any worker count and across
     re-runs of the same seed. *)
  let arb =
    QCheck.make
      ~print:(fun (seed, sample) -> Printf.sprintf "seed=%d sample=%d" seed sample)
      QCheck.Gen.(pair (int_range 1 1000) (int_range 2 4))
  in
  QCheck.Test.make ~name:"rollup artifact byte-identical across jobs" ~count:4
    arb
    (fun (seed, sample) ->
       let artifact jobs =
         let rows, ro =
           Campaign.survivability_matrix_rollup ~seed ~sample ~jobs
             Edfi.Fail_stop specs_pool
         in
         (List.map row_to_tuple rows, Campaign.rollup_to_json ro)
       in
       let rows1, a1 = artifact 1 in
       let rows2, a2 = artifact 2 in
       let rows4, a4 = artifact 4 in
       let _, again = artifact 4 in
       rows1 = rows2 && rows1 = rows4
       && String.equal a1 a2 && String.equal a1 a4
       && String.equal a4 again)

let test_rollup_rows_match_plain_matrix () =
  (* the rollup variant must not perturb the rows the plain matrix
     reports for the same arguments *)
  let plain =
    Campaign.survivability_matrix ~seed:42 ~sample:3 ~jobs:2 Edfi.Fail_stop
      specs_pool
  in
  let rows, ro =
    Campaign.survivability_matrix_rollup ~seed:42 ~sample:3 ~jobs:2
      Edfi.Fail_stop specs_pool
  in
  Alcotest.(check bool) "rows identical" true
    (List.map row_to_tuple plain = List.map row_to_tuple rows);
  Alcotest.(check int) "rollup counts every run"
    (List.fold_left (fun acc r -> acc + r.Campaign.runs) 0 plain)
    ro.Campaign.ro_runs;
  Alcotest.(check int) "outcome split resums"
    ro.Campaign.ro_runs
    (ro.Campaign.ro_pass + ro.Campaign.ro_fail + ro.Campaign.ro_shutdown
     + ro.Campaign.ro_crash)

let test_multi_jobs_invariant () =
  let seq =
    Campaign.survivability_multi ~seed:42 ~sample:6 ~jobs:1 ~k:2
      Edfi.Fail_stop [ Policy.enhanced ]
  in
  let par =
    Campaign.survivability_multi ~seed:42 ~sample:6 ~jobs:4 ~k:2
      Edfi.Fail_stop [ Policy.enhanced ]
  in
  Alcotest.(check bool) "multi-fault rows jobs-invariant" true
    (List.map row_to_tuple seq = List.map row_to_tuple par)

let () =
  Alcotest.run "osiris_parfan"
    [ ( "clamping",
        [ Alcotest.test_case "clamps to tasks" `Quick
            test_resolve_clamps_to_tasks;
          Alcotest.test_case "zero means auto" `Quick
            test_resolve_zero_means_auto;
          Alcotest.test_case "floor of one" `Quick test_resolve_floor_one ] );
      ( "pool",
        [ Alcotest.test_case "map equals List.map" `Quick
            test_map_matches_list_map;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "re-raises failures" `Quick
            test_map_reraises_task_failure;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "progress monotone" `Quick
            test_progress_reaches_total ] );
      ( "isolation",
        [ Alcotest.test_case "concurrent kernels, same slots" `Slow
            test_concurrent_kernels_same_slot_table;
          Alcotest.test_case "concurrent runs, same outcomes" `Slow
            test_concurrent_runs_no_interference ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_matrix_jobs_invariant;
          QCheck_alcotest.to_alcotest prop_rollup_artifact_jobs_invariant;
          Alcotest.test_case "rollup rows match plain matrix" `Slow
            test_rollup_rows_match_plain_matrix;
          Alcotest.test_case "multi-fault jobs invariant" `Slow
            test_multi_jobs_invariant ] ) ]
