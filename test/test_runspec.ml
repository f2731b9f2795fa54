(* Run descriptors:

   - header <-> descriptor conversion round-trips over every arch,
     workload, crash target and count, and refuses plans a header
     cannot carry;
   - arming equivalence: the one fault-arming path reproduces the
     closures each layer used to install for itself (kept here as the
     reference), run for run and journal byte for journal byte. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* ---------------- header <-> descriptor --------------------------- *)

let specs = [ "enhanced"; "enhanced,ds=stateless"; "pessimistic,vm=enhanced/3" ]

(* A plan without faults prints as crash "none", count 1, so "none" is
   only a round trip at count 1. *)
let crashes =
  ("none", 1)
  :: List.concat_map
       (fun ep -> [ (Endpoint.server_name ep, 1); (Endpoint.server_name ep, 3) ])
       System.core_servers

let test_header_round_trip () =
  let n = ref 0 in
  List.iter
    (fun arch ->
       List.iter
         (fun (workload, _) ->
            List.iter
              (fun (crash, crash_count) ->
                 List.iter
                   (fun spec ->
                      let h =
                        match
                          Runspec.make_header ~arch ~seed:7 ~spec ~workload
                            ~crash ~crash_count ()
                        with
                        | Ok h -> h
                        | Error m -> Alcotest.fail m
                      in
                      let label = Journal.header_to_string h in
                      let t =
                        match Runspec.of_header h with
                        | Ok t -> t
                        | Error m -> Alcotest.fail (label ^ ": " ^ m)
                      in
                      Alcotest.(check int) (label ^ " seed") 7 t.Runspec.rs_seed;
                      Alcotest.(check bool) (label ^ " arch") true
                        (t.Runspec.rs_arch = arch);
                      Alcotest.(check string) (label ^ " workload") workload
                        t.Runspec.rs_workload;
                      (match Sysconf.parse spec with
                       | Ok conf ->
                         Alcotest.(check (list string)) (label ^ " spec")
                           (Sysconf.describe conf)
                           (Sysconf.describe t.Runspec.rs_conf)
                       | Error m -> Alcotest.fail m);
                      (match t.Runspec.rs_faults, crash with
                       | [], "none" -> ()
                       | [ Runspec.Crash_replies (ep, c) ], _ ->
                         Alcotest.(check string) (label ^ " crash target")
                           crash (Endpoint.server_name ep);
                         Alcotest.(check int) (label ^ " crash count")
                           crash_count c
                       | _ -> Alcotest.fail (label ^ ": wrong fault plan"));
                      (match Runspec.to_header t with
                       | Ok h' ->
                         Alcotest.(check bool) (label ^ " round trip") true
                           (h' = h)
                       | Error m -> Alcotest.fail (label ^ ": " ^ m));
                      incr n)
                   specs)
              crashes)
         Runspec.workloads)
    [ Kernel.Microkernel; Kernel.Monolithic ];
  Alcotest.(check int) "every combination" (2 * 3 * 11 * 3) !n

let quickstart faults =
  { Runspec.rs_seed = 42;
    rs_arch = Kernel.Microkernel;
    rs_conf = Sysconf.uniform Policy.enhanced;
    rs_workload = "quickstart";
    rs_faults = faults }

let expect_error label ~needle = function
  | Ok _ -> Alcotest.fail (label ^ ": accepted")
  | Error m ->
    Alcotest.(check bool) (label ^ ": " ^ m) true (contains ~needle m)

let test_to_header_refusals () =
  let site =
    { Kernel.site_ep = Endpoint.ds; site_handler = None;
      site_kind = Kernel.Op_reply; site_occ = 0 }
  in
  expect_error "site fault" ~needle:"fault plan"
    (Runspec.to_header
       (quickstart [ Runspec.At_site (site, Kernel.F_crash "x") ]));
  expect_error "two crash targets" ~needle:"fault plan"
    (Runspec.to_header
       (quickstart
          [ Runspec.Crash_replies (Endpoint.ds, 1);
            Runspec.Crash_replies (Endpoint.vm, 1) ]));
  expect_error "non-core crash target" ~needle:"mfs"
    (Runspec.to_header (quickstart [ Runspec.Crash_replies (Endpoint.mfs, 1) ]));
  expect_error "custom spec name" ~needle:"custom"
    (Runspec.to_header
       { (quickstart []) with
         Runspec.rs_conf = Sysconf.uniform ~name:"custom" Policy.enhanced });
  expect_error "unknown workload" ~needle:"nope"
    (Runspec.to_header { (quickstart []) with Runspec.rs_workload = "nope" })

(* ---------------- arming equivalence ------------------------------ *)

(* The reference closures, as each layer installed them before the
   descriptor path existed. *)
let reference_fire_once kernel site action =
  let fired = ref false in
  Kernel.set_fault_hook kernel
    (Some
       (fun s ->
          if (not !fired) && Kernel.compare_site s site = 0 then begin
            fired := true;
            Some action
          end
          else None))

let reference_multi kernel faults =
  let armed = List.map (fun (site, action) -> (site, action, ref false)) faults in
  Kernel.set_fault_hook kernel
    (Some
       (fun s ->
          let rec find = function
            | [] -> None
            | (site, action, fired) :: rest ->
              if (not !fired) && Kernel.compare_site s site = 0 then begin
                fired := true;
                Some action
              end
              else find rest
          in
          find armed))

let reference_crash_replies ~count kernel ep =
  let armed = ref count in
  Kernel.set_fault_hook kernel
    (Some
       (fun site ->
          if !armed > 0
             && site.Kernel.site_ep = ep
             && site.Kernel.site_kind = Kernel.Op_reply
             && Kernel.window_is_open kernel ep
          then begin
            decr armed;
            Some (Kernel.F_crash "injected for tracing")
          end
          else None))

let classify halt (r : Testsuite.results) =
  match halt with
  | Kernel.H_shutdown _ -> Campaign.Shutdown
  | Kernel.H_panic _ | Kernel.H_hang -> Campaign.Crash
  | Kernel.H_completed status ->
    if not r.Testsuite.complete then Campaign.Crash
    else if r.Testsuite.failed > 0 || status <> 0 then Campaign.Fail
    else Campaign.Pass

let counters sys =
  let k = System.kernel sys in
  (Kernel.total_ops k, Kernel.now k, Kernel.crashes k, Kernel.restarts k)

let reference_suite_run conf arm =
  let sys = System.build ~seed:42 conf in
  arm (System.kernel sys);
  let halt = System.run sys ~root:Testsuite.driver in
  (counters sys, classify halt (Testsuite.parse_results (System.log_lines sys)))

let described_suite_run conf faults =
  let sys, halt =
    Runspec.run
      { Runspec.rs_seed = 42;
        rs_arch = Kernel.Microkernel;
        rs_conf = conf;
        rs_workload = "suite";
        rs_faults = faults }
  in
  (counters sys, classify halt (Testsuite.parse_results (System.log_lines sys)))

let sites =
  lazy
    (Campaign.select_sites ~seed:43 ~sample:8
       (Campaign.profile_sites ~seed:42 Policy.enhanced))

let check_same label (ref_counters, ref_outcome) (counters, outcome) =
  let ops, now, crashes, restarts = counters in
  let ops', now', crashes', restarts' = ref_counters in
  Alcotest.(check string) (label ^ " outcome")
    (Campaign.outcome_name ref_outcome) (Campaign.outcome_name outcome);
  Alcotest.(check int) (label ^ " total_ops") ops' ops;
  Alcotest.(check int) (label ^ " now") now' now;
  Alcotest.(check int) (label ^ " crashes") crashes' crashes;
  Alcotest.(check int) (label ^ " restarts") restarts' restarts

let test_campaign_arming () =
  let sites = Lazy.force sites in
  Alcotest.(check int) "eight sites" 8 (List.length sites);
  List.iter
    (fun policy ->
       let conf = Sysconf.uniform policy in
       List.iter
         (fun site ->
            let action = Edfi.action_for Edfi.Fail_stop site in
            let label = policy.Policy.name ^ " " ^ Kernel.site_to_string site in
            let reference =
              reference_suite_run conf (fun k ->
                  reference_fire_once k site action)
            in
            check_same label reference
              (described_suite_run conf [ Runspec.At_site (site, action) ]);
            Alcotest.(check string) (label ^ " run_one_conf")
              (Campaign.outcome_name (snd reference))
              (Campaign.outcome_name
                 (Campaign.run_one_conf ~seed:42 conf site action)))
         sites)
    [ Policy.enhanced; Policy.stateless ]

let test_multi_fault_arming () =
  let conf = Sysconf.uniform Policy.enhanced in
  let rec pairs = function
    | a :: b :: rest -> [ a; b ] :: pairs rest
    | _ -> []
  in
  List.iter
    (fun group ->
       let faults =
         List.map (fun s -> (s, Edfi.action_for Edfi.Fail_stop s)) group
       in
       let label = String.concat " + " (List.map Kernel.site_to_string group) in
       check_same label
         (reference_suite_run conf (fun k -> reference_multi k faults))
         (described_suite_run conf
            (List.map (fun (s, a) -> Runspec.At_site (s, a)) faults)))
    (pairs (Lazy.force sites))

let test_crash_journal_bytes () =
  let header =
    match Runspec.make_header ~crash:"ds" ~crash_count:3 () with
    | Ok h -> h
    | Error m -> Alcotest.fail m
  in
  let reference =
    let w = Journal.to_memory header in
    let sys =
      System.build ~seed:42 ~journal:w (Sysconf.uniform Policy.enhanced)
    in
    reference_crash_replies ~count:3 (System.kernel sys) Endpoint.ds;
    ignore (System.run sys ~root:Workgen.quickstart : Kernel.halt);
    Journal.close w;
    Journal.contents w
  in
  let described =
    let spec =
      match Runspec.of_header header with
      | Ok spec -> spec
      | Error m -> Alcotest.fail m
    in
    let w = Journal.to_memory header in
    let sys, _ = Runspec.run ~journal:w spec in
    Journal.close w;
    Alcotest.(check int) "three crashes injected" 3
      (Kernel.crashes (System.kernel sys));
    Journal.contents w
  in
  Alcotest.(check bool) "journal bytes identical" true
    (String.equal reference described)

let () =
  Alcotest.run "osiris_runspec"
    [ ( "header",
        [ Alcotest.test_case "of_header/to_header round trip" `Quick
            test_header_round_trip;
          Alcotest.test_case "to_header refusals" `Quick
            test_to_header_refusals ] );
      ( "arming",
        [ Alcotest.test_case "campaign fire-once equivalence" `Quick
            test_campaign_arming;
          Alcotest.test_case "multi-fault equivalence" `Quick
            test_multi_fault_arming;
          Alcotest.test_case "crash-replies journal bytes" `Quick
            test_crash_journal_bytes ] ) ]
