(* Compartment-layer tests: refactor equivalence against recorded seed
   fixtures, the profile-superset assumption behind the campaign
   methodology, Sysconf parsing/validation, per-process policy
   resolution, restart budgets, call_retry exhaustion, the graduated
   hardening boundary, and mixed-policy observability attribution. *)

open Prog.Syntax

let halt_t = Alcotest.testable (Fmt.of_to_string Kernel.halt_to_string) ( = )

(* ---------------- refactor equivalence fixtures ------------------- *)
(* Recorded from the pre-compartment tree at seed 42: the suite run and
   its post-run server images, per evaluated policy. A uniform Sysconf
   must reproduce them byte for byte. *)

let image_fixtures =
  [ ("stateless",
     [ (Endpoint.pm, "61302470435e506b0ecdc800bda5c51b");
       (Endpoint.vfs, "0c2dd1a9ed80f52425ee4ddfe7e36c00");
       (Endpoint.vm, "b9723263ad6878645d3bc7c134d5dd52");
       (Endpoint.ds, "1436b48ac77d8bfbac738b3232c031ee");
       (Endpoint.rs, "a735656cf2fcf7e4f1b4a333c7af495b") ]);
    ("naive",
     [ (Endpoint.pm, "61302470435e506b0ecdc800bda5c51b");
       (Endpoint.vfs, "0c2dd1a9ed80f52425ee4ddfe7e36c00");
       (Endpoint.vm, "b9723263ad6878645d3bc7c134d5dd52");
       (Endpoint.ds, "1436b48ac77d8bfbac738b3232c031ee");
       (Endpoint.rs, "a735656cf2fcf7e4f1b4a333c7af495b") ]);
    ("pessimistic",
     [ (Endpoint.pm, "61302470435e506b0ecdc800bda5c51b");
       (Endpoint.vfs, "0c2dd1a9ed80f52425ee4ddfe7e36c00");
       (Endpoint.vm, "b9723263ad6878645d3bc7c134d5dd52");
       (Endpoint.ds, "5472449538bc984453035c7257dd98fe");
       (Endpoint.rs, "a010ebb28224d81dd0f13c1305391387") ]);
    ("enhanced",
     [ (Endpoint.pm, "61302470435e506b0ecdc800bda5c51b");
       (Endpoint.vfs, "0c2dd1a9ed80f52425ee4ddfe7e36c00");
       (Endpoint.vm, "b9723263ad6878645d3bc7c134d5dd52");
       (Endpoint.ds, "5472449538bc984453035c7257dd98fe");
       (Endpoint.rs, "a010ebb28224d81dd0f13c1305391387") ]) ]

let test_uniform_suite_fixtures () =
  List.iter
    (fun (p : Policy.t) ->
       let sys = System.build ~seed:42 (Sysconf.uniform p) in
       let halt = System.run sys ~root:Testsuite.driver in
       let r = Testsuite.parse_results (System.log_lines sys) in
       Alcotest.check halt_t (p.Policy.name ^ ": halt") (Kernel.H_completed 0)
         halt;
       Alcotest.(check bool) (p.Policy.name ^ ": complete") true
         r.Testsuite.complete;
       Alcotest.(check int) (p.Policy.name ^ ": passed") 102
         r.Testsuite.passed;
       Alcotest.(check int) (p.Policy.name ^ ": failed") 0 r.Testsuite.failed;
       let expected = List.assoc p.Policy.name image_fixtures in
       List.iter
         (fun (ep, digest) ->
            match Kernel.server_image (System.kernel sys) ep with
            | None -> Alcotest.failf "%s: no image for ep %d" p.Policy.name ep
            | Some img ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s image digest" p.Policy.name
                   (Endpoint.server_name ep))
                digest
                (Digest.to_hex (Digest.bytes img)))
         expected)
    Policy.all_evaluated

(* Survivability rows at seed 42, sample 6, fail-stop — recorded from
   the identity-hash site sampler. The uniform diagonal of the matrix
   must still produce them (Tables II/III in miniature). *)
let row_fixtures =
  [ ("stateless", 5, 0, 0, 1);
    ("naive", 5, 0, 0, 1);
    ("pessimistic", 0, 0, 6, 0);
    ("enhanced", 0, 0, 6, 0) ]

let check_rows label (rows : Campaign.row list) =
  List.iter2
    (fun (name, pass, fail, shutdown, crash) (r : Campaign.row) ->
       Alcotest.(check string) (label ^ ": row label") name r.Campaign.row_policy;
       Alcotest.(check int) (label ^ ": " ^ name ^ " runs") 6 r.Campaign.runs;
       Alcotest.(check int) (label ^ ": " ^ name ^ " pass") pass r.Campaign.pass;
       Alcotest.(check int) (label ^ ": " ^ name ^ " fail") fail r.Campaign.fail;
       Alcotest.(check int) (label ^ ": " ^ name ^ " shutdown") shutdown
         r.Campaign.shutdown;
       Alcotest.(check int) (label ^ ": " ^ name ^ " crash") crash
         r.Campaign.crash)
    row_fixtures rows

let test_survivability_fixtures () =
  let rows =
    Campaign.survivability_matrix ~seed:42 ~sample:6 Edfi.Fail_stop
      (List.map Sysconf.uniform Policy.all_evaluated)
  in
  check_rows "survivability" rows

let test_matrix_uniform_diagonal () =
  (* A uniform spec's row does not depend on the other specs in the
     sweep: with a mixed spec appended, the uniform diagonal still
     gives the Tables II/III fixture rows. *)
  let rows =
    Campaign.survivability_matrix ~seed:42 ~sample:6 Edfi.Fail_stop
      (List.map Sysconf.uniform Policy.all_evaluated
       @ [ Sysconf.assign (Sysconf.uniform Policy.enhanced) Endpoint.ds
             Policy.stateless ])
  in
  Alcotest.(check int) "diagonal plus the mixed row" 5 (List.length rows);
  check_rows "matrix diagonal" (List.filteri (fun i _ -> i < 4) rows)

(* ---------------- profile-superset assumption --------------------- *)

let test_profile_superset () =
  (* The campaign profiles fault sites once, under enhanced, and
     injects the same set under every policy. That is only sound if
     every evaluation policy's triggered-site stream is a subset of the
     enhanced stream — asserted here instead of assumed. *)
  let enh = Campaign.profile_sites ~seed:42 Policy.enhanced in
  let enh_set = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace enh_set s ()) enh;
  Alcotest.(check bool) "enhanced profiles some sites" true
    (List.length enh > 0);
  List.iter
    (fun (p : Policy.t) ->
       let sites = Campaign.profile_sites ~seed:42 p in
       let missing =
         List.filter (fun s -> not (Hashtbl.mem enh_set s)) sites
       in
       Alcotest.(check int)
         (p.Policy.name ^ ": sites missing from enhanced stream") 0
         (List.length missing))
    Policy.all_evaluated

(* ---------------- mixed-policy matrix ----------------------------- *)

let mixed_specs () =
  [ Sysconf.uniform Policy.enhanced;
    Sysconf.assign (Sysconf.uniform Policy.enhanced) Endpoint.ds
      Policy.stateless;
    Sysconf.assign
      (Sysconf.assign (Sysconf.uniform Policy.pessimistic) Endpoint.vm
         Policy.enhanced)
      Endpoint.ds Policy.naive ]

let test_matrix_deterministic () =
  let run () =
    Campaign.survivability_matrix ~seed:42 ~sample:4 Edfi.Fail_stop
      (mixed_specs ())
  in
  let a = run () and b = run () in
  Alcotest.(check int) "three rows" 3 (List.length a);
  List.iter2
    (fun (x : Campaign.row) (y : Campaign.row) ->
       Alcotest.(check string) "same label" x.Campaign.row_policy
         y.Campaign.row_policy;
       Alcotest.(check bool) "identical row" true (x = y))
    a b;
  let labels = List.map (fun r -> r.Campaign.row_policy) a in
  Alcotest.(check (list string)) "derived names"
    [ "enhanced"; "enhanced+ds=stateless";
      "pessimistic+vm=enhanced+ds=naive" ]
    labels

(* ---------------- per-process resolution -------------------------- *)

let test_mixed_build_resolution () =
  let conf =
    Sysconf.assign (Sysconf.uniform Policy.enhanced) Endpoint.ds
      Policy.stateless
  in
  let sys = System.build ~seed:42 conf in
  let k = System.kernel sys in
  Alcotest.(check string) "ds resolved" "stateless"
    (System.policy_of sys Endpoint.ds).Policy.name;
  Alcotest.(check string) "vfs falls through" "enhanced"
    (System.policy_of sys Endpoint.vfs).Policy.name;
  Alcotest.(check (option string)) "kernel proc policy: ds"
    (Some "stateless")
    (Kernel.proc_policy_name k Endpoint.ds);
  Alcotest.(check (option string)) "kernel proc policy: vfs"
    (Some "enhanced")
    (Kernel.proc_policy_name k Endpoint.vfs);
  let s = Kernel.server_stats k Endpoint.ds in
  Alcotest.(check string) "stats carry policy" "stateless"
    s.Kernel.ss_policy;
  (* The spec itself round-trips out of the built system. *)
  Alcotest.(check string) "sysconf kept" "enhanced+ds=stateless"
    (Sysconf.name (System.sysconf sys))

(* ---------------- Sysconf parsing and validation ------------------ *)

let test_sysconf_parse () =
  (match Sysconf.parse "enhanced,ds=stateless,vm=pessimistic/3" with
   | Error e -> Alcotest.failf "parse failed: %s" e
   | Ok conf ->
     Alcotest.(check string) "default" "enhanced"
       (Sysconf.default conf).Policy.name;
     Alcotest.(check string) "ds override" "stateless"
       (Sysconf.policy_for conf Endpoint.ds).Policy.name;
     Alcotest.(check string) "vm override" "pessimistic"
       (Sysconf.policy_for conf Endpoint.vm).Policy.name;
     Alcotest.(check (option int)) "vm budget" (Some 3)
       (Sysconf.budget_for conf Endpoint.vm);
     Alcotest.(check (option int)) "ds has no budget" None
       (Sysconf.budget_for conf Endpoint.ds);
     Alcotest.(check string) "derived name"
       "enhanced+ds=stateless+vm=pessimistic/3" (Sysconf.name conf));
  (match Sysconf.parse "enhanced,ds=enhanced-grad2" with
   | Error e -> Alcotest.failf "graduated parse failed: %s" e
   | Ok conf ->
     Alcotest.(check (option int)) "graduated threshold" (Some 2)
       (Sysconf.policy_for conf Endpoint.ds).Policy.graduated);
  (match Sysconf.parse "no-such-policy" with
   | Ok _ -> Alcotest.fail "unknown default accepted"
   | Error _ -> ());
  (match Sysconf.parse "enhanced,bogus=naive" with
   | Ok _ -> Alcotest.fail "unknown server accepted"
   | Error _ -> ());
  match Sysconf.parse "enhanced,ds=naive/x" with
  | Ok _ -> Alcotest.fail "bad budget accepted"
  | Error _ -> ()

let test_sysconf_duplicate_rejected () =
  Alcotest.check_raises "duplicate endpoint"
    (Invalid_argument
       (Printf.sprintf "Sysconf.make: duplicate compartment for ep %d"
          Endpoint.ds))
    (fun () ->
       ignore
         (Sysconf.make ~default:Policy.enhanced
            [ Compartment.make Endpoint.ds Policy.naive;
              Compartment.make Endpoint.ds Policy.stateless ]))

let test_sysconf_validate () =
  (match Sysconf.validate (Sysconf.uniform Policy.enhanced) with
   | Ok () -> ()
   | Error es ->
     Alcotest.failf "uniform spec rejected: %s" (String.concat "; " es));
  let bad_budget =
    Sysconf.make ~default:Policy.enhanced
      [ Compartment.make ~budget:(-1) Endpoint.ds Policy.enhanced ]
  in
  (match Sysconf.validate bad_budget with
   | Ok () -> Alcotest.fail "negative budget accepted"
   | Error _ -> ());
  let critical_unrecoverable =
    Sysconf.make ~default:Policy.enhanced
      [ Compartment.make ~criticality:Compartment.Critical Endpoint.vfs
          Policy.none ]
  in
  (match Sysconf.validate critical_unrecoverable with
   | Ok () -> Alcotest.fail "Critical + No_recovery accepted"
   | Error _ -> ());
  Alcotest.check_raises "System.build validates"
    (Invalid_argument
       "System.build: invalid sysconf: ds: negative restart budget -1")
    (fun () -> ignore (System.build bad_budget))

(* ---------------- restart budgets (mini harness) ------------------ *)
(* A miniature system in the style of test_kernel: stub PM, a
   crash-on-demand echo server at the DS endpoint, and the real RS —
   here built with per-endpoint policies and budgets. *)

let pm_stub () : Kernel.server =
  let image = Memimage.create ~name:"pm-stub" ~size:4096 in
  let handle src msg =
    match msg with
    | Message.Exit { status } ->
      let* _ = Prog.kcall (Prog.K_kill { proc = src; status }) in
      Prog.return ()
    | Message.Getpid -> Prog.reply src (Message.R_ok src)
    | _ -> Srvlib.reply_err src Errno.ENOSYS
  in
  { Kernel.srv_ep = Endpoint.pm;
    srv_name = "pm-stub";
    srv_image = image;
    srv_clone_extra_kb = 0;
    srv_init = Prog.return ();
    srv_loop = Srvlib.simple_loop handle;
    srv_multithreaded = false }

let echo_server () : Kernel.server =
  let image = Memimage.create ~name:"echo" ~size:4096 in
  let cell = Layout.Cell.alloc_int image "stored" in
  let handle src msg =
    match msg with
    | Message.Ds_retrieve { key } ->
      Prog.reply src (Message.R_ds_value { value = String.length key })
    | Message.Ds_publish { key = "crash"; _ } ->
      (* In-window fail-stop: recoverable under rollback policies. *)
      let* () = Prog.Mem.set_cell cell 666 in
      Prog.fail "requested crash"
    | Message.Ds_publish { key = "crashafter"; value = j } ->
      (* j read-only SEEP crossings, then crash: probes the graduated
         hardening boundary. *)
      let rec diags n =
        if n = 0 then Prog.fail "crash after diags"
        else
          let* () = Srvlib.diag "echo: seep" in
          diags (n - 1)
      in
      diags j
    | Message.Ds_publish { value; _ } ->
      let* () = Prog.Mem.set_cell cell value in
      Srvlib.reply_ok src 0
    | Message.Ping -> Prog.reply src Message.R_pong
    | _ -> Srvlib.reply_err src Errno.ENOSYS
  in
  { Kernel.srv_ep = Endpoint.ds;
    srv_name = "echo";
    srv_image = image;
    srv_clone_extra_kb = 0;
    srv_init = Prog.Mem.set_cell cell 0;
    srv_loop = Srvlib.simple_loop handle;
    srv_multithreaded = false }

let mini ?(policy = Policy.enhanced) ?(policies = []) ?(budgets = [])
    ?fault_hook user_prog =
  let log = ref [] in
  let base =
    Kernel.default_config ~policies policy
      ~lookup_program:(fun _ -> None) ()
  in
  let cfg =
    { base with Kernel.log_sink = Some (fun l -> log := l :: !log) }
  in
  let kernel = Kernel.create cfg in
  Kernel.add_server kernel (pm_stub ());
  Kernel.add_server kernel (echo_server ());
  Kernel.add_server kernel (Rs.server (Rs.create ~policies ~budgets policy));
  Kernel.boot kernel;
  (match fault_hook with
   | Some h -> Kernel.set_fault_hook kernel (Some h)
   | None -> ());
  let ep = Kernel.spawn_user kernel ~name:"u" ~prog:user_prog ~parent:0 in
  Kernel.set_halt_on_exit kernel ep;
  let halt = Kernel.run kernel in
  (kernel, halt, List.rev !log)

(* n in-window crashes, each expected to be virtualized as E_CRASH. *)
let crash_n_times n =
  let rec go i =
    if i = 0 then Syscall.exit 0
    else
      let* r =
        Prog.call Endpoint.ds (Message.Ds_publish { key = "crash"; value = 0 })
      in
      match r with
      | Message.R_err Errno.E_CRASH -> go (i - 1)
      | _ -> Syscall.exit 97
  in
  go n

let test_budget_allows_up_to_limit () =
  (* Budget 2: the first two crashes both recover. *)
  let kernel, halt, _ =
    mini ~budgets:[ (Endpoint.ds, 2) ] (crash_n_times 2)
  in
  Alcotest.check halt_t "both crashes virtualized" (Kernel.H_completed 0) halt;
  let s = Kernel.server_stats kernel Endpoint.ds in
  Alcotest.(check int) "two restarts" 2 s.Kernel.ss_restarts

let test_budget_exhaustion_shuts_down () =
  (* Budget 2: the third crash exceeds it — controlled shutdown, not a
     panic and not an endless crash loop. *)
  let _, halt, _ = mini ~budgets:[ (Endpoint.ds, 2) ] (crash_n_times 3) in
  match halt with
  | Kernel.H_shutdown reason ->
    Alcotest.(check bool)
      (Printf.sprintf "reason names the budget (%s)" reason)
      true
      (let has sub s =
         let n = String.length sub and m = String.length s in
         let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       has "restart budget" reason)
  | h -> Alcotest.failf "expected shutdown, got %s" (Kernel.halt_to_string h)

let test_no_budget_keeps_recovering () =
  (* Without a budget the same workload recovers indefinitely. *)
  let kernel, halt, _ = mini (crash_n_times 3) in
  Alcotest.check halt_t "unbudgeted run completes" (Kernel.H_completed 0) halt;
  let s = Kernel.server_stats kernel Endpoint.ds in
  Alcotest.(check int) "three restarts" 3 s.Kernel.ss_restarts

let test_unused_budget_costs_nothing () =
  (* A budget on an endpoint that never crashes must not perturb the
     virtual clock: the budget check is only interpreted on the
     recovery path. *)
  let prog =
    let* _ = Prog.call Endpoint.ds (Message.Ds_retrieve { key = "four" }) in
    Syscall.exit 0
  in
  let k1, h1, _ = mini prog in
  let k2, h2, _ = mini ~budgets:[ (Endpoint.ds, 5) ] prog in
  Alcotest.check halt_t "same halt" h1 h2;
  Alcotest.(check int) "same virtual time" (Kernel.now k1) (Kernel.now k2)

(* ---------------- call_retry exhaustion --------------------------- *)

let test_call_retry_exhaustion () =
  (* The DS reply site crashes on every activation: call_retry's three
     retries all crash too, and the caller finally sees E_CRASH after
     four attempts. *)
  let hook (site : Kernel.site) =
    if
      site.Kernel.site_ep = Endpoint.ds
      && site.Kernel.site_handler = Some Message.Tag.T_ds_retrieve
      && site.Kernel.site_kind = Kernel.Op_reply
      && site.Kernel.site_occ = 0
    then Some (Kernel.F_crash "persistent reply fault")
    else None
  in
  let prog =
    let* r = Srvlib.call_retry Endpoint.ds (Message.Ds_retrieve { key = "k" }) in
    match r with
    | Message.R_err Errno.E_CRASH -> Syscall.exit 0
    | _ -> Syscall.exit 98
  in
  let kernel, halt, _ = mini ~fault_hook:hook prog in
  Alcotest.check halt_t "retries exhausted into E_CRASH"
    (Kernel.H_completed 0) halt;
  let s = Kernel.server_stats kernel Endpoint.ds in
  Alcotest.(check int) "one restart per attempt" 4 s.Kernel.ss_restarts

let test_call_retry_transient_recovers () =
  (* A single transient crash: the first retry succeeds. *)
  let fired = ref false in
  let hook (site : Kernel.site) =
    if
      (not !fired)
      && site.Kernel.site_ep = Endpoint.ds
      && site.Kernel.site_handler = Some Message.Tag.T_ds_retrieve
      && site.Kernel.site_kind = Kernel.Op_reply
    then begin
      fired := true;
      Some (Kernel.F_crash "transient reply fault")
    end
    else None
  in
  let prog =
    let* r =
      Srvlib.call_retry Endpoint.ds (Message.Ds_retrieve { key = "four" })
    in
    match r with
    | Message.R_ds_value { value } -> Syscall.exit value
    | _ -> Syscall.exit 98
  in
  let _, halt, _ = mini ~fault_hook:hook prog in
  Alcotest.check halt_t "retry masked the crash" (Kernel.H_completed 4) halt

(* ---------------- graduated hardening boundary -------------------- *)

let graduated_run j =
  let prog =
    let* r =
      Prog.call Endpoint.ds (Message.Ds_publish { key = "crashafter"; value = j })
    in
    match r with
    | Message.R_err Errno.E_CRASH -> Syscall.exit 0
    | _ -> Syscall.exit 96
  in
  mini ~policy:(Policy.enhanced_graduated 3) prog

let test_graduated_at_threshold_recovers () =
  (* Exactly N = 3 SEEP crossings: the window is still open when the
     crash hits, so the fault is virtualized. *)
  let _, halt, _ = graduated_run 3 in
  Alcotest.check halt_t "window open at N crossings" (Kernel.H_completed 0)
    halt

let test_graduated_past_threshold_shuts_down () =
  (* N + 1 = 4 crossings: the policy hardened and crossing 4 closed the
     window — rollback is off the table, RS shuts the system down. *)
  let _, halt, _ = graduated_run 4 in
  match halt with
  | Kernel.H_shutdown _ -> ()
  | h ->
    Alcotest.failf "expected shutdown past the boundary, got %s"
      (Kernel.halt_to_string h)

(* ---------------- observability attribution ----------------------- *)

let test_events_carry_compartment_policy () =
  (* Mixed spec with a stateless DS: the crash and restart events (and
     the derived recovery span) name the crashed compartment's policy,
     not the system default. *)
  let conf =
    Sysconf.assign (Sysconf.uniform Policy.enhanced) Endpoint.ds
      Policy.stateless
  in
  let events = ref [] in
  let sys =
    System.build ~seed:7 ~event_hook:(fun ev -> events := ev :: !events) conf
  in
  let fired = ref false in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if
            (not !fired)
            && site.Kernel.site_ep = Endpoint.ds
            && site.Kernel.site_kind = Kernel.Op_reply
          then begin
            fired := true;
            Some (Kernel.F_crash "test fault")
          end
          else None));
  let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
  Alcotest.(check bool) "fault fired" true !fired;
  let events = List.rev !events in
  let crash_policies =
    List.filter_map
      (function
        | Kernel.E_crash { ep; policy; _ } when ep = Endpoint.ds ->
          Some policy
        | _ -> None)
      events
  in
  Alcotest.(check bool) "a DS crash was recorded" true
    (crash_policies <> []);
  List.iter
    (fun p -> Alcotest.(check string) "crash attributed" "stateless" p)
    crash_policies;
  let restart_policies =
    List.filter_map
      (function
        | Kernel.E_restart { ep; policy; _ } when ep = Endpoint.ds ->
          Some policy
        | _ -> None)
      events
  in
  List.iter
    (fun p -> Alcotest.(check string) "restart attributed" "stateless" p)
    restart_policies;
  let spans = Span.build events in
  match
    Span.find
      (fun s ->
         s.Span.sp_kind = Span.Recovery && s.Span.sp_ep = Endpoint.ds)
      spans
  with
  | None -> Alcotest.fail "no recovery span for DS"
  | Some s ->
    Alcotest.(check string) "span names the policy" "recovery [stateless]"
      s.Span.sp_name

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "osiris_compartment"
    [ ("equivalence",
       [ Alcotest.test_case "uniform suite fixtures" `Slow
           test_uniform_suite_fixtures;
         Alcotest.test_case "survivability fixtures" `Slow
           test_survivability_fixtures;
         Alcotest.test_case "matrix uniform diagonal" `Slow
           test_matrix_uniform_diagonal ]);
      ("profiling",
       [ Alcotest.test_case "evaluated policies profile a subset of enhanced"
           `Slow test_profile_superset ]);
      ("matrix",
       [ Alcotest.test_case "mixed matrix deterministic" `Slow
           test_matrix_deterministic ]);
      ("resolution",
       [ Alcotest.test_case "mixed build resolves per process" `Quick
           test_mixed_build_resolution ]);
      ("sysconf",
       [ Alcotest.test_case "parse" `Quick test_sysconf_parse;
         Alcotest.test_case "duplicate endpoint rejected" `Quick
           test_sysconf_duplicate_rejected;
         Alcotest.test_case "validate" `Quick test_sysconf_validate ]);
      ("budgets",
       [ Alcotest.test_case "recovers up to the limit" `Quick
           test_budget_allows_up_to_limit;
         Alcotest.test_case "exhaustion is a controlled shutdown" `Quick
           test_budget_exhaustion_shuts_down;
         Alcotest.test_case "no budget keeps recovering" `Quick
           test_no_budget_keeps_recovering;
         Alcotest.test_case "unused budget costs nothing" `Quick
           test_unused_budget_costs_nothing ]);
      ("call_retry",
       [ Alcotest.test_case "exhaustion after four attempts" `Quick
           test_call_retry_exhaustion;
         Alcotest.test_case "transient crash masked" `Quick
           test_call_retry_transient_recovers ]);
      ("graduated",
       [ Alcotest.test_case "window open at exactly N crossings" `Quick
           test_graduated_at_threshold_recovers;
         Alcotest.test_case "window closed at N+1 crossings" `Quick
           test_graduated_past_threshold_shuts_down ]);
      ("observability",
       [ Alcotest.test_case "events carry the compartment policy" `Slow
           test_events_carry_compartment_policy ]) ]
