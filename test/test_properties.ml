(* System-level properties:

   - the paper's central guarantee, exhaustively: under the fail-stop
     model the OSIRIS policies never suffer an uncontrolled crash, for
     EVERY fault site the workload triggers;
   - total robustness: any (site, fault, policy) run halts with a
     classified outcome and no OCaml exception escapes;
   - policy transparency: without faults, randomly generated user
     programs observe identical behaviour under every recovery policy
     and architecture (recovery machinery is invisible when nothing
     crashes). *)

open Prog.Syntax

(* ---------------- exhaustive fail-stop guarantee ------------------- *)

let test_fail_stop_never_crashes_exhaustive () =
  let sites = Campaign.profile_sites Policy.enhanced in
  Alcotest.(check bool) "enough sites" true (List.length sites > 400);
  let bad = ref [] in
  List.iter
    (fun site ->
       match Campaign.run_one_conf (Sysconf.uniform Policy.enhanced) site
               (Kernel.F_crash "x") with
       | Campaign.Crash -> bad := site :: !bad
       | _ -> ())
    sites;
  Alcotest.(check (list string)) "no uncontrolled crash at any site" []
    (List.map Kernel.site_to_string !bad)

(* ---------------- total robustness -------------------------------- *)

let policies =
  [| Policy.stateless; Policy.naive; Policy.pessimistic; Policy.enhanced;
     Policy.enhanced_unoptimized; Policy.enhanced_replay;
     Policy.enhanced_snapshot |]

let actions =
  [| Kernel.F_crash "p"; Kernel.F_hang; Kernel.F_corrupt_store;
     Kernel.F_drop_store; Kernel.F_corrupt_msg; Kernel.F_skip_handler;
     Kernel.F_benign |]

let all_sites = lazy (Array.of_list (Campaign.profile_sites Policy.enhanced))

let prop_any_fault_halts =
  QCheck.Test.make ~name:"any (site, fault, policy) run halts classified"
    ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (si, ai, pi_) ->
       let sites = Lazy.force all_sites in
       let site = sites.(si mod Array.length sites) in
       let action = actions.(ai mod Array.length actions) in
       let policy = policies.(pi_ mod Array.length policies) in
       match Campaign.run_one_conf (Sysconf.uniform policy) site action with
       | Campaign.Pass | Campaign.Fail | Campaign.Shutdown | Campaign.Crash ->
         true)

let prop_fault_runs_deterministic =
  QCheck.Test.make ~name:"fault runs are deterministic" ~count:20
    QCheck.(pair small_nat small_nat)
    (fun (si, pi_) ->
       let sites = Lazy.force all_sites in
       let site = sites.(si mod Array.length sites) in
       let policy = policies.(pi_ mod Array.length policies) in
       let a = Campaign.run_one_conf (Sysconf.uniform policy) site (Kernel.F_crash "d") in
       let b = Campaign.run_one_conf (Sysconf.uniform policy) site (Kernel.F_crash "d") in
       a = b)

let test_fail_stop_never_crashes_pessimistic () =
  (* The same guarantee under the pessimistic policy, over a broad
     sample (the enhanced case is exhaustive above). *)
  let sites =
    Campaign.select_sites ~sample:250 (Campaign.profile_sites Policy.enhanced)
  in
  let bad = ref [] in
  List.iter
    (fun site ->
       match Campaign.run_one_conf (Sysconf.uniform Policy.pessimistic) site
               (Kernel.F_crash "x") with
       | Campaign.Crash -> bad := site :: !bad
       | _ -> ())
    sites;
  Alcotest.(check (list string)) "no uncontrolled crash (pessimistic)" []
    (List.map Kernel.site_to_string !bad)

let test_multi_fault_no_uncontrolled_crash () =
  (* The single-fault assumption (Section II-E) protects the recovery
     code itself; multiple data-path faults are handled sequentially and
     must still never produce an uncontrolled crash under fail-stop. *)
  let rows =
    Campaign.survivability_multi ~sample:25 ~k:2 Edfi.Fail_stop
      [ Policy.enhanced ]
  in
  List.iter
    (fun r -> Alcotest.(check int) "no crashes at k=2" 0 r.Campaign.crash)
    rows

(* ---------------- policy transparency ----------------------------- *)

(* A tiny workload AST compiled to a user program whose observable
   behaviour is a stream of log lines. *)
type act =
  | A_file_roundtrip of int * string
  | A_mkdir_rmdir of int
  | A_ds of int * int
  | A_pipe of string
  | A_getpid_parity
  | A_sbrk of int
  | A_fork of act list
  | A_exec_true

let rec act_gen depth =
  QCheck.Gen.(
    let base =
      [ map2 (fun i s -> A_file_roundtrip (i mod 8, s))
          small_nat (string_size ~gen:(char_range 'a' 'z') (int_range 1 24));
        map (fun i -> A_mkdir_rmdir (i mod 8)) small_nat;
        map2 (fun k v -> A_ds (k mod 8, v)) small_nat small_int;
        map (fun s -> A_pipe s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 40));
        return A_getpid_parity;
        map (fun n -> A_sbrk ((n mod 8) * 1024)) small_nat;
        return A_exec_true ]
    in
    if depth = 0 then oneof base
    else
      frequency
        [ (6, oneof base);
          (1, map (fun acts -> A_fork acts)
               (list_size (int_range 1 3) (act_gen (depth - 1)))) ])

let rec run_act act =
  match act with
  | A_file_roundtrip (i, payload) ->
    let path = Printf.sprintf "/tmp/prop%d" i in
    let* fd = Syscall.open_ path Message.creat in
    if fd < 0 then Syscall.print "open failed"
    else
      let* _ = Syscall.write ~fd payload in
      let* _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      let* r = Syscall.read ~fd ~len:(String.length payload) in
      let* _ = Syscall.close fd in
      let* _ = Syscall.unlink path in
      Syscall.print
        (match r with
         | Ok s when s = payload -> "file ok " ^ string_of_int (String.length s)
         | Ok s -> "file mismatch " ^ s
         | Error e -> "file err " ^ Errno.to_string e)
  | A_mkdir_rmdir i ->
    let path = Printf.sprintf "/tmp/propd%d" i in
    let* a = Syscall.mkdir path in
    let* b = Syscall.rmdir path in
    Syscall.print (Printf.sprintf "dir %d %d" a b)
  | A_ds (k, v) ->
    let key = Printf.sprintf "prop.%d" k in
    let* _ = Syscall.ds_publish ~key ~value:v in
    let* r = Syscall.ds_retrieve ~key in
    Syscall.print
      (match r with
       | Ok got -> Printf.sprintf "ds %d" got
       | Error e -> "ds err " ^ Errno.to_string e)
  | A_pipe payload ->
    let* p = Syscall.pipe in
    (match p with
     | Error e -> Syscall.print ("pipe err " ^ Errno.to_string e)
     | Ok (rfd, wfd) ->
       let* _ = Syscall.write ~fd:wfd payload in
       let* r = Syscall.read ~fd:rfd ~len:(String.length payload) in
       let* _ = Syscall.close rfd in
       let* _ = Syscall.close wfd in
       Syscall.print
         (match r with
          | Ok s when s = payload -> "pipe ok"
          | _ -> "pipe bad"))
  | A_getpid_parity ->
    let* pid = Syscall.getpid in
    Syscall.print (Printf.sprintf "pid>0 %b" (pid > 0))
  | A_sbrk n ->
    let* b0 = Syscall.brk_current in
    let* b1 = Syscall.sbrk n in
    Syscall.print (Printf.sprintf "sbrk %d" (b1 - b0))
  | A_fork acts ->
    let* pid = Syscall.fork in
    if pid = 0 then
      let* () = Prog.iter_list run_act acts in
      Syscall.exit 0
    else
      let* _, status = Syscall.waitpid pid in
      Syscall.print (Printf.sprintf "child %d" status)
  | A_exec_true ->
    let* pid = Syscall.fork in
    if pid = 0 then
      let* _ = Syscall.exec "/bin/true" 0 in
      Syscall.exit 9
    else
      let* _, status = Syscall.waitpid pid in
      Syscall.print (Printf.sprintf "true %d" status)

let program_of acts =
  let* () = Prog.iter_list run_act acts in
  Syscall.exit 0

let observe ?(arch = Kernel.Microkernel) policy acts =
  let sys = System.build ~arch (Sysconf.uniform policy) in
  let halt = System.run sys ~root:(program_of acts) in
  (* Compare only the program's own output: server diagnostics ("pm:
     fork", "rs: heartbeat N") are timing-dependent — policies with
     different instrumentation costs interleave timer-driven lines
     differently without changing user-visible behaviour. *)
  let own line =
    not (String.contains line ':')
    || String.length line < 3
    || not (String.sub line 0 3 = "pm:" || String.sub line 0 3 = "ds:"
            || String.sub line 0 3 = "rs:" || String.sub line 0 3 = "vm:")
  in
  let own line =
    own line
    && not (String.length line >= 4
            && (String.sub line 0 4 = "vfs:" || String.sub line 0 4 = "mfs:"))
  in
  (Kernel.halt_to_string halt, List.filter own (System.log_lines sys))

let arb_acts =
  QCheck.make
    ~print:(fun acts -> Printf.sprintf "<%d actions>" (List.length acts))
    QCheck.Gen.(list_size (int_range 1 6) (act_gen 1))

let prop_policies_transparent =
  QCheck.Test.make
    ~name:"random programs behave identically under every policy" ~count:25
    arb_acts
    (fun acts ->
       let reference = observe Policy.none acts in
       List.for_all
         (fun policy -> observe policy acts = reference)
         [ Policy.stateless; Policy.pessimistic; Policy.enhanced;
           Policy.enhanced_unoptimized; Policy.enhanced_snapshot ])

let prop_arch_transparent =
  QCheck.Test.make
    ~name:"random programs behave identically on both architectures"
    ~count:25 arb_acts
    (fun acts ->
       observe ~arch:Kernel.Microkernel Policy.enhanced acts
       = observe ~arch:Kernel.Monolithic Policy.enhanced acts)

let prop_runs_deterministic =
  QCheck.Test.make ~name:"random programs run deterministically" ~count:25
    arb_acts
    (fun acts ->
       observe Policy.enhanced acts = observe Policy.enhanced acts)

(* ---------------- filesystem invariants (fsck) -------------------- *)

let fsck sys =
  match Mfs.check_invariants (System.mfs sys) ~bdev:(System.bdev sys) with
  | Ok () -> true
  | Error m ->
    Printf.printf "fsck: %s\n%!" m;
    false

let test_fsck_after_boot () =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  Alcotest.(check bool) "clean after boot" true (fsck sys)

let test_fsck_detects_corruption () =
  (* Mutation check: the checker must actually catch broken states. *)
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let root =
    let* fd = Syscall.open_ "/tmp/fsckx" Message.creat in
    let* _ = Syscall.write ~fd (String.make 2048 'c') in
    let* _ = Syscall.close fd in
    Syscall.exit 0
  in
  let (_ : Kernel.halt) = System.run sys ~root in
  Alcotest.(check bool) "clean before mutation" true (fsck sys);
  (* Smash the free-list head to point at an allocated block. *)
  Mfs.corrupt_for_test (System.mfs sys);
  Alcotest.(check bool) "corruption detected" false (fsck sys)

let test_fsck_after_suite () =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
  Alcotest.(check bool) "clean after the whole suite" true (fsck sys)

let prop_fsck_random_workloads =
  QCheck.Test.make
    ~name:"filesystem invariants hold after random workloads" ~count:25
    arb_acts
    (fun acts ->
       let sys = System.build (Sysconf.uniform Policy.enhanced) in
       let (_ : Kernel.halt) = System.run sys ~root:(program_of acts) in
       fsck sys)

let prop_fsck_after_faulted_runs =
  QCheck.Test.make
    ~name:"filesystem invariants hold after fail-stop recovery" ~count:15
    QCheck.small_nat
    (fun si ->
       let sites = Lazy.force all_sites in
       let site = sites.(si mod Array.length sites) in
       let sys = System.build (Sysconf.uniform Policy.enhanced) in
       let fired = ref false in
       Kernel.set_fault_hook (System.kernel sys)
         (Some
            (fun s ->
               if (not !fired) && Kernel.compare_site s site = 0 then begin
                 fired := true;
                 Some (Kernel.F_crash "prop")
               end
               else None));
       let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
       fsck sys)

let () =
  Alcotest.run "osiris_properties"
    [ ( "guarantee",
        [ Alcotest.test_case "fail-stop never crashes (exhaustive)" `Slow
            test_fail_stop_never_crashes_exhaustive;
          Alcotest.test_case "pessimistic: never crashes (sampled)" `Slow
            test_fail_stop_never_crashes_pessimistic ] );
      ( "robustness",
        [ QCheck_alcotest.to_alcotest prop_any_fault_halts;
          QCheck_alcotest.to_alcotest prop_fault_runs_deterministic;
          Alcotest.test_case "double faults stay controlled" `Quick
            test_multi_fault_no_uncontrolled_crash ] );
      ( "transparency",
        [ QCheck_alcotest.to_alcotest prop_policies_transparent;
          QCheck_alcotest.to_alcotest prop_arch_transparent;
          QCheck_alcotest.to_alcotest prop_runs_deterministic ] );
      ( "fsck",
        [ Alcotest.test_case "after boot" `Quick test_fsck_after_boot;
          Alcotest.test_case "after the suite" `Quick test_fsck_after_suite;
          Alcotest.test_case "detects corruption" `Quick
            test_fsck_detects_corruption;
          QCheck_alcotest.to_alcotest prop_fsck_random_workloads;
          QCheck_alcotest.to_alcotest prop_fsck_after_faulted_runs ] ) ]
