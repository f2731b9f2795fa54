(* Crash recovery, step by step: reproduce the paper's Section III-C
   walkthrough. A fork() request crashes the Process Manager with a
   NULL-dereference analogue; the Recovery Server restarts a clone,
   rolls back the undo log, and virtualizes the error — and the same
   fault *after* the recovery window closes forces a controlled
   shutdown instead.

     dune exec examples/crash_recovery.exe *)

open Prog.Syntax

let demo_in_window () =
  print_endline "--- scenario 1: crash INSIDE the recovery window ------------";
  print_endline "fault: PM dies at the start of fork() handling";
  let events = ref [] in
  let sys =
    System.build
      ~event_hook:(fun ev -> events := ev :: !events)
      (Sysconf.uniform Policy.enhanced)
  in
  let fired = ref false in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if (not !fired)
             && site.Kernel.site_ep = Endpoint.pm
             && site.Kernel.site_handler = Some Message.Tag.T_fork
          then begin
            fired := true;
            Some (Kernel.F_crash "NULL dereference in do_fork()")
          end
          else None));
  let root =
    (* Call PM directly (without the libc retry) so the E_CRASH reply is
       visible, then retry by hand like the paper's shell would. *)
    let* r = Prog.call Endpoint.pm Message.Fork in
    match r with
    | Message.R_err Errno.E_CRASH ->
      let* () = Syscall.print "shell: fork failed with E_CRASH, retrying" in
      let* pid = Syscall.fork in
      if pid = 0 then Syscall.exit 0
      else
        let* _, status = Syscall.waitpid pid in
        let* () =
          Syscall.print (Printf.sprintf "shell: retried fork worked (child exited %d)" status)
        in
        Syscall.exit status
    | Message.R_fork _ -> Syscall.exit 50 (* fault did not fire *)
    | _ -> Syscall.exit 51
  in
  let halt = System.run sys ~root in
  List.iter (fun l -> print_endline ("  [console] " ^ l)) (System.log_lines sys);
  print_endline "recovery timeline (PM events):";
  List.iter (fun l -> print_endline ("  " ^ l))
    (Replay.aligned ~only:Endpoint.pm (List.rev !events));
  Printf.printf "outcome: %s, PM restarts: %d\n\n"
    (Kernel.halt_to_string halt)
    (Kernel.server_stats (System.kernel sys) Endpoint.pm).Kernel.ss_restarts

let demo_out_of_window () =
  print_endline "--- scenario 2: crash OUTSIDE the recovery window ------------";
  print_endline "fault: PM dies after telling VM about the new process";
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let armed = ref false in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          (* The second kernel call of the fork handler (K_go) happens
             after the state-modifying VM and VFS interactions closed
             the window. *)
          if (not !armed)
             && site.Kernel.site_ep = Endpoint.pm
             && site.Kernel.site_handler = Some Message.Tag.T_fork
             && site.Kernel.site_kind = Kernel.Op_kcall
             && site.Kernel.site_occ = 1
          then begin
            armed := true;
            Some (Kernel.F_crash "NULL dereference after sys_fork()")
          end
          else None));
  let root =
    let* pid = Syscall.fork in
    if pid = 0 then Syscall.exit 0
    else
      let* _, _ = Syscall.waitpid pid in
      Syscall.exit 0
  in
  let halt = System.run sys ~root in
  Printf.printf "outcome: %s\n" (Kernel.halt_to_string halt);
  print_endline
    "(rolling back would orphan the child VM/VFS already know about, so\n\
     OSIRIS refuses to guess and shuts down in a controlled way)\n"

let demo_persistent () =
  print_endline "--- scenario 3: persistent fault --------------------------";
  print_endline "fault: DS crashes EVERY time it looks up 'poison'";
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if site.Kernel.site_ep = Endpoint.ds
             && site.Kernel.site_handler = Some Message.Tag.T_ds_retrieve
             && site.Kernel.site_kind = Kernel.Op_load
             && site.Kernel.site_occ = 0
          then Some (Kernel.F_crash "persistent bug in lookup")
          else None));
  let root =
    let* v = Syscall.ds_retrieve ~key:"poison" in
    let* () =
      Syscall.print
        (match v with
         | Error Errno.E_CRASH ->
           "app: lookup failed persistently (E_CRASH) - handled like any error"
         | Error e -> "app: unexpected error " ^ Errno.to_string e
         | Ok _ -> "app: unexpectedly succeeded")
    in
    (* The rest of the system is alive and well. *)
    let* r = Syscall.ds_publish ~key:"alive" ~value:1 in
    Syscall.exit (if r >= 0 then 0 else 1)
  in
  let halt = System.run sys ~root in
  List.iter (fun l -> print_endline ("  [console] " ^ l)) (System.log_lines sys);
  Printf.printf "outcome: %s, DS recoveries: %d\n"
    (Kernel.halt_to_string halt)
    (Kernel.server_stats (System.kernel sys) Endpoint.ds).Kernel.ss_restarts;
  print_endline
    "(replaying the request would crash-loop; error virtualization turns\n\
     the persistent fault into an error code the app already handles)"

let () =
  demo_in_window ();
  demo_out_of_window ();
  demo_persistent ()
