type t = {
  sys_kernel : Kernel.t;
  sys_registry : Registry.t;
  sys_conf : Sysconf.t;
  sys_bdev : Bdev.t;
  sys_mfs : Mfs.t;
  sys_vfs : Vfs.t;
  sys_log : string list ref;  (* newest first *)
}

let core_servers = [ Endpoint.pm; Endpoint.vfs; Endpoint.vm; Endpoint.ds; Endpoint.rs ]

let summaries = [ Pm.summary; Vfs.summary; Vm.summary; Ds.summary; Rs.summary ]

(* /etc/data: a deterministic 1 KiB text file the shell utilities chew
   on. *)
let etc_data =
  let b = Buffer.create 1024 in
  let rec fill i =
    if Buffer.length b < 1024 then begin
      Buffer.add_string b (Printf.sprintf "line %04d of the osiris corpus\n" i);
      fill (i + 1)
    end
  in
  fill 0;
  Buffer.sub b 0 1024

let build ?(arch = Kernel.Microkernel) ?(seed = 42) ?max_crashes ?costs
    ?event_hook ?journal ?profiler ?telemetry conf =
  (match Sysconf.validate conf with
   | Ok () -> ()
   | Error problems ->
     invalid_arg
       ("System.build: invalid sysconf: " ^ String.concat "; " problems));
  let policy = Sysconf.default conf in
  let overrides = Sysconf.to_assoc conf in
  let budgets =
    List.filter_map
      (fun c ->
         match Compartment.budget c with
         | Some b -> Some (Compartment.ep c, b)
         | None -> None)
      (Sysconf.compartments conf)
  in
  let registry = Registry.create () in
  Testsuite.register registry;
  Unixbench.register registry;
  let pm = Pm.create () in
  let vfs = Vfs.create () in
  let vm = Vm.create () in
  let ds = Ds.create () in
  let rs = Rs.create ~policies:overrides ~budgets policy in
  let mfs = Mfs.create () in
  let bdev = Bdev.create () in
  (* mkfs: /tmp, /etc/data, and one file per registered executable so
     exec-time path validation works. *)
  Mfs.add_dir mfs "/tmp";
  Mfs.add_dir mfs "/etc";
  Mfs.add_file mfs ~bdev ~path:"/etc/data" ~content:etc_data;
  Mfs.add_dir mfs "/bin";
  List.iter
    (fun path -> Mfs.add_file mfs ~bdev ~path ~content:"#!osiris\n")
    (Registry.paths registry);
  let log = ref [] in
  let cfg =
    let base =
      Kernel.default_config ~arch ~seed ~policies:overrides policy
        ~lookup_program:(Registry.lookup registry) ()
    in
    { base with
      Kernel.log_sink = Some (fun line -> log := line :: !log);
      costs = (match costs with Some c -> c | None -> base.Kernel.costs);
      max_crashes =
        (match max_crashes with Some m -> m | None -> base.Kernel.max_crashes) }
  in
  let kernel = Kernel.create cfg in
  (* Installed before boot so observers see boot traffic too; a
     capture attached after build only sees the run. *)
  Kernel.set_capture kernel
    (match journal, event_hook with
     | Some w, None -> Some (Journal.capture w)
     | None, Some f -> Some (Capture.of_hook f)
     | None, None -> None
     | Some _, Some _ ->
       invalid_arg "System.build: ?journal and ?event_hook are exclusive");
  (* Likewise pre-boot: the profiler must see every cycle from the
     first boot instruction, or conservation against the process
     clocks cannot hold. *)
  (match profiler with
   | Some prof -> Profiler.attach prof kernel
   | None -> ());
  List.iter (Kernel.add_server kernel)
    [ Pm.server pm; Vfs.server vfs; Vm.server vm; Ds.server ds;
      Rs.server rs; Mfs.server mfs; Bdev.server bdev ];
  (* Telemetry hooks in after the servers exist (its standard source
     set enumerates them) and before boot, so the sample grid covers
     the whole run. Cycle counts are enabled so the per-phase series
     carry data; callers may add custom sources before build. *)
  (match telemetry with
   | Some ts ->
     Kernel.enable_cycle_counts kernel;
     Timeseries.add_kernel_sources ts kernel;
     Timeseries.attach ts kernel
   | None -> ());
  Kernel.boot kernel;
  { sys_kernel = kernel;
    sys_registry = registry;
    sys_conf = conf;
    sys_bdev = bdev;
    sys_mfs = mfs;
    sys_vfs = vfs;
    sys_log = log }

let kernel t = t.sys_kernel
let registry t = t.sys_registry
let sysconf t = t.sys_conf
let policy t = Sysconf.default t.sys_conf
let policy_of t ep = Sysconf.policy_for t.sys_conf ep
let bdev t = t.sys_bdev
let mfs t = t.sys_mfs
let vfs t = t.sys_vfs

let run t ~root =
  let ep =
    Kernel.spawn_user t.sys_kernel ~name:"init" ~prog:root ~parent:0
  in
  assert (ep = Endpoint.first_user);
  Kernel.set_halt_on_exit t.sys_kernel ep;
  Kernel.run t.sys_kernel

let log_lines t = List.rev !(t.sys_log)
