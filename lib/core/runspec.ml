type fault =
  | At_site of Kernel.site * Kernel.fault_action
  | Crash_replies of Endpoint.t * int

type t = {
  rs_seed : int;
  rs_arch : Kernel.arch;
  rs_conf : Sysconf.t;
  rs_workload : string;
  rs_faults : fault list;
}

let workloads =
  [ "quickstart", "short fixed IPC exercise (the obs/trace default)";
    "suite", "the full prototype regression suite driver";
    "workgen", "seed-derived synthetic workload (Workgen.generate)" ]

let workload ~name ~seed =
  match name with
  | "quickstart" -> Ok Workgen.quickstart
  | "suite" -> Ok Testsuite.driver
  | "workgen" -> Ok (Workgen.generate ~seed ())
  | _ ->
    Error
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " (List.map fst workloads)))

let crash_of_name = function
  | "none" -> Ok None
  | name ->
    (match Sysconf.server_of_name name with
     | Some ep when List.mem ep System.core_servers -> Ok (Some ep)
     | _ ->
       Error
         (Printf.sprintf "unknown crash server %S (pm|vfs|vm|ds|rs|none)"
            name))

(* Each fault becomes a trigger answering one site query: [Some action]
   when it fires (spending one of its shots), [None] otherwise. *)
let trigger kernel = function
  | At_site (at, action) ->
    let fired = ref false in
    fun site ->
      if (not !fired) && Kernel.compare_site site at = 0 then begin
        fired := true;
        Some action
      end
      else None
  | Crash_replies (ep, n) ->
    let left = ref n in
    fun site ->
      if !left > 0
         && site.Kernel.site_ep = ep
         && site.Kernel.site_kind = Kernel.Op_reply
         && Kernel.window_is_open kernel ep
      then begin
        decr left;
        Some (Kernel.F_crash "injected for tracing")
      end
      else None

let rec first_firing site = function
  | [] -> None
  | t :: rest ->
    (match t site with None -> first_firing site rest | hit -> hit)

let arm kernel faults =
  match List.map (trigger kernel) faults with
  | [] -> ()
  | ts ->
    let hook =
      match ts with [ t ] -> t | ts -> fun site -> first_firing site ts
    in
    Kernel.set_fault_hook kernel (Some hook)

let run ?costs ?event_hook ?journal ?profiler ?telemetry ?prepare t =
  let root =
    match workload ~name:t.rs_workload ~seed:t.rs_seed with
    | Ok root -> root
    | Error m -> invalid_arg ("Runspec.run: " ^ m)
  in
  let sys =
    System.build ~arch:t.rs_arch ~seed:t.rs_seed ?costs ?event_hook ?journal
      ?profiler ?telemetry t.rs_conf
  in
  arm (System.kernel sys) t.rs_faults;
  (match prepare with Some f -> f sys | None -> ());
  (sys, System.run sys ~root)

let of_header (h : Journal.header) =
  match Sysconf.parse h.Journal.jh_spec with
  | Error m -> Error (Printf.sprintf "bad spec %S: %s" h.Journal.jh_spec m)
  | Ok conf ->
    (match
       ( workload ~name:h.Journal.jh_workload ~seed:h.Journal.jh_seed,
         crash_of_name h.Journal.jh_crash )
     with
     | Error m, _ | _, Error m -> Error m
     | Ok _, Ok crash ->
       Ok
         { rs_seed = h.Journal.jh_seed;
           rs_arch = h.Journal.jh_arch;
           rs_conf = conf;
           rs_workload = h.Journal.jh_workload;
           rs_faults =
             (match crash with
              | None -> []
              | Some ep -> [ Crash_replies (ep, h.Journal.jh_crash_count) ]) })

let make_header ?(arch = Kernel.Microkernel) ?(seed = 42) ?(spec = "enhanced")
    ?(workload = "quickstart") ?(crash = "none") ?(crash_count = 1) () =
  let h =
    { Journal.jh_version = Journal.version;
      jh_seed = seed;
      jh_arch = arch;
      jh_spec = spec;
      jh_workload = workload;
      jh_crash = crash;
      jh_crash_count = crash_count;
      jh_cost_fingerprint = Costs.fingerprint (Kernel.costs_of_arch arch) }
  in
  match of_header h with Ok _ -> Ok h | Error m -> Error m

(* The [Sysconf.parse] form of a spec: the default policy, then one
   [server=policy[/budget]] item per compartment. *)
let spec_string conf =
  String.concat ","
    ((Sysconf.default conf).Policy.name
     :: List.map
          (fun c ->
             Printf.sprintf "%s=%s%s"
               (Endpoint.server_name (Compartment.ep c))
               (Compartment.policy c).Policy.name
               (match Compartment.budget c with
                | None -> ""
                | Some b -> "/" ^ string_of_int b))
          (Sysconf.compartments conf))

let to_header t =
  let spec = spec_string t.rs_conf in
  let crash =
    match t.rs_faults with
    | [] -> Ok ("none", 1)
    | [ Crash_replies (ep, n) ] -> Ok (Endpoint.server_name ep, n)
    | _ ->
      Error "fault plan has no header form (one crash target at most)"
  in
  match crash, Sysconf.parse spec with
  | Error m, _ -> Error m
  | _, Ok conf
    when Sysconf.describe conf <> Sysconf.describe t.rs_conf ->
    Error
      (Printf.sprintf "spec %S has no header form"
         (Sysconf.name t.rs_conf))
  | _, Error m -> Error m
  | Ok (crash, crash_count), Ok _ ->
    make_header ~arch:t.rs_arch ~seed:t.rs_seed ~spec
      ~workload:t.rs_workload ~crash ~crash_count ()

let exec header ~hook =
  match of_header header with
  | Error m -> invalid_arg ("Runspec.exec: " ^ m)
  | Ok t -> snd (run ~event_hook:hook t)
