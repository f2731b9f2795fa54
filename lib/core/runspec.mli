(** Run descriptors: every input of one deterministic simulated run as
    one value, and the one path that builds, arms and runs it.

    A descriptor names the seed, the architecture (cost model), the
    system spec, the workload (by name, so it can be written down) and
    the fault plan. Two runs of one descriptor are identical, so a
    descriptor is a complete record of its run: campaign injections,
    flight-recorder journals and the CLI's instrumented runs are all
    descriptors handed to {!run}, differing only in the observers they
    attach.

    A journal header ({!Journal.header}) is a descriptor's serialized
    form: {!of_header} and {!to_header} convert, and {!make_header}
    validates one assembled from CLI strings. Only crash-at-replies
    plans have a header form; site faults (campaign runs) do not. *)

type fault =
  | At_site of Kernel.site * Kernel.fault_action
      (** Take [action] once, at the first execution of this site (a
          campaign injection from a profiled site list). *)
  | Crash_replies of Endpoint.t * int
      (** Fail-stop crash the server at its first [n] in-window reply
          sites, each recoverable under any recovering policy (the
          header's [jh_crash]/[jh_crash_count]). *)

type t = {
  rs_seed : int;
  rs_arch : Kernel.arch;
  rs_conf : Sysconf.t;
  rs_workload : string;  (** A {!workloads} name. *)
  rs_faults : fault list;
      (** Checked in order at each site; the first that fires wins. *)
}

val workloads : (string * string) list
(** Available workload names with one-line descriptions:
    ["quickstart"], ["suite"], ["workgen"]. *)

val workload : name:string -> seed:int -> (unit Prog.t, string) result
(** Resolve a workload name (["workgen"] is seed-derived). *)

val crash_of_name : string -> (Endpoint.t option, string) result
(** A crash target: one of {!System.core_servers} by name, or
    ["none"]. *)

val arm : Kernel.t -> fault list -> unit
(** Install the kernel fault hook that carries out the plan. An empty
    plan installs nothing. *)

val run :
  ?costs:Costs.t ->
  ?event_hook:(Kernel.event -> unit) ->
  ?journal:Journal.writer ->
  ?profiler:Profiler.t ->
  ?telemetry:Timeseries.t ->
  ?prepare:(System.t -> unit) ->
  t ->
  System.t * Kernel.halt
(** Build the system ({!System.build}, which the optional arguments
    are passed to), {!arm} the fault plan, call [prepare] on the built
    system, then run the workload to halt. [prepare] is for observers
    that attach after boot; none of them may perturb the run.
    @raise Invalid_argument on an unknown workload name or a spec
    {!System.build} rejects. *)

val of_header : Journal.header -> (t, string) result
(** Parse a header's spec, workload and crash target. [Error] names
    the offending field. *)

val to_header : t -> (Journal.header, string) result
(** The header that {!of_header} reads back as [t], with the cost
    fingerprint of [rs_arch]'s table. [Error] when [t] has no header
    form: a site fault, more than one crash target, or a spec that
    does not print to a string [Sysconf.parse] reads back (a custom
    name or criticality). A plan without faults prints as crash
    ["none"], count 1. *)

val make_header :
  ?arch:Kernel.arch ->
  ?seed:int ->
  ?spec:string ->
  ?workload:string ->
  ?crash:string ->
  ?crash_count:int ->
  unit ->
  (Journal.header, string) result
(** Assemble a header from its string fields and validate it with
    {!of_header} (defaults: seed 42, microkernel, ["enhanced"] spec,
    ["quickstart"] workload, no crash). The spec string is kept as
    given. *)

val exec : Journal.header -> hook:(Kernel.event -> unit) -> Kernel.halt
(** {!run} the run a header describes with [hook] installed from boot:
    the [exec] argument {!Replay.run} wants.
    @raise Invalid_argument on a header {!of_header} rejects. *)
