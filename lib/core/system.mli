(** The assembled OSIRIS system: kernel + the seven system processes +
    executable registry + populated filesystem.

    This is the library's main entry point. Typical use:
    {[
      let sys = System.build (Sysconf.uniform Policy.enhanced) in
      let halt = System.run sys ~root:Testsuite.driver in
      match halt with
      | Kernel.H_completed 0 -> ...  (* inspect System.log_lines *)
      | _ -> ...
    ]}

    [build] consumes a declarative {!Sysconf.t}: a uniform spec
    reproduces the old single-global-policy behavior byte for byte,
    while a mixed spec assigns each compartment its own recovery policy
    and optional restart budget (resolved per process at boot; see
    {!Compartment}).

    Every system is fully deterministic for a given configuration and
    seed. Build one fresh system per experiment run; systems are not
    reusable after {!run} returns. *)

type t

val build :
  ?arch:Kernel.arch ->
  ?seed:int ->
  ?max_crashes:int ->
  ?costs:Costs.t ->
  ?event_hook:(Kernel.event -> unit) ->
  ?journal:Journal.writer ->
  ?profiler:Profiler.t ->
  ?telemetry:Timeseries.t ->
  Sysconf.t ->
  t
(** Create and boot a system: servers installed, filesystem populated
    with /bin (every registered executable), /etc/data and /tmp, boot
    snapshots taken. The registry holds the prototype test suite and
    the Unixbench programs.
    [event_hook] is installed {e before} boot as the kernel's capture
    ({!Capture.of_hook}), so observers (e.g. [Flight.replay]'s live
    stream) capture boot traffic; attaching after [build] misses it.
    Events reach the hook in order, batched, and all of them by the time
    [boot] or [run] returns. [journal] installs a flight-recorder
    writer the same way, as the kernel's capture ([Journal.capture]),
    so a journal is a complete record from the first boot event —
    which is what makes [Replay.run] a byte-exact diff. The kernel has
    one capture, so [event_hook] and [journal] are exclusive
    ([Invalid_argument] when both are given). [costs] overrides the
    architecture-derived cost table (the replay cost-perturbation
    fixture uses this; the header fingerprint then flags the
    mismatch). [profiler] is likewise attached pre-boot as the
    kernel's cycle hook, which is what makes
    [Profiler.check_conservation] hold at any later point.
    [telemetry] attaches a vtime-sampled series set pre-boot: the
    standard kernel sources ([Timeseries.add_kernel_sources]) are
    registered after any caller-added custom sources, cycle counts
    are enabled so the per-phase series carry data, and the sampler
    fires on the kernel's fixed [interval] grid for the whole run.
    @raise Invalid_argument when {!Sysconf.validate} rejects the spec. *)

val kernel : t -> Kernel.t
val registry : t -> Registry.t

val sysconf : t -> Sysconf.t
(** The spec the system was built from. *)

val policy : t -> Policy.t
(** The spec's default policy (what the pre-compartment global policy
    used to be). *)

val policy_of : t -> Endpoint.t -> Policy.t
(** Per-compartment resolution, as the kernel performed it at boot. *)

val bdev : t -> Bdev.t

val mfs : t -> Mfs.t
(** White-box handle for filesystem invariant checks in tests. *)

val vfs : t -> Vfs.t
(** White-box handle for VFS state dumps in tests. *)

val run : t -> root:unit Prog.t -> Kernel.halt
(** Spawn [root] as the primordial user process (endpoint
    [Endpoint.first_user], pre-registered in PM) and interpret until a
    halt condition. The run completes when [root] exits. *)

val log_lines : t -> string list
(** Diagnostic lines received so far, oldest first. *)

val core_servers : Endpoint.t list
(** The five recoverable servers of the evaluation: PM, VFS, VM, DS,
    RS. *)

val summaries : Summary.t list
(** Static interaction summaries of the five core servers. *)
