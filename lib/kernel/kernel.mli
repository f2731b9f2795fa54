(** The discrete-event microkernel.

    The kernel owns the virtual clock, schedules processes by virtual
    time, interprets {!Prog.t} programs one primitive at a time, and
    implements the privileged mechanics of OSIRIS' recovery protocol
    (restart / rollback / reconciliation primitives invoked by the
    Recovery Server through [Kcall]s).

    Simulation structure:
    - every process (OS server or user process) is an event-driven
      entity with one or more cooperative threads;
    - synchronous [Call]s follow MINIX sendrec semantics — the caller
      blocks until the receiver replies;
    - recovery windows open when a handler starts and close according
      to the active {!Policy.t} and the SEEP class of outbound messages
      (multithreaded servers additionally close the window whenever the
      active thread is switched out, per paper Section IV-E);
    - every executed server operation is counted for recovery coverage
      (Table I) and offered to the fault hook (Tables II/III);
    - every operation advances the owning process' virtual time by its
      {!Costs.t} entry.

    Everything is deterministic for a fixed configuration and seed. *)

type arch = Microkernel | Monolithic

val costs_of_arch : arch -> Costs.t
(** The architecture's cost table: {!Costs.microkernel} or
    {!Costs.monolithic}. *)

(** {1 Fault interface}

    The fault library installs hooks; the kernel only defines the
    vocabulary. A {!site} identifies an executed server operation the
    way EDFI identifies a static program location: by component,
    handler, operation kind, and occurrence index within the handler
    activation. *)

type op_kind =
  | Op_compute
  | Op_load
  | Op_store
  | Op_send
  | Op_call
  | Op_reply
  | Op_receive
  | Op_kcall
  | Op_spawn
  | Op_yield

val op_kind_to_string : op_kind -> string
val all_op_kinds : op_kind list

type site = {
  site_ep : Endpoint.t;
  site_handler : Message.Tag.t option;  (** None in loop/init code. *)
  site_kind : op_kind;
  site_occ : int;  (** nth op of this kind within the handler activation. *)
}

val site_to_string : site -> string
val compare_site : site -> site -> int

type fault_action =
  | F_crash of string      (** Fail-stop: NULL-deref analogue. *)
  | F_hang                 (** Component stops making progress. *)
  | F_corrupt_store        (** Stored value is corrupted (fail-silent). *)
  | F_drop_store           (** Store silently dropped (fail-silent). *)
  | F_corrupt_msg          (** Outbound message corrupted (fail-silent). *)
  | F_skip_handler         (** Handler aborts early without replying. *)
  | F_benign
      (** Triggered but non-manifesting (e.g. a wrong value that is
          overwritten before use) — a large fraction of realistic
          injected faults behave this way. *)

(** {1 Server registration} *)

type server = {
  srv_ep : Endpoint.t;
  srv_name : string;
  srv_image : Memimage.t;
  srv_clone_extra_kb : int;
      (** Memory the Recovery Server pre-allocates for this component's
          clone beyond the image itself (large for VM — Table VI). *)
  srv_init : unit Prog.t;
      (** Instrumented initialization, run once at boot. *)
  srv_loop : unit Prog.t;
      (** The request-processing loop; also used to restart clones. *)
  srv_multithreaded : bool;
}

(** {1 Halting} *)

include module type of struct include Kernel_event end
(** The [halt] and [event] types, documented in {!Kernel_event}. *)

val halt_to_string : halt -> string

(** {1 Configuration} *)

type config = {
  arch : arch;
  policy : Policy.t;
      (** Default policy: user processes and any server without an
          entry in [policies]. *)
  policies : (Endpoint.t * Policy.t) list;
      (** Per-compartment overrides. Resolution happens once, at
          process creation ({!add_server}/{!spawn_user}): the window
          machinery, store instrumentation, SEEP window-closing, dedup
          and recovery dispatch all read the policy pinned on the
          process, never this list. *)
  costs : Costs.t;
  seed : int;
  max_ops : int;            (** Total op budget; exceeding it means hang. *)
  max_vtime : int;          (** Virtual-time deadline; past it, hang. *)
  hang_detect_cycles : int; (** Heartbeat latency for hung components. *)
  max_crashes : int;        (** Crash-storm cutoff (panic beyond it). *)
  lookup_program : string -> (int -> unit Prog.t) option;
      (** Executable registry used by [K_exec]. *)
  log_sink : (string -> unit) option;
      (** Receives [Diag] lines. Per-message IPC tracing is on when
          the ["osiris.kernel"] log source is at debug level. *)
}

val default_config : ?arch:arch -> ?seed:int ->
  ?policies:(Endpoint.t * Policy.t) list -> Policy.t ->
  lookup_program:(string -> (int -> unit Prog.t) option) -> unit -> config

type t

val create : config -> t

val add_server : t -> server -> unit
(** Register a server before {!boot}. *)

val boot : t -> unit
(** Run all server init programs and their loops until the system is
    quiescent (all servers blocked in Receive), then snapshot each
    server image as its pristine boot state (used by stateless
    restart). Site/coverage accounting starts after boot. *)

val spawn_user : t -> name:string -> prog:unit Prog.t -> parent:Endpoint.t ->
  Endpoint.t
(** Create a user process (the workload root; everything else is
    forked/exec'd through PM). It must be registered in PM separately
    — the core library's boot protocol handles that. *)

val spawn_user_at : t -> at:int -> name:string -> prog:unit Prog.t ->
  parent:Endpoint.t -> Endpoint.t
(** {!spawn_user}, but the process first runs at virtual instant
    [at]: its clock starts there and it enters the scheduler's timer
    wheel at that key.  This is how the open-loop load engine drives
    arrivals — each request is a process whose start rides the wheel
    at its nominal arrival time, independent of system state (past
    instants are clamped to now). *)

val set_halt_on_exit : t -> Endpoint.t -> unit
(** When this process exits, the run completes. *)

val set_halt_on_drain : t -> unit
(** Halt ([H_completed 0]) when the last live user process exits —
    how an open-loop run ends: all requests injected up front, the
    system drains.  No effect on runs that halt earlier. *)

val user_exit : t -> Endpoint.t -> (int * int) option
(** [(status, vtime)] recorded when the user process exited: the
    status it passed to PM and its own virtual clock at the exit
    call (i.e. when its work finished — PM teardown excluded).
    [None] while alive or for unknown endpoints. *)

val run : t -> halt
(** Interpret until a halt condition. *)

(** {1 Event tracing} *)

val set_capture : t -> Capture.t option -> unit
(** Install the kernel's one observer tap: every IPC delivery, reply,
    window transition, checkpoint, logged store, kcall, crash,
    rollback, restart, halt and spawn is appended to the capture's log
    as a few int stores (see {!Capture} for the entry layout). With no
    capture installed the emission sites append nothing — one branch
    per event, zero allocation (a bench gate in [bench/obs_bench.ml]).

    Two rules bind the capture's drain:
    - the kernel drains once at the end of every scheduler pump, so
      when {!boot} or {!run} returns the consumer holds every event
      emitted so far; in between it drains only when an append would
      overflow.
    - an exception escaping the drain leaves the kernel as
      {!Capture.Observer_failure}, which the machine-check trap does
      not absorb: a failing observer aborts the run rather than
      becoming a simulated crash.

    Closure observers install {!Capture.of_hook}; the journal writer
    installs its own log ([Journal.capture]), whose drain defers every
    codec byte off the emission path — what holds the <5%
    attached-recording overhead gate in [bench/journal_bench.ml]. *)

val set_vtime_sampler : t -> interval:int -> (int -> unit) option -> unit
(** Virtual-time sampling hook, the telemetry engine's tap
    ([lib/obs/timeseries.ml]). The hook fires whenever the global
    clock crosses a multiple of [interval] virtual cycles, once per
    boundary crossed, receiving the boundary time — so a run's sample
    timestamps are the fixed grid [interval, 2*interval, ...],
    independent of scheduling detail, and two runs of the same seed
    sample at identical instants. The hook runs on the clock-advance
    path and must be cheap and allocation-free (gated by
    [bench/timeseries_bench.ml]); with no sampler installed the
    clock-advance path pays a single compare. [interval] must be
    positive when installing; it is ignored when [hook] is [None]. *)

(** {1 Cycle attribution}

    Every advance of a process' virtual clock is attributed to exactly
    one phase, at one static emission point (a {!slot}). Counters
    enabled before the first advance (i.e. before {!boot}) therefore
    reconstruct each process clock exactly: summing a process' slot
    cycles yields its {!proc_vtime} — the conservation invariant
    [lib/obs/profiler] asserts. *)

type phase =
  | Ph_user        (** Executing the component's own instructions. *)
  | Ph_instr       (** Recovery-window instrumentation drag
                       ([c_instr_op] per op while stores are logged). *)
  | Ph_log         (** Undo-log write cost riding on logged stores. *)
  | Ph_checkpoint  (** Window-open checkpoint (snapshot copy or
                       constant undo-log arming cost). *)
  | Ph_rollback    (** Rolling state back after an in-window crash. *)
  | Ph_restart     (** Restart machinery: clone image transfer, state
                       clearing, crash downtime until [K_go]. *)
  | Ph_wait        (** Blocked on IPC: the clock jumped forward to a
                       peer's clock or an inbox timestamp. *)

val phase_to_string : phase -> string
(** Stable lowercase names: user, instr, undo_log, checkpoint,
    rollback, restart, ipc_wait. *)

val phase_index : phase -> int
val n_phases : int
val all_phases : phase list

type slot = int
(** An attribution slot: a static emission point of the cycle hook,
    i.e. one (phase, detail) pair — an op kind, a kcall, a checkpoint
    copy, a wait cause. Slots are dense ids in \[0, {!n_slots}), fixed
    at module init, so a consumer can count cycles in flat arrays with
    no hashing on the hot path. *)

val n_slots : int
val slot_phase : slot -> phase
val slot_detail : slot -> string
(** Constant lowercase names, e.g. "compute", "store", "snapshot",
    "downtime", "resume". Several slots may share a detail across
    different phases (a logged store charges a [Ph_user] slot and a
    [Ph_log] slot that are both named "store"). *)

val all_slots : slot list

val enable_cycle_counts : t -> unit
(** Give every process (current and future) a per-slot cycle/event
    counter row, bumped inline at each clock advance — no closure
    call, which is what keeps attached-profiler overhead inside its
    bench gate. Enable before {!boot} and the counters reconstruct
    each process clock exactly; counting cannot be disabled again. *)

val slot_cycles : t -> Endpoint.t -> slot -> int
val slot_events : t -> Endpoint.t -> slot -> int
(** Counter-row reads; 0 for unknown processes or before
    {!enable_cycle_counts}. Allocation-free (safe to call from a
    vtime-sampler hook). *)

val phase_cycles : t -> Endpoint.t -> phase -> int
(** Cycles the process has spent in the phase so far — the sum of its
    counter rows over the phase's slots. 0 for unknown processes or
    before {!enable_cycle_counts}. Allocation-free but O(slots): fine
    for end-of-run reports, not for per-tick sampling. *)

val total_phase_cycles : t -> phase -> int
(** Kernel-global cycles attributed to the phase so far, over {e all}
    processes. Maintained incrementally on the attribution path (two
    array ops per emission while profiling), so a read is O(1) and
    allocation-free — this is what the telemetry engine samples per
    phase every tick. 0 before {!enable_cycle_counts}; unlike summing
    {!phase_cycles}, the total survives process replacement across
    restarts. *)

val profiled_procs : t -> int
(** Number of processes carrying counter rows (allocation accounting
    in [bench/profiler_bench.ml]). *)

val set_cycle_hook : t -> (Endpoint.t -> slot -> int -> unit) option -> unit
(** [hook ep slot cycles] fires for every clock advance, with
    [cycles > 0] — the event-stream form of the attribution, for
    consumers that need per-advance granularity (e.g. the profiler's
    counter-track sampler). All arguments are immediate ints: a hook
    invocation allocates nothing, and with no hook installed each
    emission point pays a single branch (gated in
    [bench/profiler_bench.ml]). *)

val live_update : t -> Endpoint.t -> unit Prog.t -> (unit, string) result
(** Replace a server's request-processing loop with a new version,
    preserving its state — a live update built from the recovery
    substrate (paper Section VII, "generality of the framework"): the
    component must be quiescent (blocked in Receive with a closed
    window); the update replaces its loop and resumes it like a
    recovered clone. Fails with a reason when the component is mid-
    request, mid-recovery, or unknown. *)

(** {1 Fault hooks} *)

val set_fault_hook : t -> (site -> fault_action option) option -> unit
(** Consulted for every post-boot server operation, with its {!site}.
    A hook that only records and returns [None] is a site profiler
    ([Campaign.profile_sites]). With no hook installed an operation
    builds no site and counts no occurrence. *)

(** {1 Introspection} *)

val now : t -> int
(** Virtual time in cycles (max over process clocks so far). *)

val total_ops : t -> int

type server_stats = {
  ss_name : string;
  ss_policy : string;          (** The compartment's resolved policy. *)
  ss_ops_total : int;          (** Post-boot ops executed. *)
  ss_ops_in_window : int;      (** Of which inside an open window. *)
  ss_busy_cycles : int;
  ss_logged_stores : int;
  ss_skipped_stores : int;
  ss_deduped_stores : int;
  ss_undo_peak_bytes : int;
  ss_undo_entries_lifetime : int;
  ss_rollback_bytes : int;        (** Lifetime payload bytes blitted back by rollbacks. *)
  ss_restore_bytes_saved : int;   (** Bytes dirty-region stateless restarts did not blit. *)
  ss_image_bytes : int;
  ss_image_used_bytes : int;
  ss_clone_extra_kb : int;
  ss_window_opens : int;
  ss_policy_closes : int;
  ss_restarts : int;
}

val server_stats : t -> Endpoint.t -> server_stats

val server_image : t -> Endpoint.t -> bytes option
(** Snapshot of the server's current memory image ([None] for unknown
    or image-less endpoints). Test support: lets equivalence tests
    compare post-recovery state byte-for-byte across configurations. *)

val handler_counts : t -> Endpoint.t -> (Message.Tag.t * int) list
(** How many times each request type was handled (post-boot), the
    workload-frequency input to the static recovery-window analysis. *)

val recovery_latencies : t -> int list
(** Virtual-cycle durations of completed recoveries (crash to restart),
    newest first. *)

val crash_times : t -> int list
(** Virtual instants of every crash observed (including hangs detected
    and crashes that never recovered), newest first — the raw material
    of a crash-storm timeline. *)

val recovery_episodes : t -> (Endpoint.t * int * int) list
(** Completed recovery spans [(ep, crashed_at, recovered_at)], newest
    first; [recovered_at - crashed_at] is the episode's MTTR and the
    list zips with {!recovery_latencies}. Crashes that ended in a
    panic or shutdown never appear here (compare {!crash_times}). *)

val server_endpoints : t -> Endpoint.t list
(** Registered servers in registration order. *)

val crashes : t -> int
(** Crash events observed (including hangs detected). *)

val restarts : t -> int

val orphaned_replies : t -> int

val machine_checks : t -> int
(** Host exceptions (out-of-bounds [Layout] access, [Failure],
    [Not_found], division by zero) raised by simulated code and turned
    into a crash of the offending process. Only injected corruption can
    provoke one, so a fault-free run records 0. *)

val messages_delivered : t -> int

val run_queue_depth : t -> int
(** Ready-to-run scheduler items currently in the heap — a load gauge
    the telemetry engine samples. Allocation-free. *)

val inbox_depth : t -> Endpoint.t -> int
(** Pending inbox messages for the endpoint (0 for unknown endpoints).
    Allocation-free. *)

type proc_handle
(** A stable reference to a {e server} process record. Server records
    are installed once and mutated in place across crash/recovery, so
    a handle captured at registration stays valid for the kernel's
    lifetime. User processes are replaced on respawn — do not hold
    handles to them. *)

val server_handle : t -> Endpoint.t -> proc_handle option
(** [None] for unknown endpoints. Capture once (e.g. when registering
    telemetry sources), then read through the handle. *)

val handle_alive : proc_handle -> bool
(** Direct field load — the O(1) form of {!proc_alive} the vtime
    sampler uses per tick. Allocation-free. *)

val handle_inbox_depth : proc_handle -> int
(** Direct field load — the O(1) form of {!inbox_depth} the vtime
    sampler uses per tick. Allocation-free. *)

val proc_alive : t -> Endpoint.t -> bool

val proc_policy_name : t -> Endpoint.t -> string option
(** The policy the process was resolved to at creation ([None] for
    unknown endpoints). *)

val window_is_open : t -> Endpoint.t -> bool
(** Whether the component's recovery window is currently open (false
    for components without instrumentation). Used by the service-
    disruption experiment, which only injects faults inside windows. *)

val proc_vtime : t -> Endpoint.t -> int
(** The process' own clock (0 for unknown endpoints). *)

val user_count : t -> int
(** User processes created over the run's lifetime. *)

val shed_exits : t -> int
(** User processes that exited with the EAGAIN-shed status 75 — storm
    requests the session layer refused at admission. Feeds the
    [kernel.shed] timeseries source and the shed-load metric. *)
