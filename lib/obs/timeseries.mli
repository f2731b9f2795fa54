(** Virtual-clock telemetry engine: vtime-sampled ring-buffered series.

    The paper's evaluation — and the obs stack so far — is end-of-run
    aggregates: total overhead, survivability counts, final latency
    histograms. This module is the time axis: a set of registered
    integer {e sources} is sampled every [interval] virtual cycles
    into preallocated ring buffers (flat [int array]s), so a run
    yields per-quantity series over virtual time instead of one
    number. The load engine's latency-under-load curves and the
    explorer's MTTR-over-time objective (ROADMAP items 3 and 5) both
    read from here.

    {2 Sampling contract}

    {!attach} installs a {!Kernel.set_vtime_sampler} hook; the kernel
    fires it at every multiple of [interval] the global clock crosses,
    with the boundary time. Sample timestamps are therefore the fixed
    grid [interval, 2*interval, ...] — deterministic per seed and
    independent of scheduling detail, which is what makes telemetry
    artifacts byte-identical across runs and across [--jobs] in a
    campaign.

    The hot path ({!sample}) is {e zero allocation} (a gate in
    [bench/timeseries_bench.ml], same discipline as [Undo_log] and
    [Capture]): one int-array store per source per tick, no
    closure construction, no boxing. Source read functions are bound
    once at registration and must themselves be allocation-free — the
    kernel accessors documented as such ([run_queue_depth],
    [inbox_depth], [phase_cycles], ...) and [Metrics] handle reads
    qualify.

    {2 Ring sizing}

    [capacity] is rounded up to a power of two; when a run outlives
    the ring the oldest samples are overwritten ({!dropped} counts
    them) and every series keeps its most recent [capacity] samples.
    Memory is fixed at attach time: [(n_sources + 1) * capacity]
    words, regardless of run length. *)

type kind =
  | Gauge  (** Instantaneous level: the raw read at each tick. *)
  | Delta
      (** Interval rate: the read's increase since the previous tick
          (first tick: since registration). Monotonic counters sampled
          as [Delta] yield per-interval event rates. *)

type t

val create : ?interval:int -> ?capacity:int -> unit -> t
(** [interval] (default 4096) is the sampling period in virtual
    cycles; [capacity] (default 4096) the per-series ring size in
    samples, rounded up to a power of two. Raises [Invalid_argument]
    if either is not positive. *)

val interval : t -> int
val capacity : t -> int

(** {1 Source registration}

    Sources are sampled — and serialized — in registration order,
    which must therefore be deterministic (build it from configuration,
    not from hash-table iteration). Registration is refused after
    {!attach} / the first sample ([Invalid_argument]), as the flat
    sampling arrays are frozen then; duplicate names are refused
    too. *)

val add_source : t -> name:string -> kind:kind -> (unit -> int) -> unit
(** Register an arbitrary integer source. The read function runs on
    the kernel's clock-advance path: it must be cheap and
    allocation-free. *)

val add_counter : t -> string -> Metrics.counter -> unit
(** Register a [Metrics] counter as a [Delta] source (per-interval
    rate). *)

val add_gauge : t -> string -> Metrics.gauge -> unit
(** Register a [Metrics] gauge as a [Gauge] source (level). *)

val add_kernel_sources : t -> Kernel.t -> unit
(** Register the standard kernel source set, in this fixed order:
    - [kernel.ops], [kernel.delivered], [kernel.crashes],
      [kernel.restarts] — [Delta] rates of the lifetime counters;
    - [kernel.runq] — [Gauge] scheduler run-queue depth;
    - per registered server [srv.<name>.inbox] ([Gauge] queue depth)
      and [srv.<name>.alive] ([Gauge] 0/1) — recovery state over time;
    - per phase [phase.<phase>.cycles] — [Delta] cycles per interval
      over all processes, from the kernel-global per-phase totals
      ([Kernel.total_phase_cycles], an O(1) read maintained on the
      attribution path; all zero unless [Kernel.enable_cycle_counts]
      ran before boot — [System.build ~telemetry] enables it).
    Call after the servers are registered (post-[System.build] /
    pre-boot is the wiring point). *)

val attach : t -> Kernel.t -> unit
(** Freeze the source set and install the vtime sampler on the
    kernel. Raises [Invalid_argument] when no sources are registered
    or the series is already attached. *)

val detach : t -> Kernel.t -> unit
(** Remove the sampler; the recorded samples stay readable. *)

val sample : t -> int -> unit
(** Take one sample stamped [at] — what the kernel hook calls; exposed
    for tests and manual drivers. Freezes the source set on first
    use. *)

(** {1 Reading}

    Readers index retained samples oldest-first: index [0] is the
    oldest sample still in the ring, [retained - 1] the newest. *)

val n_sources : t -> int
val source_names : t -> string list
(** Registration order (= serialization order). *)

val source_kind : t -> int -> kind
val index_of : t -> string -> int option

val samples_taken : t -> int
(** Total ticks sampled over the run, including overwritten ones. *)

val retained : t -> int
(** [min (samples_taken t) (capacity t)]. *)

val dropped : t -> int
(** Samples overwritten by ring wraparound:
    [samples_taken - retained]. *)

val time_at : t -> int -> int
(** Virtual instant of retained sample [i]. *)

val value_at : t -> source:int -> int -> int
(** Value of source [source] at retained sample [i]. *)

val values : t -> source:int -> int array
(** Copy of a source's retained series, oldest first. *)

val times : t -> int array
(** Copy of the retained timestamps, oldest first. *)

(** {1 Serialization}

    Both forms are deterministic: fixed field order, sources in
    registration order, no floats. *)

val to_csv : t -> string
(** Header [vtime,<name>,...] then one row per retained sample. *)

val to_json : t -> string
(** [{"interval":..,"samples":..,"retained":..,"dropped":..,
     "times":[..],"series":[{"name":..,"kind":..,"values":[..]},..]}]
    with names escaped via [Chrome_trace.escaped]. *)

val publish : t -> Metrics.t -> unit
(** Set the [osiris.timeline.*] summary gauges ([interval], [sources],
    [samples], [retained], [dropped]) — pre-registered by
    [Obs_report.metrics] so [Metrics.dump] stays deterministically sorted
    whether or not telemetry ran. *)
