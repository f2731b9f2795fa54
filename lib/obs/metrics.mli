(** Named metrics registry: counters, gauges and log-bucketed
    histograms.

    Registration ({!counter} / {!gauge} / {!histogram}) is
    get-or-create by name and is meant to run once at setup — it
    allocates and consults a hash table. The handles it returns are
    bare mutable cells: {!incr} / {!add} / {!set} /
    {!Histogram.observe} are single integer mutations, O(1) and
    allocation-free, so a series can sit on the kernel's hot path.
    With no registry in the picture nothing is ever allocated — there
    is no global state, no implicit sink.

    This replaces ad-hoc counter plumbing: consumers that used to grow
    a field in [Kernel.t] per quantity can register a series instead,
    and [Obs_report.metrics] republishes the kernel's
    per-server lifetime counters (checkpoint work, rollback bytes,
    dedup hits, ...) as first-class gauges. *)

type t

type counter
type gauge

type value =
  | V_counter of int
  | V_gauge of int
  | V_hist of Histogram.t

val create : unit -> t

val counter : t -> string -> counter
(** Get or create. Raises [Invalid_argument] if [name] is already
    registered as a different kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> Histogram.t

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val dump : t -> (string * value) list
(** All series, deterministically sorted by name — registration order
    is a runtime accident (hook installation order), and sorted output
    keeps reports and JSON artifacts diff-stable across runs. *)

val find : t -> string -> value option
