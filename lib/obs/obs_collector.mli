(** Event collector: the bridge between the kernel's event stream and the
    span builder / metrics registry.

    Unlike {!Tracer}, which keeps the last N events, the collector
    keeps the whole stream (in a growable array) so span trees are
    complete, and optionally folds every event into a {!Metrics.t} as
    it arrives. The record path is array-append plus counter bumps —
    no per-event allocation beyond amortized array growth. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** With [metrics], pre-registers the ["osiris.*"] event series
    (deliveries, replies, window opens/closes, checkpoint cycles,
    logged stores and bytes, kcalls, crashes, hangs, rollbacks and
    bytes rolled back, restarts) and updates them on every event. The
    ["osiris.timeline.*"] summary gauges ([Timeseries.publish]) are
    pre-registered too, so [Metrics.dump]'s sorted name set does not
    depend on whether a vtime sampler ran. *)

val record : t -> Kernel.event -> unit
(** The hook body. *)

val attach : t -> Kernel.t -> unit
(** Install as the kernel's capture, via {!Capture.of_hook} (replaces
    any previous capture). Attach before boot — via
    [System.build ?event_hook] — to capture boot traffic too. *)

val events : t -> Kernel.event list
(** Everything recorded, oldest first. *)

val count : t -> int

val clear : t -> unit

val metrics : t -> Metrics.t option

val snapshot_server_stats : Metrics.t -> Kernel.t -> unit
(** Republish {!Kernel.server_stats} for every registered server as
    gauges named ["<server>.<field>"] (e.g. ["pm.rollback_bytes"],
    ["vfs.restore_bytes_saved"], ["ds.deduped_stores"]), making the
    checkpoint-substrate counters first-class series next to the
    event-derived ones. Call after (or during) a run. *)
