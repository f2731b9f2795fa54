(** Aligned-text report over spans, metrics and kernel introspection:
    per-handler latency quantiles, recovery latency quantiles, and the
    registry dump. The CLI's [osiris report] and
    [examples/observability.ml] render through this. *)

val handler_table : Span.t list -> string
(** Per (server, handler) virtual-cycle latency of completed request
    spans: count, p50/p95/p99 (log-bucketed estimates) and exact max. *)

val recovery_table : Kernel.t -> string
(** Quantiles over {!Kernel.recovery_latencies}. Empty string when no
    recovery completed. *)

val metrics_table : Metrics.t -> string
(** Registry dump in registration order. *)

val metrics : kernel:Kernel.t -> Kernel.event list -> Metrics.t
(** A fresh registry holding a run's series: the ["osiris.*"] event
    counters (deliveries, calls, replies, window opens/closes and
    policy closes, checkpoints and their cycles, logged stores and
    bytes, kcalls, crashes, hangs, rollbacks and bytes rolled back,
    restarts) folded over the oldest-first [events]; the kernel's
    shed-exit count and every server's {!Kernel.server_stats} as gauges
    named ["<server>.<field>"] (e.g. ["ds.rollback_bytes"]); and the
    ["osiris.timeline.*"] and ["osiris.query.*"] gauges at 0, so
    [Metrics.dump] lists the same name set whether or not a sampler or
    query publishes into the registry later. *)

val render : ?metrics:Metrics.t -> kernel:Kernel.t -> Span.t list -> string
(** All applicable sections, separated by blank lines. *)
