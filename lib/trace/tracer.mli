(** Ring-buffer event tracer for the simulated kernel.

    Attach a tracer to a kernel (before or during a run) and it records
    the last [capacity] IPC/crash/recovery events; render them as an
    aligned timeline for debugging deadlocks and recovery sequences.

    For structured consumption of the event stream (span trees, metrics,
    Perfetto export) use [lib/obs] instead; the tracer is the low-cost
    flight recorder.

    {[
      let tracer = Tracer.create ~capacity:256 () in
      Tracer.attach tracer (System.kernel sys);
      ...
      List.iter print_endline (Tracer.timeline tracer)
    ]} *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 512 events. *)

val attach : t -> Kernel.t -> unit
(** Install as the kernel's capture, via {!Capture.of_hook} (replaces
    any previous capture). Events arrive in batches, in order; the ring
    is complete whenever [Kernel.run] returns. *)

val record : t -> Kernel.event -> unit
(** The hook body: append one event, evicting the oldest when the ring
    is full. Exposed so tests and composite hooks can feed a tracer
    directly. *)

val events : t -> Kernel.event list
(** Recorded events, oldest first (at most [capacity]). Costs
    O(min recorded capacity) — a partially filled ring does not pay for
    its unused slots. *)

val recorded : t -> int
(** Total events seen, including ones evicted from the ring. *)

val set_snapshot_on : t -> (Kernel.event -> bool) option -> unit
(** Install a snapshot predicate: when {!record} sees an event for
    which it returns true, the ring's current contents (trigger
    included, as the newest event) are frozen as {!last_snapshot}.
    This is how the last-N history {e leading up to} a crash survives
    to end-of-run even though later recovery traffic keeps evicting
    ring slots — the journal's bounded-memory ring mode and
    [osiris record --ring] both arm it with
    [function Kernel.E_crash _ -> true | _ -> false]. A later trigger
    replaces the snapshot (newest crash wins); recording stays
    allocation-free while the predicate does not fire. *)

val last_snapshot : t -> Kernel.event list
(** The ring contents at the most recent snapshot trigger, oldest
    first ([[]] when the predicate never fired or none is installed). *)

val snapshots_taken : t -> int
(** How many times the snapshot predicate has fired. *)

val clear : t -> unit

val timeline : ?only:Endpoint.t -> t -> string list
(** Render, one line per event, optionally filtered to events touching
    the given endpoint. The [only] filter deliberately always lets
    [E_halt] through: a halt is a system-wide event that terminates
    every per-endpoint story, so a filtered timeline still ends with
    the run's outcome. *)

val pp_event : Kernel.event -> string
