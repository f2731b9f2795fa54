(** Recovery-health watchdog.

    Folds a run's event stream (crash / restart events) and reports
    per-compartment recovery health: MTTR (mean virtual
    cycles from crash to the matching restart), recovery-success
    ratio, and crash-loop detection over a sliding window of virtual
    time. With a profiler attached it also reports overhead
    percentages — the live analogue of the paper's Table IV. *)

type config = {
  hc_crash_loop_n : int;
      (** Crashes within the window that flag a loop when the
          compartment has no restart budget (default 3). *)
  hc_crash_loop_window : int;
      (** Sliding-window width in virtual cycles (default 2M — the
          kernel's hang-detection horizon). *)
}

val default_config : config

type status =
  | Healthy        (** Alive, every crash recovered, no loop. *)
  | Degraded       (** Alive but with unrecovered crashes. *)
  | Crash_looping  (** Threshold crashes within the sliding window. *)
  | Failed         (** Not alive at snapshot time. *)

val status_to_string : status -> string

type comp = {
  co_ep : Endpoint.t;
  co_name : string;
  co_policy : string;
  co_alive : bool;
  co_crashes : int;
  co_restarts : int;
  co_recent_crashes : int;       (** Crashes inside the sliding window. *)
  co_crash_loop_threshold : int; (** Restart budget when given, else default. *)
  co_mttr : float;               (** Mean cycles crash -> restart. *)
  co_success_ratio : float;      (** Recovered / crashed, 1.0 when no crashes. *)
  co_overhead_pct : float option;
      (** (instr + undo_log + checkpoint) / user * 100 — window
          instrumentation overhead, Table IV's quantity. Requires a
          profiler. *)
  co_recovery_pct : float option;
      (** (rollback + restart) / user * 100 — cycles spent actually
          recovering. *)
  co_status : status;
}

val snapshot :
  ?config:config -> ?profiler:Profiler.t ->
  ?budget_for:(Endpoint.t -> int option) ->
  Kernel.event list -> Kernel.t -> comp list
(** One row per registered server, in registration order, from the
    run's oldest-first [events] and the kernel at the end of the run
    (liveness, policy names, and the clock the sliding window ends
    at).
    [budget_for] (e.g. [Sysconf.budget_for conf]) supplies per-
    compartment restart budgets reused as crash-loop thresholds: a
    compartment that has burned its whole budget inside one window is
    looping. *)

val render : comp list -> string
(** Health table. *)

val to_json : comp list -> string
(** Deterministic JSON artifact. *)
