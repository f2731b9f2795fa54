(** Raw event capture: the kernel's one observer tap, and the only
    module that knows the capture-entry layout.

    The kernel's emission sites append each event as a few plain [int]
    stores into a consumer-owned log (string fields ride as shared
    pointers — the kernel's strings are immutable, so no copy) and
    return: no closure call, no event construction, no encoding. A
    consumer sees the log only through its {e drain}, which the kernel
    invokes when an append would overflow and once at the end of every
    scheduler pump — so by the time [Kernel.boot] or [Kernel.run]
    returns, every event emitted so far has reached the drain.

    Two consumers exist: the journal writer, whose drain grows the log
    and batch-encodes it into the wire format ([Journal.capture]), and
    {!of_hook}, which decodes the log back into [Kernel.event] values for
    closure observers (the flight recorder's crash ring, replay's live
    stream, tests' reference streams). *)

(** {1 The log}

    Entry layout. The first slot is the event's kind code (constructor
    declaration order); booleans are 0/1, [tag] is
    [Message.Tag.to_index], [cls] is 0 = read-only, 1 =
    state-modifying, 2 = reply; trailing strings ride in a parallel
    string array in append order:

    {v
     0  E_msg            time src dst tag call rid parent cls (9 slots)
     1  E_reply          time src dst tag rid                 (6)
     2  E_window_open    time ep rid                          (4)
     3  E_window_close   time ep rid policy                   (5)
     4  E_checkpoint     time ep rid cycles                   (5)
     5  E_store_logged   time ep rid bytes                    (5)
     6  E_kcall          time ep rid             + 1 string   (4)
     7  E_crash          time ep window_open rid + 2 strings  (5)
     8  E_hang_detected  time ep                              (3)
     9  E_rollback_begin time ep rid                          (4)
    10  E_rollback_end   time ep rid bytes                    (5)
    11  E_restart        time ep rid             + 1 string   (4)
    12  E_halt           time kind status        + 1 string   (4)
          (kind 0 completed / 1 shutdown / 2 panic / 3 hang;
           the string only for kinds 1 and 2)
    13  E_spawn          time ep parent                       (4)
    v} *)

type t

exception Observer_failure of exn
(** Raised in place of any exception that escapes a drain. The kernel's
    machine-check trap absorbs only the exceptions corrupted simulated
    data can provoke; an observer's failure must abort the run instead
    of turning into a simulated crash, so it is re-raised under this
    constructor, which the trap does not match. *)

val create : unit -> t
(** An empty log with room for 8192 int slots and 64 strings, whose
    drain does nothing until {!set_drain} installs one. *)

val set_drain : t -> (unit -> unit) -> unit
(** The room contract: a drain must leave at least 16 free int slots
    and 2 free string slots (one entry of any kind) — by consuming the
    log and calling {!clear}, or by {!grow}ing it. It is invoked only
    at entry boundaries. An append after a drain that left too little
    room raises {!Observer_failure}. *)

val drain : t -> unit
(** Invoke the drain, re-raising any escaping exception as
    {!Observer_failure}. *)

val grow : t -> max_ints:int -> max_strs:int -> bool
(** Restore the room contract by doubling whichever array lacks room,
    up to its cap. [false] when an array lacking room is already at
    its cap: the caller must consume the log instead. [true] (and no
    change) when there is room already. *)

val clear : t -> unit
(** Empty the log, dropping its string pointers. *)

(** {1 Appending}

    The scalar appenders the kernel's emission sites call: one per
    event kind, each reserving room for the whole entry before writing
    it, so the log always sits at an entry boundary when drained. *)

val msg : t -> time:int -> src:Endpoint.t -> dst:Endpoint.t ->
  tag:Message.Tag.t -> call:bool -> rid:int -> parent:int -> cls:Seep.cls ->
  unit
val reply : t -> time:int -> src:Endpoint.t -> dst:Endpoint.t ->
  tag:Message.Tag.t -> rid:int -> unit
val window_open : t -> time:int -> ep:Endpoint.t -> rid:int -> unit
val window_close : t -> time:int -> ep:Endpoint.t -> rid:int -> policy:bool ->
  unit
val checkpoint : t -> time:int -> ep:Endpoint.t -> rid:int -> cycles:int ->
  unit
val store_logged : t -> time:int -> ep:Endpoint.t -> rid:int -> bytes:int ->
  unit
val kcall : t -> time:int -> ep:Endpoint.t -> rid:int -> kc:string -> unit
val crash : t -> time:int -> ep:Endpoint.t -> reason:string ->
  window_open:bool -> rid:int -> policy:string -> unit
val hang_detected : t -> time:int -> ep:Endpoint.t -> unit
val rollback_begin : t -> time:int -> ep:Endpoint.t -> rid:int -> unit
val rollback_end : t -> time:int -> ep:Endpoint.t -> rid:int -> bytes:int ->
  unit
val restart : t -> time:int -> ep:Endpoint.t -> rid:int -> policy:string ->
  unit
val halt : t -> time:int -> halt:Kernel_event.halt -> unit
val spawn : t -> time:int -> ep:Endpoint.t -> parent:int -> unit

val append : t -> Kernel_event.event -> unit
(** The event-value form: the same entry the matching scalar appender
    lays down, so a log fed either way holds identical entries. *)

(** {1 Reading} *)

(** One callback per kind, receiving the entry's fields as the log
    stores them: [tag] and [cls] as their integer codes, a halt as its
    kind code, exit status and reason ([""] unless shutdown/panic). All
    arguments are immediate or shared pointers, so a walk whose
    callbacks allocate nothing allocates nothing. ['a] is the
    consumer's state, passed first to every callback. *)
type 'a visitor = {
  on_msg : 'a -> time:int -> src:int -> dst:int -> tag:int -> call:bool ->
    rid:int -> parent:int -> cls:int -> unit;
  on_reply : 'a -> time:int -> src:int -> dst:int -> tag:int -> rid:int -> unit;
  on_window_open : 'a -> time:int -> ep:int -> rid:int -> unit;
  on_window_close : 'a -> time:int -> ep:int -> rid:int -> policy:bool -> unit;
  on_checkpoint : 'a -> time:int -> ep:int -> rid:int -> cycles:int -> unit;
  on_store_logged : 'a -> time:int -> ep:int -> rid:int -> bytes:int -> unit;
  on_kcall : 'a -> time:int -> ep:int -> rid:int -> kc:string -> unit;
  on_crash : 'a -> time:int -> ep:int -> reason:string -> window_open:bool ->
    rid:int -> policy:string -> unit;
  on_hang_detected : 'a -> time:int -> ep:int -> unit;
  on_rollback_begin : 'a -> time:int -> ep:int -> rid:int -> unit;
  on_rollback_end : 'a -> time:int -> ep:int -> rid:int -> bytes:int -> unit;
  on_restart : 'a -> time:int -> ep:int -> rid:int -> policy:string -> unit;
  on_halt : 'a -> time:int -> kind:int -> status:int -> reason:string -> unit;
  on_spawn : 'a -> time:int -> ep:int -> parent:int -> unit;
}

val walk : t -> 'a visitor -> 'a -> unit
(** Visit every entry in append order. The log is left as it is. *)

val of_hook : (Kernel_event.event -> unit) -> t
(** The adapter for closure observers: a log with a fixed buffer whose
    drain decodes each entry back into an event, in order, passes
    it to the hook, then clears the log. Delivery
    is batched — at buffer overflow and at the end of every kernel
    pump — but never reordered, so a consumer that reads its state
    after [Kernel.run] returns sees exactly the per-event stream. *)
