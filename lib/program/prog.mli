(** The program DSL: server handlers and user processes as interpretable
    operation trees.

    In the original OSIRIS, servers are C programs whose stores and IPC
    call sites are instrumented by LLVM passes. Here, programs are
    values of a freer monad: every primitive {!op} is one observable
    operation — a memory access, an IPC interaction, simulated
    computation, or a privileged kernel call. The kernel interprets
    programs one operation at a time, which yields exactly the hooks
    the paper's instrumentation provides:

    - every [Store] passes through the component's write hook (undo
      logging while the recovery window is open);
    - every [Send]/[Call]/[Reply] consults the SEEP classification and
      the active recovery policy to decide whether the window closes;
    - every executed operation is a coverage unit (Table I) and a
      potential fault site (Tables II/III);
    - every operation carries a simulated cycle cost (Tables IV/V).

    Representation. A program is [Done], [Fail], a primitive, or one
    [Bind] node, and every primitive is itself a node of ['a t]: [load
    off] is one [Load off] block. {!bind} is O(1) and never walks its
    argument (except that [bind (return x) f] applies [f x] on the
    spot). The constructors are [private]: code outside this module can
    match programs but build them only through the functions below.
    Pending continuations live in a type-aligned, immutable {!kont}
    stack that only this module builds or inspects. The kernel drives a
    program through {!view}s: {!start} yields the first primitive with
    the continuation directly around it (the head) and the stack below
    that, and {!next} feeds a result to the head, runs the user
    continuations up to the next primitive, and yields that. A parked
    view can be resumed any number of times (fork resumes one twice).

    Programs must be deterministic: randomness comes from [Rand] (the
    kernel's seeded stream) and time from [Now] (the virtual clock). *)

(** Privileged kernel calls, available to PM (process lifecycle) and RS
    (the recovery protocol). See the kernel for semantics. *)
type kcall =
  | K_fork of { parent : Endpoint.t }
  | K_exec of { proc : Endpoint.t; path : string; arg : int }
  | K_kill of { proc : Endpoint.t; status : int }
  | K_crash_context of Endpoint.t
  | K_mk_clone of Endpoint.t
  | K_rollback of Endpoint.t
  | K_clear_state of Endpoint.t
  | K_go of Endpoint.t
  | K_reply_error of { proc : Endpoint.t; err : Errno.t }
  | K_shutdown of string
  | K_alarm of { ticks : int }
  | K_mmu of { proc : Endpoint.t }
      (** MMU/page-table update on behalf of a process — VM's
          state-modifying interaction with the kernel (sys_vmctl in
          MINIX terms). Semantically a costed no-op in the simulation,
          but it closes VM's recovery window like any state-modifying
          SEEP. *)
  | K_replay of Endpoint.t
      (** Replay reconciliation (extension): re-deliver the request the
          component crashed on to its recovered clone. *)
  | K_kill_requester of { proc : Endpoint.t }
      (** Kill-requester reconciliation (extension): terminate the
          requester through the normal exit path, cleaning up its
          requester-local state everywhere. *)
  | K_live_update of { proc : Endpoint.t; loop : unit t }
      (** Live component update (extension, Section VII generality):
          atomically replace a quiescent server's request loop with new
          code over its preserved state, using the clone/state-transfer
          machinery. Fails with [EAGAIN] when the target is
          mid-request. *)

and kresult =
  | Kr_ok
  | Kr_err of Errno.t
  | Kr_ep of Endpoint.t
  | Kr_context of {
      window_open : bool;
      requester : Endpoint.t option;
      reason : string;
      rlocal : bool;
          (* a requester-local SEEP was crossed inside the window *)
    }

(** A program returning ['a]: [Done], [Fail], a [Bind], or one of the
    primitive operations, each with the type of its result. *)
and 'a t = private
  | Done : 'a -> 'a t
  | Fail : string -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t
  | Compute : int -> unit t  (** Burn n simulated cycles. *)
  | Load : int -> int t  (** Word load, absolute byte offset. *)
  | Store : int * int -> unit t
  | Load_str : { off : int; len : int } -> string t
  | Store_str : { off : int; len : int; v : string } -> unit t
  | Send : Endpoint.t * Message.t -> unit t
      (** Asynchronous notification; never blocks. *)
  | Call : Endpoint.t * Message.t -> Message.t t
      (** MINIX sendrec: blocks until the receiver replies (possibly
          with [R_err E_CRASH] courtesy of the Recovery Server). *)
  | Receive : (Endpoint.t * Message.t) t
      (** Top-of-loop blocking receive (servers only). *)
  | Reply : Endpoint.t * Message.t -> unit t
      (** Answer a pending [Call] from the given endpoint. *)
  | Yield : unit t  (** Cooperative thread yield (multithreaded servers). *)
  | Spawn : unit t -> unit t  (** Start a cothread in the same component. *)
  | Kcall : kcall -> kresult t
  | Rand : int -> int t  (** Uniform int below the bound. *)
  | Now : int t  (** Virtual time, cycles. *)

and 'a op = 'a t
(** A primitive: an ['a t] that is neither [Done], [Fail] nor [Bind].
    Only primitives appear in a {!view}. *)

(** {2 Interpretation} *)

type ('a, 'b) kont
(** The continuation of a suspended program: given an ['a], it runs on
    to a ['b]. Immutable. *)

type view =
  | Op : 'a op * ('a -> 'b t) * ('b, unit) kont -> view
      (** The next primitive to execute, the continuation directly
          around it, and the stack that consumes that one's result. *)
  | Finished  (** The program returned. *)
  | Failed of string
      (** Fail-stop crash of the executing component (the NULL-deref /
          failed-assertion analogue). *)

val start : unit t -> view
(** The first primitive of a program. Runs no user code. *)

val next : ('a -> 'b t) -> ('b, unit) kont -> 'a -> view
(** [next f k x] feeds the result [x] of an [Op (_, f, k)] primitive to
    its continuation and runs to the next primitive. User continuations
    run here, in the caller's frame, so their exceptions propagate to
    the caller. Constant stack for any [bind] nesting. *)

(** {2 Building programs} *)

val return : 'a -> 'a t

val bind : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( >> ) : unit t -> 'b t -> 'b t
end

(** {2 Operation shorthands} *)

val compute : int -> unit t
val load : int -> int t
val store : int -> int -> unit t
val load_str : off:int -> len:int -> string t
val store_str : off:int -> len:int -> string -> unit t
val send : Endpoint.t -> Message.t -> unit t
val call : Endpoint.t -> Message.t -> Message.t t
val receive : (Endpoint.t * Message.t) t
val reply : Endpoint.t -> Message.t -> unit t
val yield : unit t
val spawn : unit t -> unit t
val kcall : kcall -> kresult t
val rand : int -> int t
val now : int t
val fail : string -> 'a t

(** {2 Control helpers} *)

val when_ : bool -> unit t -> unit t
val iter_list : ('a -> unit t) -> 'a list -> unit t
val iter_range : lo:int -> hi:int -> (int -> unit t) -> unit t
(** [iter_range ~lo ~hi f] runs [f lo .. f (hi-1)] in order. *)

val repeat : int -> unit t -> unit t
(** Run the given program n times. The program value is reused, which is
    sound because programs are immutable trees. *)

val guard : bool -> string -> unit t
(** [guard cond what] is the defensive-programming assertion of the
    paper's fault model: if [cond] is false the component fail-stops
    with a message naming [what]. *)

(** {2 Typed memory access over layouts}

    Program-level counterparts of [Layout.Table] direct access: these
    build [Load]/[Store] nodes so that server state access is costed,
    instrumented and fault-injectable. *)

module Mem : sig
  val get_int : Layout.Table.t -> row:int -> Layout.int_field -> int t
  val set_int : Layout.Table.t -> row:int -> Layout.int_field -> int -> unit t
  val get_str : Layout.Table.t -> row:int -> Layout.str_field -> string t
  val set_str : Layout.Table.t -> row:int -> Layout.str_field -> string -> unit t
  val get_cell : Layout.Cell.t -> int t
  val set_cell : Layout.Cell.t -> int -> unit t
end
