(** The kernel's structured event stream: the value types observers
   consume. [Kernel] re-exports them; [Capture] holds the log they are
   appended to and decoded from. *)

type halt =
  | H_completed of int
      (** The designated root process exited with this status. *)
  | H_shutdown of string
      (** Controlled shutdown performed by the recovery protocol. *)
  | H_panic of string
      (** Kernel invariant broken or unrecoverable crash. *)
  | H_hang
      (** No runnable work before completion, or op budget exhausted. *)

(** Every delivered message carries a {e causal request id} ([rid],
    positive, unique per run) and the rid of the request its sender was
    handling at the time ([parent], 0 at a root — user programs and
    kernel-originated notifications). Threading the rid through sendrec
    chains links a user syscall to its server fan-out, and a crash to
    the request whose handling triggered it: observers can rebuild the
    whole request/recovery span tree from the flat event stream (see
    [lib/obs]). Rid allocation is an unconditional int increment, so
    attaching a capture mid-run never changes the numbering. *)
type event =
  | E_msg of { time : int; src : Endpoint.t; dst : Endpoint.t;
               tag : Message.Tag.t; call : bool;
               rid : int; parent : int; cls : Seep.cls }
      (** A request or notification was delivered to [dst]'s inbox,
          SEEP-classified from the receiver's point of view. *)
  | E_reply of { time : int; src : Endpoint.t; dst : Endpoint.t;
                 tag : Message.Tag.t; rid : int }
      (** The call [rid] completed — including virtualized
          [E_CRASH] error replies injected by [K_reply_error]. *)
  | E_window_open of { time : int; ep : Endpoint.t; rid : int }
      (** A recovery window opened for handling request [rid]. *)
  | E_window_close of { time : int; ep : Endpoint.t; rid : int; policy : bool }
      (** The window closed; [policy] when a policy-forbidden SEEP (or
          graduated hardening) forced it, false at handler completion
          or thread switch. *)
  | E_checkpoint of { time : int; ep : Endpoint.t; rid : int; cycles : int }
      (** Checkpoint taken at window open ([cycles] charged — large
          for [Snapshot] instrumentation, constant for undo logging). *)
  | E_store_logged of { time : int; ep : Endpoint.t; rid : int; bytes : int }
      (** An in-window store was offered to the undo log. *)
  | E_kcall of { time : int; ep : Endpoint.t; rid : int; kc : string }
      (** A kernel call (recovery protocol steps are the interesting
          ones: mk_clone, rollback, go, ...). *)
  | E_crash of { time : int; ep : Endpoint.t; reason : string;
                 window_open : bool; rid : int; policy : string }
      (** [rid] is the request being handled when the crash hit (0 in
          loop/init code) — recovery spans nest under it. [policy]
          names the crashed compartment's policy, so traces from
          heterogeneous (mixed-policy) runs stay attributable. *)
  | E_hang_detected of { time : int; ep : Endpoint.t }
      (** The heartbeat detected a hung component (precedes the
          corresponding [E_crash]). *)
  | E_rollback_begin of { time : int; ep : Endpoint.t; rid : int }
  | E_rollback_end of { time : int; ep : Endpoint.t; rid : int; bytes : int }
      (** [bytes] actually blitted back: undo-log payload replayed, or
          the image size under [Snapshot] instrumentation. *)
  | E_restart of { time : int; ep : Endpoint.t; rid : int; policy : string }
  | E_halt of { time : int; halt : halt }
  | E_spawn of { time : int; ep : Endpoint.t; parent : int }
      (** A user process was born at virtual instant [time] (its
          arrival, possibly ahead of emission order for open-loop
          loads scheduled in the future). [parent] is the spawning
          endpoint — 0 for harness-injected load requests — so the
          analysis layer can anchor arrival -> exit latency from the
          event stream alone. *)
