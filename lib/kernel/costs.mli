(** Simulated cycle costs of every interpreter operation.

    The cost table is how architectural differences are modelled:
    the microkernel table charges two protection-domain switches per
    synchronous IPC (the price of compartmentalization the paper
    discusses in Section VI-C), while the monolithic table charges a
    trap-like cost, standing in for the "Linux" comparison system of
    Table IV. [c_log] is the per-store undo-logging cost whose
    elimination outside recovery windows is the Table V optimization. *)

type t = {
  c_load : int;
  c_store : int;
  c_store_per_byte : int;  (** Extra cost per byte for string stores. *)
  c_log : int;             (** Undo-log append, charged per logged store. *)
  c_log_per_byte : int;
      (** Per-byte log cost for string stores. The instrumentation logs
          word-sized entries, so a bulk store of N bytes produces N/8
          log appends; this constant carries that per-word entry cost
          spread over the bytes. *)
  c_send : int;
  c_call : int;            (** Full sendrec round-trip entry cost. *)
  c_reply : int;
  c_receive : int;
  c_kcall : int;
  c_spawn : int;
  c_yield : int;
  c_checkpoint : int;      (** Window open: clearing the undo log. *)
  c_disk_block : int;      (** Block-device access latency. *)
  c_instr_op : int;
      (** Per-operation instrumentation drag while store logging is
          active. One interpreted operation stands for a cluster of
          machine-level stores (locals, spills, loop counters) that the
          LLVM pass instruments individually; this constant carries
          their aggregate logging cost, calibrated against the DSN'15
          lightweight-memory-checkpointing measurements. *)
}

val microkernel : t
(** MINIX-like: IPC crosses protection domains. *)

val monolithic : t
(** Single address space: syscalls are traps, internal "IPC" is a
    function call. *)

val fingerprint : t -> int
(** Deterministic 62-bit hash of the cost table (FNV-1a over the
    fields, stable across processes and machines). Recorded in journal
    headers so replay can detect that it is about to re-execute under
    a different cost model — the divergence sanitizer's first line of
    defence. *)

val perturbed : t -> t
(** [t] with one entry ([c_reply]) off by one cycle: the
    cost-perturbation fixture. A run under it diverges from a run under
    [t], and its {!fingerprint} differs. *)

val scaled_ghz : float
(** Simulated clock rate used to convert cycles to seconds when
    reporting benchmark scores (the paper's testbed ran at 2.3 GHz). *)

val cycles_to_seconds : int -> float
