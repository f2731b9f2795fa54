(** Declarative system specification: which {!Compartment} runs under
    which recovery policy.

    A [Sysconf.t] is what [System.build] consumes. It names a default
    policy (applied to user processes and any server without an
    explicit compartment) plus per-endpoint compartment overrides.
    [System.build (Sysconf.uniform Policy.enhanced)] reproduces the
    old global-policy behavior exactly — the uniform spec resolves
    every process to the same policy the global configuration did. *)

type t = {
  sc_name : string;
  sc_default : Policy.t;
  sc_compartments : Compartment.t list;
}

val uniform : ?name:string -> Policy.t -> t
(** Every compartment runs [policy]; named after the policy. *)

val make : ?name:string -> default:Policy.t -> Compartment.t list -> t
(** Mixed spec: explicit compartments, [default] for everything else.
    The derived name records the overrides
    (["enhanced+ds=stateless+vm=pessimistic/3"]).
    @raise Invalid_argument on two compartments for one endpoint. *)

val override : t -> Compartment.t -> t
(** Replace (or add) the compartment for the given endpoint. *)

val assign : t -> Endpoint.t -> Policy.t -> t
(** [override] with a default compartment wrapping just a policy. *)

val with_budget : t -> Endpoint.t -> int -> t
(** Set the restart budget for an endpoint (keeping its policy). *)

val name : t -> string
val default : t -> Policy.t
val compartments : t -> Compartment.t list

val compartment_for : t -> Endpoint.t -> Compartment.t option
val policy_for : t -> Endpoint.t -> Policy.t
val budget_for : t -> Endpoint.t -> int option

val to_assoc : t -> (Endpoint.t * Policy.t) list
(** The per-endpoint overrides as an assoc list (kernel config form). *)

val validate : t -> (unit, string list) result
(** Static sanity: budgets non-negative, [Critical] compartments have a
    real recovery action. *)

val describe : t -> string list
(** Human-readable rendering, one line per compartment. *)

val server_eps : Endpoint.t list
(** The seven system servers, boot order. *)

val server_of_name : string -> Endpoint.t option
(** A system server by its {!Endpoint.server_name} (one of
    {!server_eps}); [None] for anything else. The one server-name
    parser: spec strings, crash targets and the CLI all go through it. *)

val policy_of_string : string -> Policy.t option
(** {!Policy.by_name} extended with on-demand graduated policies
    (["enhanced-grad3"]). *)

val parse : string -> (t, string) result
(** Spec strings for the CLI:
    ["default[,server=policy[/budget]]..."], e.g.
    ["enhanced,ds=stateless,vm=pessimistic/3"]. *)
