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
  | K_replay of Endpoint.t
  | K_kill_requester of { proc : Endpoint.t }
  | K_live_update of { proc : Endpoint.t; loop : unit t }

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

and 'a op =
  | Compute : int -> unit op
  | Load : int -> int op
  | Store : int * int -> unit op
  | Load_str : { off : int; len : int } -> string op
  | Store_str : { off : int; len : int; v : string } -> unit op
  | Send : Endpoint.t * Message.t -> unit op
  | Call : Endpoint.t * Message.t -> Message.t op
  | Receive : (Endpoint.t * Message.t) op
  | Reply : Endpoint.t * Message.t -> unit op
  | Yield : unit op
  | Spawn : unit t -> unit op
  | Kcall : kcall -> kresult op
  | Rand : int -> int op
  | Now : int op

and 'a t =
  | Done : 'a -> 'a t
  | Fail : string -> 'a t
  | Prim : 'a op -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t

(* A type-aligned stack of pending [bind] continuations: a value of
   type ['a] flows in at the top and a ['b] comes out at the bottom. *)
type ('a, 'b) kont =
  | Nil : ('a, 'a) kont
  | Frame : ('a -> 'b t) * ('b, 'c) kont -> ('a, 'c) kont

type view =
  | Op : 'a op * ('a, unit) kont -> view
  | Finished
  | Failed of string

let return x = Done x

(* O(1): the argument is never walked. [Done] applies [f] on the spot,
   so the code after a pure prefix runs at construction time, before
   the kernel sees the program. *)
let bind p f =
  match p with
  | Done x -> f x
  | Fail msg -> Fail msg
  | _ -> Bind (p, f)

(* Eager normalisation: push the continuations of [Bind]s while
   descending to the leftmost node, and pop them as values arrive,
   until the next primitive is reached. The two functions only call
   each other in tail position, so any nesting depth runs in constant
   stack. *)
let rec descend : type a. a t -> (a, unit) kont -> view =
  fun p k ->
  match p with
  | Prim op -> Op (op, k)
  | Bind (q, f) -> descend q (Frame (f, k))
  | Done x -> resume k x
  | Fail msg -> Failed msg

and resume : type a. (a, unit) kont -> a -> view =
  fun k x ->
  match k with
  | Nil -> Finished
  | Frame (f, k) -> descend (f x) k

let start p = descend p Nil

let map f p = bind p (fun x -> Done (f x))

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) p f = map f p
  let ( >>= ) = bind
  let ( >> ) a b = bind a (fun () -> b)
end

let compute c = Prim (Compute c)
let load off = Prim (Load off)
let store off v = Prim (Store (off, v))
let load_str ~off ~len = Prim (Load_str { off; len })
let store_str ~off ~len v = Prim (Store_str { off; len; v })
let send dst m = Prim (Send (dst, m))
let call dst m = Prim (Call (dst, m))
let receive = Prim Receive
let reply dst m = Prim (Reply (dst, m))
let yield = Prim Yield
let spawn prog = Prim (Spawn prog)
let kcall c = Prim (Kcall c)
let rand bound = Prim (Rand bound)
let now = Prim Now
let fail msg = Fail msg

let when_ cond p = if cond then p else Done ()

let rec iter_list f = function
  | [] -> Done ()
  | x :: rest -> bind (f x) (fun () -> iter_list f rest)

let iter_range ~lo ~hi f =
  let rec go i = if i >= hi then Done () else bind (f i) (fun () -> go (i + 1)) in
  go lo

let repeat n p =
  let rec go i = if i >= n then Done () else bind p (fun () -> go (i + 1)) in
  go 0

let guard cond what = if cond then Done () else Fail ("assertion failed: " ^ what)

module Mem = struct
  let get_int tbl ~row f = load (Layout.Table.addr_int tbl ~row f)
  let set_int tbl ~row f v = store (Layout.Table.addr_int tbl ~row f) v

  let get_str tbl ~row f =
    load_str ~off:(Layout.Table.addr_str tbl ~row f) ~len:(Layout.Table.str_len f)

  let set_str tbl ~row f v =
    store_str ~off:(Layout.Table.addr_str tbl ~row f) ~len:(Layout.Table.str_len f) v

  let get_cell c = load (Layout.Cell.addr c)
  let set_cell c v = store (Layout.Cell.addr c) v
end
