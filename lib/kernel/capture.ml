(* Raw event capture. The entry layout (see the .mli table) is written
   and read only here: the appenders below lay entries down, [walk]
   takes them apart. *)

open Kernel_event

type t = {
  mutable buf : int array;
  mutable pos : int;
  mutable strs : string array;
  mutable spos : int;
  mutable drain : unit -> unit;
}

exception Observer_failure of exn

let () =
  Printexc.register_printer (function
    | Observer_failure e ->
      Some ("Capture.Observer_failure(" ^ Printexc.to_string e ^ ")")
    | _ -> None)

(* The room contract: one entry of any kind (9 slots, 2 strings, with
   headroom). *)
let room_ints = 16
let room_strs = 2

let grow c ~max_ints ~max_strs =
  let ok = ref true in
  if c.pos + room_ints > Array.length c.buf then begin
    if Array.length c.buf >= max_ints then ok := false
    else begin
      let a = Array.make (2 * Array.length c.buf) 0 in
      Array.blit c.buf 0 a 0 c.pos;
      c.buf <- a
    end
  end;
  if c.spos + room_strs > Array.length c.strs then begin
    if Array.length c.strs >= max_strs then ok := false
    else begin
      let a = Array.make (2 * Array.length c.strs) "" in
      Array.blit c.strs 0 a 0 c.spos;
      c.strs <- a
    end
  end;
  !ok

let make ~ints ~strs =
  { buf = Array.make ints 0; pos = 0; strs = Array.make strs ""; spos = 0;
    drain = ignore }

let create () = make ~ints:8192 ~strs:64

let set_drain c f = c.drain <- f

let drain c =
  try c.drain () with
  | e -> Printexc.raise_with_backtrace (Observer_failure e)
           (Printexc.get_raw_backtrace ())

let clear c =
  Array.fill c.strs 0 c.spos "";
  c.pos <- 0;
  c.spos <- 0

(* ---- appending --------------------------------------------------- *)

let[@inline] full c ni ns =
  c.pos + ni > Array.length c.buf || c.spos + ns > Array.length c.strs

(* A drain that broke the room contract would let the unsafe stores
   below write past the arrays. *)
let overflow c ni ns =
  drain c;
  if full c ni ns then
    raise (Observer_failure (Invalid_argument "Capture: drain left no room"))

(* Reserve room for a whole entry before writing any slot. *)
let[@inline] room c ni ns = if full c ni ns then overflow c ni ns

let[@inline] put_str c s =
  Array.unsafe_set c.strs c.spos s;
  c.spos <- c.spos + 1

let[@inline] cls_code = function
  | Seep.Read_only -> 0
  | Seep.State_modifying -> 1
  | Seep.Reply -> 2

(* The shared entry shapes: kind, time, ep, then up to two more ints,
   then [ns] strings. *)
let[@inline] put3 c kind ~time ~ep =
  room c 3 0;
  let a = c.buf and p = c.pos in
  Array.unsafe_set a p kind;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  c.pos <- p + 3

let[@inline] put4 c kind ns ~time ~ep ~x =
  room c 4 ns;
  let a = c.buf and p = c.pos in
  Array.unsafe_set a p kind;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  Array.unsafe_set a (p + 3) x;
  c.pos <- p + 4

let[@inline] put5 c kind ns ~time ~ep ~x ~y =
  room c 5 ns;
  let a = c.buf and p = c.pos in
  Array.unsafe_set a p kind;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  Array.unsafe_set a (p + 3) x;
  Array.unsafe_set a (p + 4) y;
  c.pos <- p + 5

let msg c ~time ~src ~dst ~tag ~call ~rid ~parent ~cls =
  room c 9 0;
  let a = c.buf and p = c.pos in
  Array.unsafe_set a p 0;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) src;
  Array.unsafe_set a (p + 3) dst;
  Array.unsafe_set a (p + 4) (Message.Tag.to_index tag);
  Array.unsafe_set a (p + 5) (Bool.to_int call);
  Array.unsafe_set a (p + 6) rid;
  Array.unsafe_set a (p + 7) parent;
  Array.unsafe_set a (p + 8) (cls_code cls);
  c.pos <- p + 9

let reply c ~time ~src ~dst ~tag ~rid =
  room c 6 0;
  let a = c.buf and p = c.pos in
  Array.unsafe_set a p 1;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) src;
  Array.unsafe_set a (p + 3) dst;
  Array.unsafe_set a (p + 4) (Message.Tag.to_index tag);
  Array.unsafe_set a (p + 5) rid;
  c.pos <- p + 6

let window_open c ~time ~ep ~rid = put4 c 2 0 ~time ~ep ~x:rid

let window_close c ~time ~ep ~rid ~policy =
  put5 c 3 0 ~time ~ep ~x:rid ~y:(Bool.to_int policy)

let checkpoint c ~time ~ep ~rid ~cycles = put5 c 4 0 ~time ~ep ~x:rid ~y:cycles

let store_logged c ~time ~ep ~rid ~bytes = put5 c 5 0 ~time ~ep ~x:rid ~y:bytes

let kcall c ~time ~ep ~rid ~kc =
  put4 c 6 1 ~time ~ep ~x:rid;
  put_str c kc

let crash c ~time ~ep ~reason ~window_open ~rid ~policy =
  put5 c 7 2 ~time ~ep ~x:(Bool.to_int window_open) ~y:rid;
  put_str c reason;
  put_str c policy

let hang_detected c ~time ~ep = put3 c 8 ~time ~ep

let rollback_begin c ~time ~ep ~rid = put4 c 9 0 ~time ~ep ~x:rid

let rollback_end c ~time ~ep ~rid ~bytes = put5 c 10 0 ~time ~ep ~x:rid ~y:bytes

let restart c ~time ~ep ~rid ~policy =
  put4 c 11 1 ~time ~ep ~x:rid;
  put_str c policy

(* The halt entry reuses the (time, ep, x) shape: kind sits in the ep
   slot, the exit status in x. *)
let halt c ~time ~halt =
  match halt with
  | H_completed status -> put4 c 12 0 ~time ~ep:0 ~x:status
  | H_shutdown s -> put4 c 12 1 ~time ~ep:1 ~x:0; put_str c s
  | H_panic s -> put4 c 12 1 ~time ~ep:2 ~x:0; put_str c s
  | H_hang -> put4 c 12 0 ~time ~ep:3 ~x:0

let spawn c ~time ~ep ~parent = put4 c 13 0 ~time ~ep ~x:parent

let append c = function
  | E_msg { time; src; dst; tag; call; rid; parent; cls } ->
    msg c ~time ~src ~dst ~tag ~call ~rid ~parent ~cls
  | E_reply { time; src; dst; tag; rid } -> reply c ~time ~src ~dst ~tag ~rid
  | E_window_open { time; ep; rid } -> window_open c ~time ~ep ~rid
  | E_window_close { time; ep; rid; policy } ->
    window_close c ~time ~ep ~rid ~policy
  | E_checkpoint { time; ep; rid; cycles } -> checkpoint c ~time ~ep ~rid ~cycles
  | E_store_logged { time; ep; rid; bytes } ->
    store_logged c ~time ~ep ~rid ~bytes
  | E_kcall { time; ep; rid; kc } -> kcall c ~time ~ep ~rid ~kc
  | E_crash { time; ep; reason; window_open; rid; policy } ->
    crash c ~time ~ep ~reason ~window_open ~rid ~policy
  | E_hang_detected { time; ep } -> hang_detected c ~time ~ep
  | E_rollback_begin { time; ep; rid } -> rollback_begin c ~time ~ep ~rid
  | E_rollback_end { time; ep; rid; bytes } ->
    rollback_end c ~time ~ep ~rid ~bytes
  | E_restart { time; ep; rid; policy } -> restart c ~time ~ep ~rid ~policy
  | E_halt { time; halt = h } -> halt c ~time ~halt:h
  | E_spawn { time; ep; parent } -> spawn c ~time ~ep ~parent

(* ---- reading ----------------------------------------------------- *)

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

let[@inline] f c p = Array.unsafe_get c.buf p
let[@inline] str c s = Array.unsafe_get c.strs s

(* Tail-recursive on int arguments, so the walk itself allocates
   nothing. [p] is the entry's first slot, [s] its first string. *)
let rec walk_from c v x p s =
  if p < c.pos then
    match f c p with
    | 0 ->
      v.on_msg x ~time:(f c (p + 1)) ~src:(f c (p + 2)) ~dst:(f c (p + 3))
        ~tag:(f c (p + 4)) ~call:(f c (p + 5) <> 0) ~rid:(f c (p + 6))
        ~parent:(f c (p + 7)) ~cls:(f c (p + 8));
      walk_from c v x (p + 9) s
    | 1 ->
      v.on_reply x ~time:(f c (p + 1)) ~src:(f c (p + 2)) ~dst:(f c (p + 3))
        ~tag:(f c (p + 4)) ~rid:(f c (p + 5));
      walk_from c v x (p + 6) s
    | 2 ->
      v.on_window_open x ~time:(f c (p + 1)) ~ep:(f c (p + 2))
        ~rid:(f c (p + 3));
      walk_from c v x (p + 4) s
    | 3 ->
      v.on_window_close x ~time:(f c (p + 1)) ~ep:(f c (p + 2))
        ~rid:(f c (p + 3)) ~policy:(f c (p + 4) <> 0);
      walk_from c v x (p + 5) s
    | 4 ->
      v.on_checkpoint x ~time:(f c (p + 1)) ~ep:(f c (p + 2))
        ~rid:(f c (p + 3)) ~cycles:(f c (p + 4));
      walk_from c v x (p + 5) s
    | 5 ->
      v.on_store_logged x ~time:(f c (p + 1)) ~ep:(f c (p + 2))
        ~rid:(f c (p + 3)) ~bytes:(f c (p + 4));
      walk_from c v x (p + 5) s
    | 6 ->
      v.on_kcall x ~time:(f c (p + 1)) ~ep:(f c (p + 2)) ~rid:(f c (p + 3))
        ~kc:(str c s);
      walk_from c v x (p + 4) (s + 1)
    | 7 ->
      v.on_crash x ~time:(f c (p + 1)) ~ep:(f c (p + 2))
        ~window_open:(f c (p + 3) <> 0) ~rid:(f c (p + 4))
        ~reason:(str c s) ~policy:(str c (s + 1));
      walk_from c v x (p + 5) (s + 2)
    | 8 ->
      v.on_hang_detected x ~time:(f c (p + 1)) ~ep:(f c (p + 2));
      walk_from c v x (p + 3) s
    | 9 ->
      v.on_rollback_begin x ~time:(f c (p + 1)) ~ep:(f c (p + 2))
        ~rid:(f c (p + 3));
      walk_from c v x (p + 4) s
    | 10 ->
      v.on_rollback_end x ~time:(f c (p + 1)) ~ep:(f c (p + 2))
        ~rid:(f c (p + 3)) ~bytes:(f c (p + 4));
      walk_from c v x (p + 5) s
    | 11 ->
      v.on_restart x ~time:(f c (p + 1)) ~ep:(f c (p + 2)) ~rid:(f c (p + 3))
        ~policy:(str c s);
      walk_from c v x (p + 4) (s + 1)
    | 12 ->
      let kind = f c (p + 2) in
      let has_reason = kind = 1 || kind = 2 in
      v.on_halt x ~time:(f c (p + 1)) ~kind ~status:(f c (p + 3))
        ~reason:(if has_reason then str c s else "");
      walk_from c v x (p + 4) (if has_reason then s + 1 else s)
    | _ (* 13 *) ->
      v.on_spawn x ~time:(f c (p + 1)) ~ep:(f c (p + 2)) ~parent:(f c (p + 3));
      walk_from c v x (p + 4) s

let walk c v x = walk_from c v x 0 0

(* Indexed directly: [Message.Tag.of_index] boxes its result. *)
let tags = Array.init Message.Tag.n_tags (fun i -> Option.get (Message.Tag.of_index i))

let tag_of_index i = tags.(i)

let cls_of_code = function
  | 0 -> Seep.Read_only
  | 1 -> Seep.State_modifying
  | _ -> Seep.Reply

let decoder = {
  on_msg = (fun f ~time ~src ~dst ~tag ~call ~rid ~parent ~cls ->
    f (E_msg { time; src; dst; tag = tag_of_index tag; call; rid; parent;
               cls = cls_of_code cls }));
  on_reply = (fun f ~time ~src ~dst ~tag ~rid ->
    f (E_reply { time; src; dst; tag = tag_of_index tag; rid }));
  on_window_open = (fun f ~time ~ep ~rid -> f (E_window_open { time; ep; rid }));
  on_window_close = (fun f ~time ~ep ~rid ~policy ->
    f (E_window_close { time; ep; rid; policy }));
  on_checkpoint = (fun f ~time ~ep ~rid ~cycles ->
    f (E_checkpoint { time; ep; rid; cycles }));
  on_store_logged = (fun f ~time ~ep ~rid ~bytes ->
    f (E_store_logged { time; ep; rid; bytes }));
  on_kcall = (fun f ~time ~ep ~rid ~kc -> f (E_kcall { time; ep; rid; kc }));
  on_crash = (fun f ~time ~ep ~reason ~window_open ~rid ~policy ->
    f (E_crash { time; ep; reason; window_open; rid; policy }));
  on_hang_detected = (fun f ~time ~ep -> f (E_hang_detected { time; ep }));
  on_rollback_begin = (fun f ~time ~ep ~rid ->
    f (E_rollback_begin { time; ep; rid }));
  on_rollback_end = (fun f ~time ~ep ~rid ~bytes ->
    f (E_rollback_end { time; ep; rid; bytes }));
  on_restart = (fun f ~time ~ep ~rid ~policy ->
    f (E_restart { time; ep; rid; policy }));
  on_halt = (fun f ~time ~kind ~status ~reason ->
    let halt =
      match kind with
      | 0 -> H_completed status
      | 1 -> H_shutdown reason
      | 2 -> H_panic reason
      | _ -> H_hang
    in
    f (E_halt { time; halt }));
  on_spawn = (fun f ~time ~ep ~parent -> f (E_spawn { time; ep; parent }));
}

let of_hook f =
  let c = make ~ints:4096 ~strs:1024 in
  set_drain c (fun () -> walk c decoder f; clear c);
  c
