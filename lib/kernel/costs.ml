type t = {
  c_load : int;
  c_store : int;
  c_store_per_byte : int;
  c_log : int;
  c_log_per_byte : int;
  c_send : int;
  c_call : int;
  c_reply : int;
  c_receive : int;
  c_kcall : int;
  c_spawn : int;
  c_yield : int;
  c_checkpoint : int;
  c_disk_block : int;
  c_instr_op : int;
}

let microkernel =
  { c_load = 4;
    c_store = 6;
    c_store_per_byte = 1;
    c_log = 40;
    c_log_per_byte = 2;
    c_send = 900;
    c_call = 1800;   (* two domain switches + message copy *)
    c_reply = 900;
    c_receive = 300;
    c_kcall = 600;
    c_spawn = 150;
    c_yield = 80;
    c_checkpoint = 40;
    c_disk_block = 1_200;
    c_instr_op = 20 }

let monolithic =
  { c_load = 4;
    c_store = 6;
    c_store_per_byte = 1;
    c_log = 14;
    c_log_per_byte = 1;
    c_send = 60;
    c_call = 120;    (* trap + return *)
    c_reply = 60;
    c_receive = 30;
    c_kcall = 60;
    c_spawn = 80;
    c_yield = 40;
    c_checkpoint = 40;
    c_disk_block = 1_200;
    c_instr_op = 20 }

(* FNV-1a over the field values in declaration order, folded to 62
   bits so the result is a positive OCaml int on 64-bit platforms and
   varint-encodes compactly. Stable across processes and machines —
   unlike [Hashtbl.hash], whose contract allows implementation drift —
   which is what lets a journal recorded on one host be replayed on
   another and still detect cost-table skew. *)
let fingerprint t =
  let prime = 0x100000001b3 in
  let mask = (1 lsl 62) - 1 in
  let h = ref 0xcbf29ce4842223 in  (* FNV offset basis, truncated to fit an OCaml int *)
  let mix v =
    (* Mix each of the int's 8 bytes so nearby values diverge. *)
    for shift = 0 to 7 do
      h := ((!h lxor ((v lsr (8 * shift)) land 0xff)) * prime) land mask
    done
  in
  List.iter mix
    [ t.c_load; t.c_store; t.c_store_per_byte; t.c_log; t.c_log_per_byte;
      t.c_send; t.c_call; t.c_reply; t.c_receive; t.c_kcall; t.c_spawn;
      t.c_yield; t.c_checkpoint; t.c_disk_block; t.c_instr_op ];
  !h

let perturbed t = { t with c_reply = t.c_reply + 1 }

let scaled_ghz = 2.3

let cycles_to_seconds c = float_of_int c /. (scaled_ghz *. 1e9)
