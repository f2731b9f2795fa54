(* Binary journal codec: varint payloads, per-record CRC framing.
   See the .mli for the wire layout. *)

type header = {
  jh_version : int;
  jh_seed : int;
  jh_arch : Kernel.arch;
  jh_spec : string;
  jh_workload : string;
  jh_crash : string;
  jh_crash_count : int;
  jh_cost_fingerprint : int;
}

let version = 1

let magic = "OSIRJNL1"

let header_to_string h =
  Printf.sprintf
    "v%d seed=%d arch=%s spec=%s workload=%s crash=%s/%d costs=%x"
    h.jh_version h.jh_seed
    (match h.jh_arch with Kernel.Microkernel -> "microkernel" | Kernel.Monolithic -> "monolithic")
    h.jh_spec h.jh_workload h.jh_crash h.jh_crash_count h.jh_cost_fingerprint

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)                     *)
(* ------------------------------------------------------------------ *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Slicing-by-4 companion tables: t.(k).(i) advances the CRC of byte
   [i] through [k] further zero bytes, letting 4 input bytes fold in
   with 4 independent table loads instead of a 4-long serial chain. *)
let crc_tables =
  let t = Array.make_matrix 4 256 0 in
  t.(0) <- crc_table;
  for k = 1 to 3 do
    for i = 0 to 255 do
      let p = t.(k - 1).(i) in
      t.(k).(i) <- crc_table.(p land 0xff) lxor (p lsr 8)
    done
  done;
  t

let crc32 b ~off ~len =
  let t0 = crc_tables.(0) and t1 = crc_tables.(1)
  and t2 = crc_tables.(2) and t3 = crc_tables.(3) in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop4 = off + (len land lnot 3) in
  while !i < stop4 do
    let w =
      Char.code (Bytes.unsafe_get b !i)
      lor (Char.code (Bytes.unsafe_get b (!i + 1)) lsl 8)
      lor (Char.code (Bytes.unsafe_get b (!i + 2)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (!i + 3)) lsl 24)
    in
    let x = !c lxor w in
    c :=
      Array.unsafe_get t3 (x land 0xff)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xff)
      lxor Array.unsafe_get t0 ((x lsr 24) land 0xff);
    i := !i + 4
  done;
  for j = !i to off + len - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_string s ~off ~len = crc32 (Bytes.unsafe_of_string s) ~off ~len

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type sink = S_mem of Buffer.t | S_file of out_channel

type writer = {
  w_header : header;
  sink : sink;
  mutable scratch : Bytes.t;  (* current record's payload *)
  mutable pos : int;
  out : Bytes.t;              (* staging buffer for framed records *)
  mutable opos : int;
  frame : Bytes.t;            (* varint(len) spill for oversized records *)
  mutable n_records : int;
  mutable n_bytes : int;
  mutable closed : bool;
  (* Delta-coding state: [time] is monotone and [rid] highly repetitive
     across consecutive events, so both are encoded as zigzag deltas
     against the previous record — usually one byte each. The reader
     mirrors this state while iterating. *)
  mutable last_time : int;
  mutable last_rid : int;
  (* Raw capture log ([Capture.t]): the per-event hot path — the
     kernel's emission sites, or [write] below — appends plain scalars
     here (and string pointers — no copy, the kernel's strings are
     immutable) and returns. Varint encoding, framing and
     CRCs all happen in [transcode], which sweeps the log in one batch
     at a drain boundary: when the log reaches its cap (amortized, for
     long runs), at [close], or when an accessor needs exact counts.
     Deferring the codec off the emission path is what holds the
     attached-recording overhead gate: per event the run pays a
     handful of int stores, not a wire encoder. *)
  w_cap : Capture.t;
}

(* Deferred per-record CRCs: the direct encode path leaves each
   record's 4 CRC bytes unfilled and this pass patches them just
   before the staging buffer is emitted. Touching ~4600 staged records
   in one sequential sweep keeps the 8 KiB slicing tables L1-hot for
   the whole batch. The sweep re-parses the staging buffer, which only
   ever holds whole records: every drain happens at a record boundary.
   Recomputing a CRC a slow path already stored (header, oversized
   records) is idempotent. Tail-recursive on int arguments — the
   encode path must stay allocation-free. *)
let[@inline] patch_crc w p len =
  let crc = crc32 w.out ~off:p ~len in
  let q = p + len in
  Bytes.unsafe_set w.out q (Char.unsafe_chr (crc land 0xff));
  Bytes.unsafe_set w.out (q + 1) (Char.unsafe_chr ((crc lsr 8) land 0xff));
  Bytes.unsafe_set w.out (q + 2) (Char.unsafe_chr ((crc lsr 16) land 0xff));
  Bytes.unsafe_set w.out (q + 3) (Char.unsafe_chr ((crc lsr 24) land 0xff));
  q + 4

let rec fill_crcs w p =
  if p < w.opos then begin
    (* Staged frame lengths fit 3 varint bytes (records are smaller
       than the staging buffer, < 2^21). *)
    let b0 = Char.code (Bytes.unsafe_get w.out p) in
    if b0 < 0x80 then fill_crcs w (patch_crc w (p + 1) b0)
    else begin
      let b1 = Char.code (Bytes.unsafe_get w.out (p + 1)) in
      let acc = (b0 land 0x7f) lor ((b1 land 0x7f) lsl 7) in
      if b1 < 0x80 then fill_crcs w (patch_crc w (p + 2) acc)
      else
        let b2 = Char.code (Bytes.unsafe_get w.out (p + 2)) in
        fill_crcs w (patch_crc w (p + 3) (acc lor ((b2 land 0x7f) lsl 14)))
    end
  end

(* Emit the staged framed records in one channel/buffer operation.
   Channel writes take a per-channel lock in OCaml 5; pay it once per
   ~64 KiB instead of several times per record. *)
let drain w =
  if w.opos > 0 then begin
    fill_crcs w 0;
    (match w.sink with
     | S_mem buf -> Buffer.add_subbytes buf w.out 0 w.opos
     | S_file oc -> output oc w.out 0 w.opos);
    w.opos <- 0
  end

let ensure w need =
  let cap = Bytes.length w.scratch in
  if w.pos + need > cap then begin
    let cap' = max (2 * cap) (w.pos + need) in
    let b = Bytes.create cap' in
    Bytes.blit w.scratch 0 b 0 w.pos;
    w.scratch <- b
  end

(* Zigzag varint: small magnitudes of either sign stay short; fields
   are almost always non-negative, where zigzag costs one bit. *)
let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)

let[@inline] unzigzag v = (v lsr 1) lxor (- (v land 1))

let put_int w v =
  ensure w 10;
  let z = zigzag v in
  (* Single-byte fast path: endpoints, tags, booleans, SEEP classes
     and most rids fit in 7 bits — the overwhelming majority of fields
     on the hot path. *)
  if z land (lnot 0x7f) = 0 then begin
    Bytes.unsafe_set w.scratch w.pos (Char.unsafe_chr z);
    w.pos <- w.pos + 1
  end
  else begin
    let v = ref z in
    let continue = ref true in
    while !continue do
      let b = !v land 0x7f in
      v := !v lsr 7;
      if !v = 0 then begin
        Bytes.unsafe_set w.scratch w.pos (Char.unsafe_chr b);
        w.pos <- w.pos + 1;
        continue := false
      end
      else begin
        Bytes.unsafe_set w.scratch w.pos (Char.unsafe_chr (b lor 0x80));
        w.pos <- w.pos + 1
      end
    done
  end

let put_str w s =
  let len = String.length s in
  put_int w len;
  ensure w len;
  Bytes.blit_string s 0 w.scratch w.pos len;
  w.pos <- w.pos + len

(* Stage varint(len) + payload + CRC32(payload, 4 bytes LE) into the
   output buffer and reset the scratch. Everything happens in reused
   fixed buffers, so a flush allocates nothing. *)
let flush_record w =
  let len = w.pos in
  let need = len + 14 (* worst-case frame varint (10) + CRC (4) *) in
  if w.opos + need > Bytes.length w.out then drain w;
  let crc = crc32 w.scratch ~off:0 ~len in
  if need <= Bytes.length w.out then begin
    let p = ref w.opos in
    (* frame head: raw varint of the payload length *)
    let v = ref len in
    let continue = ref true in
    while !continue do
      let b = !v land 0x7f in
      v := !v lsr 7;
      if !v = 0 then begin
        Bytes.unsafe_set w.out !p (Char.unsafe_chr b);
        incr p;
        continue := false
      end
      else begin
        Bytes.unsafe_set w.out !p (Char.unsafe_chr (b lor 0x80));
        incr p
      end
    done;
    (* Manual copy for typical (tiny) records: Bytes.blit is a C call
       whose fixed cost dwarfs moving a dozen bytes. *)
    if len <= 32 then
      for i = 0 to len - 1 do
        Bytes.unsafe_set w.out (!p + i) (Bytes.unsafe_get w.scratch i)
      done
    else Bytes.blit w.scratch 0 w.out !p len;
    p := !p + len;
    Bytes.unsafe_set w.out !p (Char.unsafe_chr (crc land 0xff));
    Bytes.unsafe_set w.out (!p + 1) (Char.unsafe_chr ((crc lsr 8) land 0xff));
    Bytes.unsafe_set w.out (!p + 2) (Char.unsafe_chr ((crc lsr 16) land 0xff));
    Bytes.unsafe_set w.out (!p + 3) (Char.unsafe_chr ((crc lsr 24) land 0xff));
    w.n_bytes <- w.n_bytes + (!p + 4 - w.opos);
    w.opos <- !p + 4
  end
  else begin
    (* Record bigger than the staging buffer (giant string payload):
       emit it directly — rare enough that per-call channel cost is
       irrelevant. [drain] above already emptied the staging buffer,
       so ordering is preserved. *)
    let fp = ref 0 in
    let v = ref len in
    let continue = ref true in
    while !continue do
      let b = !v land 0x7f in
      v := !v lsr 7;
      if !v = 0 then begin
        Bytes.unsafe_set w.frame !fp (Char.unsafe_chr b);
        incr fp;
        continue := false
      end
      else begin
        Bytes.unsafe_set w.frame !fp (Char.unsafe_chr (b lor 0x80));
        incr fp
      end
    done;
    Bytes.set w.frame (!fp) (Char.unsafe_chr (crc land 0xff));
    Bytes.set w.frame (!fp + 1) (Char.unsafe_chr ((crc lsr 8) land 0xff));
    Bytes.set w.frame (!fp + 2) (Char.unsafe_chr ((crc lsr 16) land 0xff));
    Bytes.set w.frame (!fp + 3) (Char.unsafe_chr ((crc lsr 24) land 0xff));
    (match w.sink with
     | S_mem buf ->
       Buffer.add_subbytes buf w.frame 0 !fp;
       Buffer.add_subbytes buf w.scratch 0 len;
       Buffer.add_subbytes buf w.frame !fp 4
     | S_file oc ->
       output oc w.frame 0 !fp;
       output oc w.scratch 0 len;
       output oc w.frame !fp 4);
    w.n_bytes <- w.n_bytes + !fp + len + 4
  end;
  w.n_records <- w.n_records + 1;
  w.pos <- 0

let put_header w h =
  put_int w h.jh_version;
  put_int w h.jh_seed;
  put_int w (match h.jh_arch with Kernel.Microkernel -> 0 | Kernel.Monolithic -> 1);
  put_int w h.jh_crash_count;
  put_int w h.jh_cost_fingerprint;
  put_str w h.jh_spec;
  put_str w h.jh_workload;
  put_str w h.jh_crash;
  flush_record w;
  (* The header frame is not an event record. *)
  w.n_records <- w.n_records - 1

(* Wire tags: event-constructor declaration order. *)

(* Direct-encode fast path: the payload is framed straight into the
   staging buffer, so each byte is written exactly once and the CRC
   runs over cache-hot memory with no scratch->staging copy. Two bytes
   are reserved up front for the record length and patched afterwards
   as a *padded* LEB128 varint (a redundant continuation byte is still
   a valid varint; decoders do not require canonical form). *)

let dput_slow w z =
  let v = ref z in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Bytes.unsafe_set w.out w.opos (Char.unsafe_chr b);
      w.opos <- w.opos + 1;
      continue := false
    end
    else begin
      Bytes.unsafe_set w.out w.opos (Char.unsafe_chr (b lor 0x80));
      w.opos <- w.opos + 1
    end
  done

let[@inline] dput w v =
  let z = zigzag v in
  if z land (lnot 0x7f) = 0 then begin
    Bytes.unsafe_set w.out w.opos (Char.unsafe_chr z);
    w.opos <- w.opos + 1
  end
  else dput_slow w z

(* Packed lead byte: wire tag in the low 4 bits, constructor-specific
   flag bits above, always < 0x80 so it doubles as a 1-byte varint. *)
let[@inline] dbyte w b =
  Bytes.unsafe_set w.out w.opos (Char.unsafe_chr b);
  w.opos <- w.opos + 1

let put_byte w b =
  ensure w 1;
  Bytes.unsafe_set w.scratch w.pos (Char.unsafe_chr b);
  w.pos <- w.pos + 1

let dstr w s =
  let len = String.length s in
  dput w len;
  Bytes.blit_string s 0 w.out w.opos len;
  w.opos <- w.opos + len

(* Payload headroom the fixed fields of any event can need (13 varints
   at 10 bytes each, rounded up), beyond its strings' bytes. *)
let direct_slack = 140

let[@inline] begin_direct w extra =
  (* payloads stay under 2^14, so two length bytes always suffice *)
  if w.opos + extra + direct_slack > Bytes.length w.out then drain w;
  let start = w.opos in
  w.opos <- start + 2;
  start

let[@inline] finish_direct w start =
  let len = w.opos - start - 2 in
  Bytes.unsafe_set w.out start (Char.unsafe_chr (0x80 lor (len land 0x7f)));
  Bytes.unsafe_set w.out (start + 1) (Char.unsafe_chr (len lsr 7));
  (* the 4 CRC bytes stay unfilled until [drain]'s batched sweep *)
  w.opos <- w.opos + 4;
  w.n_bytes <- w.n_bytes + len + 6;
  w.n_records <- w.n_records + 1

let[@inline] dtime w time =
  dput w (time - w.last_time);
  w.last_time <- time

let[@inline] drid w rid =
  dput w (rid - w.last_rid);
  w.last_rid <- rid

(* One encoder per constructor: the [Capture.visitor] [transcode]'s
   batched sweep over the raw capture log calls. Tags and SEEP classes
   arrive as the integer codes the log stores. *)

let enc_msg w ~time ~src ~dst ~tag ~call ~rid ~parent ~cls =
  let start = begin_direct w 0 in
  dbyte w (0 lor (if call then 0x10 else 0) lor (cls lsl 5));
  dtime w time;
  dput w src;
  dput w dst;
  dput w tag;
  drid w rid;
  (* parents are causally near their rid (0 only at roots) *)
  dput w (rid - parent);
  finish_direct w start

let enc_reply w ~time ~src ~dst ~tag ~rid =
  let start = begin_direct w 0 in
  dbyte w 1;
  dtime w time;
  dput w src;
  dput w dst;
  dput w tag;
  drid w rid;
  finish_direct w start

let enc_window_open w ~time ~ep ~rid =
  let start = begin_direct w 0 in
  dbyte w 2; dtime w time; dput w ep; drid w rid;
  finish_direct w start

let enc_window_close w ~time ~ep ~rid ~policy =
  let start = begin_direct w 0 in
  dbyte w (3 lor (if policy then 0x10 else 0));
  dtime w time; dput w ep; drid w rid;
  finish_direct w start

let enc_checkpoint w ~time ~ep ~rid ~cycles =
  let start = begin_direct w 0 in
  dbyte w 4; dtime w time; dput w ep; drid w rid; dput w cycles;
  finish_direct w start

let enc_store_logged w ~time ~ep ~rid ~bytes =
  let start = begin_direct w 0 in
  dbyte w 5; dtime w time; dput w ep; drid w rid; dput w bytes;
  finish_direct w start

let enc_kcall w ~time ~ep ~rid ~kc =
  let extra = String.length kc in
  if extra <= 16_000 then begin
    let start = begin_direct w extra in
    dbyte w 6; dtime w time; dput w ep; drid w rid; dstr w kc;
    finish_direct w start
  end
  else begin
    (* Giant string payload: take the scratch-buffered slow path,
       whose oversized-record branch can bypass the staging buffer
       entirely. Same for the other string-bearing encoders below. *)
    put_byte w 6;
    put_int w (time - w.last_time); w.last_time <- time;
    put_int w ep;
    put_int w (rid - w.last_rid); w.last_rid <- rid;
    put_str w kc;
    flush_record w
  end

let enc_crash w ~time ~ep ~reason ~window_open ~rid ~policy =
  let extra = String.length reason + String.length policy in
  if extra <= 16_000 then begin
    let start = begin_direct w extra in
    dbyte w (7 lor (if window_open then 0x10 else 0));
    dtime w time; dput w ep; drid w rid;
    dstr w reason; dstr w policy;
    finish_direct w start
  end
  else begin
    put_byte w (7 lor (if window_open then 0x10 else 0));
    put_int w (time - w.last_time); w.last_time <- time;
    put_int w ep;
    put_int w (rid - w.last_rid); w.last_rid <- rid;
    put_str w reason; put_str w policy;
    flush_record w
  end

let enc_hang_detected w ~time ~ep =
  let start = begin_direct w 0 in
  dbyte w 8; dtime w time; dput w ep;
  finish_direct w start

let enc_rollback_begin w ~time ~ep ~rid =
  let start = begin_direct w 0 in
  dbyte w 9; dtime w time; dput w ep; drid w rid;
  finish_direct w start

let enc_rollback_end w ~time ~ep ~rid ~bytes =
  let start = begin_direct w 0 in
  dbyte w 10; dtime w time; dput w ep; drid w rid; dput w bytes;
  finish_direct w start

let enc_restart w ~time ~ep ~rid ~policy =
  let extra = String.length policy in
  if extra <= 16_000 then begin
    let start = begin_direct w extra in
    dbyte w 11; dtime w time; dput w ep; drid w rid; dstr w policy;
    finish_direct w start
  end
  else begin
    put_byte w 11;
    put_int w (time - w.last_time); w.last_time <- time;
    put_int w ep;
    put_int w (rid - w.last_rid); w.last_rid <- rid;
    put_str w policy;
    flush_record w
  end

(* [time] joins the shared delta chain even though spawn arrivals can
   sit ahead of emission order (open-loop futures): the zigzag coding
   absorbs the negative deltas the next record then pays back. *)
let enc_spawn w ~time ~ep ~parent =
  let start = begin_direct w 0 in
  dbyte w 13; dtime w time; dput w ep; dput w parent;
  finish_direct w start

(* Halt arrives pre-decomposed (kind code, exit status, reason) so the
   transcode sweep never reconstructs a [Kernel.halt] value — the
   encode sweep must allocate nothing. [reason] is "" except for
   shutdown/panic (kinds 1 and 2), the only kinds that encode it. *)
let enc_halt w ~time ~kind ~status ~reason =
  let extra = String.length reason in
  if extra <= 16_000 then begin
    let start = begin_direct w extra in
    dbyte w (12 lor (kind lsl 4));
    dtime w time;
    (match kind with
     | 0 -> dput w status
     | 1 | 2 -> dstr w reason
     | _ -> ());
    finish_direct w start
  end
  else begin
    put_byte w (12 lor (kind lsl 4));
    put_int w (time - w.last_time); w.last_time <- time;
    (match kind with
     | 0 -> put_int w status
     | 1 | 2 -> put_str w reason
     | _ -> ());
    flush_record w
  end

let encoder =
  { Capture.on_msg = enc_msg; on_reply = enc_reply;
    on_window_open = enc_window_open; on_window_close = enc_window_close;
    on_checkpoint = enc_checkpoint; on_store_logged = enc_store_logged;
    on_kcall = enc_kcall; on_crash = enc_crash;
    on_hang_detected = enc_hang_detected;
    on_rollback_begin = enc_rollback_begin;
    on_rollback_end = enc_rollback_end; on_restart = enc_restart;
    on_halt = enc_halt; on_spawn = enc_spawn }

(* Sweep the raw log through the encoders in one batch, then clear it
   so it never pins kernel strings past their encode. Everything here
   runs over warm fixed buffers and allocates nothing — it is safe (and
   cheap) to call at any entry boundary. *)
let transcode w =
  if not w.closed then begin
    Capture.walk w.w_cap encoder w;
    Capture.clear w.w_cap
  end

(* Growth policy: double up to a cap, then transcode in place — the
   raw log is a fixed memory budget, not an unbounded spool. A run
   longer than the cap pays the encode sweep incrementally (amortized
   over ~58k events per sweep); shorter runs defer every encode byte
   to [close]. The string cap is a pointer stash, not a copy (entries
   are the kernel's interned kcall / policy / reason constants), sized
   to run out no earlier than the int log. *)
let raw_cap_ints = 1 lsl 19 (* 4 MiB *)
let str_cap = 1 lsl 17

let cap_ensure w =
  if not (Capture.grow w.w_cap ~max_ints:raw_cap_ints ~max_strs:str_cap) then
    transcode w

let make_writer sink header =
  let w =
    { w_header = header;
      sink;
      scratch = Bytes.create 256;
      pos = 0;
      out = Bytes.create 65536;
      opos = 0;
      frame = Bytes.create 14;
      n_records = 0;
      n_bytes = 0;
      closed = false;
      last_time = 0;
      last_rid = 0;
      w_cap = Capture.create () }
  in
  Capture.set_drain w.w_cap (fun () -> cap_ensure w);
  (match sink with
   | S_mem buf -> Buffer.add_string buf magic
   | S_file oc -> output_string oc magic);
  w.n_bytes <- String.length magic;
  put_header w header;
  w

let to_file ~path header = make_writer (S_file (open_out_bin path)) header

let to_memory header = make_writer (S_mem (Buffer.create 4096)) header

let write w ev = if not w.closed then Capture.append w.w_cap ev

(* The kernel-side tap: hand the run's capture to [Kernel.set_capture]
   and the emission sites append the same entries [write] lays down. *)
let capture w = w.w_cap

let close w =
  if not w.closed then begin
    transcode w;
    drain w;
    w.closed <- true;
    (* A capture left installed on a live kernel after close appends
       into a log nothing will ever encode; keep it from growing
       unboundedly by draining it to the floor. *)
    Capture.set_drain w.w_cap (fun () -> Capture.clear w.w_cap);
    match w.sink with S_file oc -> close_out oc | S_mem _ -> ()
  end

let contents w =
  transcode w;
  drain w;
  match w.sink with
  | S_mem buf -> Buffer.contents buf
  | S_file _ -> invalid_arg "Journal.contents: file writer"

(* Both counters force the pending encode sweep so they are exact at
   any point, not just after [close]. *)
let records_written w = transcode w; w.n_records
let bytes_written w = transcode w; w.n_bytes

let of_events header events =
  let w = to_memory header in
  List.iter (write w) events;
  close w;
  contents w

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type cursor = { src : string; mutable rpos : int; mutable limit : int }

let get_byte c =
  if c.rpos >= c.limit then bad "truncated varint";
  let b = Char.code c.src.[c.rpos] in
  c.rpos <- c.rpos + 1;
  b

(* Continuation bytes past the first; tail-recursive so decode
   allocates nothing (a [ref]-based loop would box three cells per
   varint without flambda — measurable on the index-build hot path). *)
let rec varint_rest c v shift =
  if shift > 63 then bad "varint too long";
  let b = get_byte c in
  let v = v lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then v else varint_rest c v (shift + 7)

(* Single-byte fast path first: endpoints, tags, flags and most deltas
   fit in 7 bits — the same asymmetry [put_int]'s encoder fast path
   exploits. *)
let[@inline] get_int c =
  let b = get_byte c in
  if b land 0x80 = 0 then unzigzag b
  else unzigzag (varint_rest c (b land 0x7f) 7)

(* Record lengths are framed as raw (non-zigzag) varints — they are
   never negative, and the frame writer in [flush_record] emits them
   raw. *)
let[@inline] get_uint c =
  let b = get_byte c in
  if b land 0x80 = 0 then b else varint_rest c (b land 0x7f) 7

let get_str c =
  let len = get_int c in
  if len < 0 || c.rpos + len > c.limit then bad "truncated string";
  let s = String.sub c.src c.rpos len in
  c.rpos <- c.rpos + len;
  s

let get_tag c =
  let i = get_int c in
  match Message.Tag.of_index i with
  | Some tag -> tag
  | None -> bad "unknown message tag %d" i

let cls_of_code = function
  | 0 -> Seep.Read_only
  | 1 -> Seep.State_modifying
  | 2 -> Seep.Reply
  | n -> bad "unknown SEEP class %d" n

(* Mirror of the writer's delta-coding state: [time] and [rid] are
   stored as zigzag deltas against the previous record, [parent] as an
   offset below the record's own rid. *)
type delta = { mutable d_time : int; mutable d_rid : int }

let[@inline] get_time st c =
  let time = st.d_time + get_int c in
  st.d_time <- time;
  time

let[@inline] get_rid st c =
  let rid = st.d_rid + get_int c in
  st.d_rid <- rid;
  rid

let get_ev st c : Kernel.event =
  let b0 = get_byte c in
  if b0 land 0x80 <> 0 then bad "bad lead byte %#x" b0;
  match b0 land 0xf with
  | 0 ->
    let call = b0 land 0x10 <> 0 in
    let cls = cls_of_code (b0 lsr 5) in
    let time = get_time st c in
    let src = get_int c in
    let dst = get_int c in
    let tag = get_tag c in
    let rid = get_rid st c in
    let parent = rid - get_int c in
    Kernel.E_msg { time; src; dst; tag; call; rid; parent; cls }
  | 1 ->
    let time = get_time st c in
    let src = get_int c in
    let dst = get_int c in
    let tag = get_tag c in
    let rid = get_rid st c in
    Kernel.E_reply { time; src; dst; tag; rid }
  | 2 ->
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    Kernel.E_window_open { time; ep; rid }
  | 3 ->
    let policy = b0 land 0x10 <> 0 in
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    Kernel.E_window_close { time; ep; rid; policy }
  | 4 ->
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    let cycles = get_int c in
    Kernel.E_checkpoint { time; ep; rid; cycles }
  | 5 ->
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    let bytes = get_int c in
    Kernel.E_store_logged { time; ep; rid; bytes }
  | 6 ->
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    let kc = get_str c in
    Kernel.E_kcall { time; ep; rid; kc }
  | 7 ->
    let window_open = b0 land 0x10 <> 0 in
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    let reason = get_str c in
    let policy = get_str c in
    Kernel.E_crash { time; ep; reason; window_open; rid; policy }
  | 8 ->
    let time = get_time st c in
    let ep = get_int c in
    Kernel.E_hang_detected { time; ep }
  | 9 ->
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    Kernel.E_rollback_begin { time; ep; rid }
  | 10 ->
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    let bytes = get_int c in
    Kernel.E_rollback_end { time; ep; rid; bytes }
  | 11 ->
    let time = get_time st c in
    let ep = get_int c in
    let rid = get_rid st c in
    let policy = get_str c in
    Kernel.E_restart { time; ep; rid; policy }
  | 12 ->
    let time = get_time st c in
    let halt =
      match b0 lsr 4 with
      | 0 -> Kernel.H_completed (get_int c)
      | 1 -> Kernel.H_shutdown (get_str c)
      | 2 -> Kernel.H_panic (get_str c)
      | 3 -> Kernel.H_hang
      | n -> bad "unknown halt kind %d" n
    in
    Kernel.E_halt { time; halt }
  | 13 ->
    let time = get_time st c in
    let ep = get_int c in
    let parent = get_int c in
    Kernel.E_spawn { time; ep; parent }
  | n -> bad "unknown event tag %d" n

(* Unframe one record: varint(len) + payload + CRC. Returns a cursor
   scoped to the payload; [which] names the record in errors.
   [check_crc:false] skips the payload checksum (framing and bounds
   are still enforced) — only for callers that just produced the
   bytes in-process and cannot have picked up storage corruption. *)
let next_record ?(check_crc = true) src pos ~which =
  let c = { src; rpos = pos; limit = String.length src } in
  let len =
    try get_uint c with Bad _ -> bad "%s: truncated length" which
  in
  let payload_off = c.rpos in
  if payload_off + len + 4 > String.length src then
    bad "%s: truncated record (need %d bytes past offset %d)" which len
      payload_off;
  if check_crc then begin
    let stored_crc =
      Char.code src.[payload_off + len]
      lor (Char.code src.[payload_off + len + 1] lsl 8)
      lor (Char.code src.[payload_off + len + 2] lsl 16)
      lor (Char.code src.[payload_off + len + 3] lsl 24)
    in
    let actual = crc32_string src ~off:payload_off ~len in
    if actual <> stored_crc then
      bad "%s: CRC mismatch (stored %08x, computed %08x)" which stored_crc
        actual
  end;
  ({ src; rpos = payload_off; limit = payload_off + len },
   payload_off + len + 4)

let get_header c =
  let jh_version = get_int c in
  if jh_version <> version then
    bad "unsupported journal version %d (expected %d)" jh_version version;
  let jh_seed = get_int c in
  let jh_arch =
    match get_int c with
    | 0 -> Kernel.Microkernel
    | 1 -> Kernel.Monolithic
    | n -> bad "unknown arch %d" n
  in
  let jh_crash_count = get_int c in
  let jh_cost_fingerprint = get_int c in
  let jh_spec = get_str c in
  let jh_workload = get_str c in
  let jh_crash = get_str c in
  { jh_version; jh_seed; jh_arch; jh_spec; jh_workload; jh_crash;
    jh_crash_count; jh_cost_fingerprint }

let read_string s =
  try
    if String.length s < String.length magic
       || String.sub s 0 (String.length magic) <> magic
    then bad "bad magic (not an OSIRIS journal)";
    let hc, pos = next_record s (String.length magic) ~which:"header" in
    let header = get_header hc in
    if hc.rpos <> hc.limit then bad "header: trailing bytes";
    let events = ref [] in
    let n = ref 0 in
    let pos = ref pos in
    let st = { d_time = 0; d_rid = 0 } in
    while !pos < String.length s do
      let which = Printf.sprintf "record %d" !n in
      let rc, pos' = next_record s !pos ~which in
      let ev = try get_ev st rc with Bad m -> bad "%s: %s" which m in
      if rc.rpos <> rc.limit then bad "%s: trailing bytes in record" which;
      events := ev :: !events;
      incr n;
      pos := pos'
    done;
    Ok (header, Array.of_list (List.rev !events))
  with Bad m -> Error ("journal: " ^ m)

let read_file path =
  match
    In_channel.with_open_bin path In_channel.input_all
  with
  | s -> read_string s
  | exception Sys_error m -> Error ("journal: " ^ m)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let event_rid = function
  | Kernel.E_msg { rid; _ } | Kernel.E_reply { rid; _ }
  | Kernel.E_window_open { rid; _ } | Kernel.E_window_close { rid; _ }
  | Kernel.E_checkpoint { rid; _ } | Kernel.E_store_logged { rid; _ }
  | Kernel.E_kcall { rid; _ } | Kernel.E_crash { rid; _ }
  | Kernel.E_rollback_begin { rid; _ } | Kernel.E_rollback_end { rid; _ }
  | Kernel.E_restart { rid; _ } -> rid
  | Kernel.E_hang_detected _ | Kernel.E_halt _ | Kernel.E_spawn _ -> 0

let event_time = function
  | Kernel.E_msg { time; _ } | Kernel.E_reply { time; _ }
  | Kernel.E_window_open { time; _ } | Kernel.E_window_close { time; _ }
  | Kernel.E_checkpoint { time; _ } | Kernel.E_store_logged { time; _ }
  | Kernel.E_kcall { time; _ } | Kernel.E_crash { time; _ }
  | Kernel.E_hang_detected { time; _ } | Kernel.E_rollback_begin { time; _ }
  | Kernel.E_rollback_end { time; _ } | Kernel.E_restart { time; _ }
  | Kernel.E_halt { time; _ } | Kernel.E_spawn { time; _ } -> time

let event_ep = function
  | Kernel.E_msg { dst; _ } -> Some dst
  | Kernel.E_reply { src; _ } -> Some src
  | Kernel.E_window_open { ep; _ } | Kernel.E_window_close { ep; _ }
  | Kernel.E_checkpoint { ep; _ } | Kernel.E_store_logged { ep; _ }
  | Kernel.E_kcall { ep; _ } | Kernel.E_crash { ep; _ }
  | Kernel.E_hang_detected { ep; _ } | Kernel.E_rollback_begin { ep; _ }
  | Kernel.E_rollback_end { ep; _ } | Kernel.E_restart { ep; _ }
  | Kernel.E_spawn { ep; _ } -> Some ep
  | Kernel.E_halt _ -> None

(* Wire tag, declaration order — the same code the encoders pack into
   the lead byte, re-exposed so block summaries and queries can talk
   about event kinds without a constructor match each. *)
let event_kind = function
  | Kernel.E_msg _ -> 0
  | Kernel.E_reply _ -> 1
  | Kernel.E_window_open _ -> 2
  | Kernel.E_window_close _ -> 3
  | Kernel.E_checkpoint _ -> 4
  | Kernel.E_store_logged _ -> 5
  | Kernel.E_kcall _ -> 6
  | Kernel.E_crash _ -> 7
  | Kernel.E_hang_detected _ -> 8
  | Kernel.E_rollback_begin _ -> 9
  | Kernel.E_rollback_end _ -> 10
  | Kernel.E_restart _ -> 11
  | Kernel.E_halt _ -> 12
  | Kernel.E_spawn _ -> 13

let n_kinds = 14

let kind_names =
  [| "msg"; "reply"; "window_open"; "window_close"; "checkpoint"; "store";
     "kcall"; "crash"; "hang"; "rollback_begin"; "rollback_end"; "restart";
     "halt"; "spawn" |]

let kind_name k =
  if k >= 0 && k < n_kinds then kind_names.(k)
  else invalid_arg "Journal.kind_name"

let kind_of_name s =
  let rec find i =
    if i >= n_kinds then None
    else if kind_names.(i) = s then Some i
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Streaming decode                                                    *)
(* ------------------------------------------------------------------ *)

let header_of_string s =
  try
    if String.length s < String.length magic
       || String.sub s 0 (String.length magic) <> magic
    then bad "bad magic (not an OSIRIS journal)";
    let hc, pos = next_record s (String.length magic) ~which:"header" in
    let header = get_header hc in
    if hc.rpos <> hc.limit then bad "header: trailing bytes";
    Ok (header, pos)
  with Bad m -> Error ("journal: " ^ m)

type stream = {
  st_src : string;
  mutable st_pos : int;
  mutable st_n : int;
  st_delta : delta;
}

let stream_of_string s =
  match header_of_string s with
  | Error m -> Error m
  | Ok (header, pos) ->
    Ok (header,
        { st_src = s; st_pos = pos; st_n = 0;
          st_delta = { d_time = 0; d_rid = 0 } })

let stream_next st =
  if st.st_pos >= String.length st.st_src then Ok None
  else
    let which = Printf.sprintf "record %d" st.st_n in
    try
      let rc, pos' = next_record st.st_src st.st_pos ~which in
      let ev = try get_ev st.st_delta rc with Bad m -> bad "%s: %s" which m in
      if rc.rpos <> rc.limit then bad "%s: trailing bytes in record" which;
      st.st_pos <- pos';
      st.st_n <- st.st_n + 1;
      Ok (Some ev)
    with Bad m -> Error ("journal: " ^ m)

(* ------------------------------------------------------------------ *)
(* Sidecar block index                                                 *)
(* ------------------------------------------------------------------ *)

let index_magic = "OSIRIDX1"

let index_suffix = ".idx"

let default_block_records = 512

type block = {
  blk_off : int;
  blk_count : int;
  blk_base_time : int;
  blk_base_rid : int;
  blk_time_min : int;
  blk_time_max : int;
  blk_rid_min : int;
  blk_rid_max : int;
  blk_ep_mask : int;
  blk_kind_mask : int;
  blk_tag_mask : int;
}

type index = {
  ix_journal_len : int;
  ix_head_crc : int;
  ix_tail_crc : int;
  ix_records : int;
  ix_blocks : block array;
}

(* Presence bitmaps saturate at bit 62 (OCaml ints are 63-bit): values
   below 62 get an exact bit, everything else shares the top bit. The
   test is therefore conservative — exact below the clamp, "any
   clamped value present" above it — which is precisely what predicate
   pushdown needs: it may only claim a block *cannot* match. *)
let[@inline] mask_bit i = 1 lsl (if i >= 0 && i < 62 then i else 62)

let mask_mem m i = m land mask_bit i <> 0

(* Journal identity fingerprint: cheap (O(8 KiB)) staleness detection
   for a sidecar that outlived a re-record. Every realistic rewrite
   changes the length or one of the edge CRCs; the per-record CRCs in
   the journal itself still guard the decode. *)
let fingerprint_span = 4096

let head_crc s =
  crc32_string s ~off:0 ~len:(min fingerprint_span (String.length s))

let tail_crc s =
  let len = min fingerprint_span (String.length s) in
  crc32_string s ~off:(String.length s - len) ~len

(* Index building runs on the record path (the <5% gate in
   bench/query_bench.ml), so it cannot afford full decode: this
   scanner mirrors [get_ev]'s layouts field-for-field but extracts
   only what block summaries need — time, rid, acting endpoint, tag
   index — skipping string payloads by length and allocating nothing
   per record. The per-record CRC in [next_record] still guards
   integrity; the value validation [get_ev] adds (tag range, SEEP
   class) is re-applied whenever a block is decoded for real, and the
   summary masks are conservative regardless. *)
type summary = {
  mutable su_time : int;
  mutable su_rid : int;   (* 0 where [event_rid] reports 0 *)
  mutable su_ep : int;    (* -1 where [event_ep] reports None *)
  mutable su_tag : int;   (* -1 for kinds without a message tag *)
}

let[@inline] skip_int c = ignore (get_int c : int)

let skip_str c =
  let len = get_int c in
  if len < 0 || c.rpos + len > c.limit then bad "truncated string";
  c.rpos <- c.rpos + len

(* Returns the record's wire kind; fills [su] in place. Must call
   [get_rid] exactly where [get_ev] does so the delta state evolves
   identically. *)
let scan_summary st c su =
  let b0 = get_byte c in
  if b0 land 0x80 <> 0 then bad "bad lead byte %#x" b0;
  let kind = b0 land 0xf in
  su.su_time <- get_time st c;
  su.su_rid <- 0;
  su.su_ep <- -1;
  su.su_tag <- -1;
  (match kind with
   | 0 ->
     skip_int c; (* src *)
     su.su_ep <- get_int c; (* dst, as in [event_ep] *)
     su.su_tag <- get_int c;
     su.su_rid <- get_rid st c;
     skip_int c (* parent offset *)
   | 1 ->
     su.su_ep <- get_int c; (* src, as in [event_ep] *)
     skip_int c; (* dst *)
     su.su_tag <- get_int c;
     su.su_rid <- get_rid st c
   | 2 | 3 | 9 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid st c
   | 4 | 5 | 10 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid st c;
     skip_int c
   | 6 | 11 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid st c;
     skip_str c
   | 7 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid st c;
     skip_str c;
     skip_str c
   | 8 -> su.su_ep <- get_int c
   | 12 ->
     (match b0 lsr 4 with
      | 0 -> skip_int c
      | 1 | 2 -> skip_str c
      | 3 -> ()
      | n -> bad "unknown halt kind %d" n)
   | 13 ->
     su.su_ep <- get_int c;
     skip_int c (* parent: raw int, not rid-delta coded *)
   | n -> bad "unknown event tag %d" n);
  kind

let build_index ?(block_records = default_block_records) ?(verify_crc = true)
    s =
  if block_records < 1 then invalid_arg "Journal.build_index";
  try
    if String.length s < String.length magic
       || String.sub s 0 (String.length magic) <> magic
    then bad "bad magic (not an OSIRIS journal)";
    let hc, pos = next_record s (String.length magic) ~which:"header" in
    ignore (get_header hc : header);
    if hc.rpos <> hc.limit then bad "header: trailing bytes";
    let blocks = ref [] in
    let n = ref 0 in
    let pos = ref pos in
    let st = { d_time = 0; d_rid = 0 } in
    let su = { su_time = 0; su_rid = 0; su_ep = -1; su_tag = -1 } in
    let slen = String.length s in
    (* One cursor reused for every record: with [scan_summary] the hot
       loop allocates nothing, so indexing at record time does not
       perturb the GC state the run just left behind. *)
    let c = { src = s; rpos = 0; limit = slen } in
    while !pos < slen do
      (* Restart bases: the decoder's delta state *entering* the
         block, captured so a seek to [blk_off] decodes exactly. *)
      let off = !pos in
      let base_time = st.d_time and base_rid = st.d_rid in
      let count = ref 0 in
      let time_min = ref max_int and time_max = ref min_int in
      let rid_min = ref max_int and rid_max = ref min_int in
      let ep_mask = ref 0 and kind_mask = ref 0 and tag_mask = ref 0 in
      while !count < block_records && !pos < slen do
        (try
           (* Inline unframe ([next_record] allocates a cursor and a
              tuple per call — this loop must not). *)
           c.rpos <- !pos;
           c.limit <- slen;
           let len = try get_uint c with Bad _ -> bad "truncated length" in
           let payload_off = c.rpos in
           if payload_off + len + 4 > slen then
             bad "truncated record (need %d bytes past offset %d)" len
               payload_off;
           if verify_crc then begin
             let stored_crc =
               Char.code s.[payload_off + len]
               lor (Char.code s.[payload_off + len + 1] lsl 8)
               lor (Char.code s.[payload_off + len + 2] lsl 16)
               lor (Char.code s.[payload_off + len + 3] lsl 24)
             in
             let actual = crc32_string s ~off:payload_off ~len in
             if actual <> stored_crc then
               bad "CRC mismatch (stored %08x, computed %08x)" stored_crc
                 actual
           end;
           c.limit <- payload_off + len;
           let kind = scan_summary st c su in
           if c.rpos <> c.limit then bad "trailing bytes in record";
           if su.su_time < !time_min then time_min := su.su_time;
           if su.su_time > !time_max then time_max := su.su_time;
           if su.su_rid < !rid_min then rid_min := su.su_rid;
           if su.su_rid > !rid_max then rid_max := su.su_rid;
           if su.su_ep >= 0 then ep_mask := !ep_mask lor mask_bit su.su_ep;
           kind_mask := !kind_mask lor (1 lsl kind);
           if su.su_tag >= 0 then tag_mask := !tag_mask lor mask_bit su.su_tag;
           pos := payload_off + len + 4
         with Bad m -> bad "record %d: %s" !n m);
        incr count;
        incr n
      done;
      blocks :=
        { blk_off = off;
          blk_count = !count;
          blk_base_time = base_time;
          blk_base_rid = base_rid;
          blk_time_min = !time_min;
          blk_time_max = !time_max;
          blk_rid_min = !rid_min;
          blk_rid_max = !rid_max;
          blk_ep_mask = !ep_mask;
          blk_kind_mask = !kind_mask;
          blk_tag_mask = !tag_mask }
        :: !blocks
    done;
    Ok
      { ix_journal_len = String.length s;
        ix_head_crc = head_crc s;
        ix_tail_crc = tail_crc s;
        ix_records = !n;
        ix_blocks = Array.of_list (List.rev !blocks) }
  with Bad m -> Error ("journal: " ^ m)

(* Sidecar wire format: magic, then framed records in the journal's
   own framing (varint len + payload + CRC32) — one header record
   (version, journal fingerprint, record/block counts), one record per
   block summary. Damage anywhere fails a CRC or the framing, which
   readers turn into the silent full-scan fallback. *)

let buf_varint b v =
  let v = ref (zigzag v) in
  let continue = ref true in
  while !continue do
    let x = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char b (Char.unsafe_chr x);
      continue := false
    end
    else Buffer.add_char b (Char.unsafe_chr (x lor 0x80))
  done

let buf_frame out payload =
  (* raw (non-zigzag) varint length, as in [flush_record] *)
  let len = Buffer.length payload in
  let v = ref len in
  let continue = ref true in
  while !continue do
    let x = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char out (Char.unsafe_chr x);
      continue := false
    end
    else Buffer.add_char out (Char.unsafe_chr (x lor 0x80))
  done;
  let s = Buffer.contents payload in
  Buffer.add_string out s;
  let crc = crc32_string s ~off:0 ~len in
  Buffer.add_char out (Char.unsafe_chr (crc land 0xff));
  Buffer.add_char out (Char.unsafe_chr ((crc lsr 8) land 0xff));
  Buffer.add_char out (Char.unsafe_chr ((crc lsr 16) land 0xff));
  Buffer.add_char out (Char.unsafe_chr ((crc lsr 24) land 0xff))

let index_to_string ix =
  let out = Buffer.create (64 + (Array.length ix.ix_blocks * 32)) in
  Buffer.add_string out index_magic;
  let p = Buffer.create 64 in
  buf_varint p version;
  buf_varint p ix.ix_journal_len;
  buf_varint p ix.ix_head_crc;
  buf_varint p ix.ix_tail_crc;
  buf_varint p ix.ix_records;
  buf_varint p (Array.length ix.ix_blocks);
  buf_frame out p;
  Array.iter
    (fun b ->
       Buffer.clear p;
       buf_varint p b.blk_off;
       buf_varint p b.blk_count;
       buf_varint p b.blk_base_time;
       buf_varint p b.blk_base_rid;
       buf_varint p b.blk_time_min;
       buf_varint p b.blk_time_max;
       buf_varint p b.blk_rid_min;
       buf_varint p b.blk_rid_max;
       buf_varint p b.blk_ep_mask;
       buf_varint p b.blk_kind_mask;
       buf_varint p b.blk_tag_mask;
       buf_frame out p)
    ix.ix_blocks;
  Buffer.contents out

let index_of_string ~journal s =
  try
    if String.length s < String.length index_magic
       || String.sub s 0 (String.length index_magic) <> index_magic
    then bad "bad magic (not an OSIRIS journal index)";
    let hc, pos = next_record s (String.length index_magic) ~which:"index header" in
    let v = get_int hc in
    if v <> version then bad "unsupported index version %d" v;
    let ix_journal_len = get_int hc in
    let ix_head_crc = get_int hc in
    let ix_tail_crc = get_int hc in
    let ix_records = get_int hc in
    let n_blocks = get_int hc in
    if hc.rpos <> hc.limit then bad "index header: trailing bytes";
    if n_blocks < 0 then bad "index header: negative block count";
    if ix_journal_len <> String.length journal
       || ix_head_crc <> head_crc journal
       || ix_tail_crc <> tail_crc journal
    then bad "stale index (journal fingerprint mismatch)";
    let blocks = Array.make n_blocks
        { blk_off = 0; blk_count = 0; blk_base_time = 0; blk_base_rid = 0;
          blk_time_min = 0; blk_time_max = 0; blk_rid_min = 0;
          blk_rid_max = 0; blk_ep_mask = 0; blk_kind_mask = 0;
          blk_tag_mask = 0 }
    in
    let pos = ref pos in
    for i = 0 to n_blocks - 1 do
      let which = Printf.sprintf "index block %d" i in
      let rc, pos' = next_record s !pos ~which in
      let blk_off = get_int rc in
      let blk_count = get_int rc in
      let blk_base_time = get_int rc in
      let blk_base_rid = get_int rc in
      let blk_time_min = get_int rc in
      let blk_time_max = get_int rc in
      let blk_rid_min = get_int rc in
      let blk_rid_max = get_int rc in
      let blk_ep_mask = get_int rc in
      let blk_kind_mask = get_int rc in
      let blk_tag_mask = get_int rc in
      if rc.rpos <> rc.limit then bad "%s: trailing bytes" which;
      if blk_off < 0 || blk_off >= String.length journal || blk_count < 1
      then bad "%s: offset/count out of range" which;
      blocks.(i) <-
        { blk_off; blk_count; blk_base_time; blk_base_rid; blk_time_min;
          blk_time_max; blk_rid_min; blk_rid_max; blk_ep_mask;
          blk_kind_mask; blk_tag_mask };
      pos := pos'
    done;
    if !pos <> String.length s then bad "index: trailing bytes";
    if Array.fold_left (fun acc b -> acc + b.blk_count) 0 blocks
       <> ix_records
    then bad "index: block counts disagree with record count";
    Ok { ix_journal_len; ix_head_crc; ix_tail_crc; ix_records;
         ix_blocks = blocks }
  with Bad m -> Error ("index: " ^ m)

let write_index_file ~path ix =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (index_to_string ix))

let read_index_file ~journal path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> index_of_string ~journal s
  | exception Sys_error m -> Error ("index: " ^ m)

(* ------------------------------------------------------------------ *)
(* Selective fold                                                      *)
(* ------------------------------------------------------------------ *)

type scan_stats = {
  mutable sc_blocks_total : int;
  mutable sc_blocks_scanned : int;
  mutable sc_blocks_skipped : int;
  mutable sc_records_decoded : int;
}

let scan_stats () =
  { sc_blocks_total = 0; sc_blocks_scanned = 0; sc_blocks_skipped = 0;
    sc_records_decoded = 0 }

let fold_full s pos stats ~init ~f =
  let acc = ref init in
  let n = ref 0 in
  let pos = ref pos in
  let st = { d_time = 0; d_rid = 0 } in
  while !pos < String.length s do
    let which = Printf.sprintf "record %d" !n in
    let rc, pos' = next_record s !pos ~which in
    let ev = try get_ev st rc with Bad m -> bad "%s: %s" which m in
    if rc.rpos <> rc.limit then bad "%s: trailing bytes in record" which;
    (match stats with
     | Some sc -> sc.sc_records_decoded <- sc.sc_records_decoded + 1
     | None -> ());
    acc := f !acc ev;
    incr n;
    pos := pos'
  done;
  !acc

(* Decode one indexed block: seek to its offset, seed the delta state
   from the stored restart bases, decode exactly [blk_count] records. *)
let fold_block s blk base ~init ~f =
  let acc = ref init in
  let pos = ref blk.blk_off in
  let st = { d_time = blk.blk_base_time; d_rid = blk.blk_base_rid } in
  for i = 0 to blk.blk_count - 1 do
    let which = Printf.sprintf "record %d" (base + i) in
    let rc, pos' = next_record s !pos ~which in
    let ev = try get_ev st rc with Bad m -> bad "%s: %s" which m in
    if rc.rpos <> rc.limit then bad "%s: trailing bytes in record" which;
    acc := f !acc ev;
    pos := pos'
  done;
  !acc

let iter_blocks ?select ?stats ix s ~f =
  try
    (match header_of_string s with
     | Error m -> raise (Bad m)
     | Ok _ -> ());
    let want = match select with Some p -> p | None -> fun _ -> true in
    let base = ref 0 in
    Array.iter
      (fun blk ->
         (match stats with
          | Some sc -> sc.sc_blocks_total <- sc.sc_blocks_total + 1
          | None -> ());
         (if want blk then begin
            (match stats with
             | Some sc ->
               sc.sc_blocks_scanned <- sc.sc_blocks_scanned + 1;
               sc.sc_records_decoded <- sc.sc_records_decoded + blk.blk_count
             | None -> ());
            fold_block s blk !base ~init:() ~f:(fun () ev -> f blk ev)
          end
          else
            match stats with
            | Some sc -> sc.sc_blocks_skipped <- sc.sc_blocks_skipped + 1
            | None -> ());
         base := !base + blk.blk_count)
      ix.ix_blocks;
    Ok ()
  with Bad m -> Error ("journal: " ^ m)

let fold ?index ?select ?stats s ~init ~f =
  match header_of_string s with
  | Error m -> Error m
  | Ok (_, pos) ->
    (try
       match index with
       | Some ix ->
         let want = match select with Some p -> p | None -> fun _ -> true in
         let acc = ref init in
         let base = ref 0 in
         Array.iter
           (fun blk ->
              (match stats with
               | Some sc -> sc.sc_blocks_total <- sc.sc_blocks_total + 1
               | None -> ());
              if want blk then begin
                (match stats with
                 | Some sc ->
                   sc.sc_blocks_scanned <- sc.sc_blocks_scanned + 1;
                   sc.sc_records_decoded <-
                     sc.sc_records_decoded + blk.blk_count
                 | None -> ());
                acc := fold_block s blk !base ~init:!acc ~f
              end
              else
                (match stats with
                 | Some sc -> sc.sc_blocks_skipped <- sc.sc_blocks_skipped + 1
                 | None -> ());
              base := !base + blk.blk_count)
           ix.ix_blocks;
         Ok !acc
       | None -> Ok (fold_full s pos stats ~init ~f)
     with Bad m -> Error ("journal: " ^ m))
