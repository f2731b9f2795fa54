(* Checkpoint hot-path benchmark: arena-backed undo log vs the seed's
   list-based log, write coalescing, and dirty-region restarts.

   Run with [dune exec bench/main.exe checkpoint]. Gates:
     alloc_free_record          10k steady-state records allocate
                                < 1024 minor words
     record_speedup,
     rollback_speedup           the arena beats the legacy list log by
                                [min_speedup]
     coalescing_shrinks_log     coalescing a write-hot storm shrinks
                                the log >= 4x
     restore_scales_with_dirty  a baseline restore moves only dirty
                                granules *)

open Harness

(* Deliberately far below the ~3x we measure, to keep CI stable on
   loaded machines. *)
let min_speedup = 1.2

(* ns per operation of [batch] (which performs [ops] operations): the
   mean over as many batches as the wall budget allows. *)
let time_per_op cfg ~ops batch =
  mean (sample cfg ~min_rounds:0 [ timed batch ]) 0 /. float_of_int ops

(* ------------------------------------------------------------------ *)
(* The seed's undo log, reproduced: a cons-list of (offset, old bytes)
   entries, each recorded by materializing the old value with an
   allocation — the baseline the arena representation replaces.        *)
(* ------------------------------------------------------------------ *)

module Legacy_log = struct
  type entry = { offset : int; old : Bytes.t }

  type t = {
    mutable log : entry list;
    mutable n : int;
    mutable bytes : int;
    mutable peak : int;
    mutable lifetime : int;
  }

  let entry_header_bytes = 16

  let create () = { log = []; n = 0; bytes = 0; peak = 0; lifetime = 0 }

  let record t image ~offset ~len =
    (* the seed hook materialized the old value with [Bytes.sub] ... *)
    let old = Memimage.get_bytes image ~off:offset ~len in
    (* ... and the seed log cons'd an entry and accounted eagerly *)
    t.log <- { offset; old } :: t.log;
    t.n <- t.n + 1;
    t.lifetime <- t.lifetime + 1;
    t.bytes <- t.bytes + entry_header_bytes + Bytes.length old;
    if t.bytes > t.peak then t.peak <- t.bytes

  let clear t =
    t.log <- [];
    t.n <- 0;
    t.bytes <- 0

  let rollback t image =
    List.iter
      (fun e ->
         Memimage.write_raw image ~off:e.offset e.old ~src_off:0
           ~len:(Bytes.length e.old))
      t.log;
    clear t
end

(* ------------------------------------------------------------------ *)

type record_result = {
  arena_ns : float;
  legacy_ns : float;
  speedup : float;
}

let storm_offsets = 4096 (* distinct 8-byte words in the storm *)

let record_storm cfg =
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let arena = Undo_log.create () in
  let arena_ns =
    time_per_op cfg ~ops:storm_offsets (fun () ->
        for i = 0 to storm_offsets - 1 do
          ignore (Undo_log.record arena ~image ~offset:(8 * i) ~len:8)
        done;
        Undo_log.clear arena)
  in
  let legacy = Legacy_log.create () in
  let legacy_ns =
    time_per_op cfg ~ops:storm_offsets (fun () ->
        for i = 0 to storm_offsets - 1 do
          Legacy_log.record legacy image ~offset:(8 * i) ~len:8
        done;
        Legacy_log.clear legacy)
  in
  { arena_ns; legacy_ns; speedup = legacy_ns /. arena_ns }

let record_rollback_storm cfg =
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let arena = Undo_log.create () in
  let arena_ns =
    time_per_op cfg ~ops:storm_offsets (fun () ->
        for i = 0 to storm_offsets - 1 do
          ignore (Undo_log.record arena ~image ~offset:(8 * i) ~len:8)
        done;
        Undo_log.rollback arena image)
  in
  let legacy = Legacy_log.create () in
  let legacy_ns =
    time_per_op cfg ~ops:storm_offsets (fun () ->
        for i = 0 to storm_offsets - 1 do
          Legacy_log.record legacy image ~offset:(8 * i) ~len:8
        done;
        Legacy_log.rollback legacy image)
  in
  { arena_ns; legacy_ns; speedup = legacy_ns /. arena_ns }

let coalesced_storm cfg =
  (* the write-hot case coalescing targets: every word hit 8 times *)
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let hot_words = storm_offsets / 8 in
  let fill log =
    for i = 0 to storm_offsets - 1 do
      ignore (Undo_log.record log ~image ~offset:(8 * (i mod hot_words)) ~len:8)
    done
  in
  let entries log =
    fill log;
    let n = Undo_log.entries log in
    Undo_log.clear log;
    n
  in
  let run log =
    time_per_op cfg ~ops:storm_offsets (fun () ->
        fill log;
        Undo_log.rollback log image)
  in
  let plain = Undo_log.create () in
  let coal = Undo_log.create ~coalesce:true () in
  let plain_entries = entries plain in
  let coalesce_entries = entries coal in
  let plain_ns = run plain in
  let coalesce_ns = run coal in
  (plain_ns, coalesce_ns, plain_ns /. coalesce_ns, plain_entries,
   coalesce_entries)

(* Steady-state allocation: minor words allocated by 10k records once
   the arena has reached the working-set size. *)
let alloc_per_10k () =
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let log = Undo_log.create () in
  let storm () =
    for i = 0 to 9_999 do
      ignore (Undo_log.record log ~image ~offset:(8 * (i mod 8192)) ~len:8)
    done;
    Undo_log.clear log
  in
  storm ();
  (* grow arena + table to steady state *)
  int_of_float (minor_words_of storm)

type restore_result = {
  image_bytes : int;
  dirty_granules : int;
  restored_bytes : int;
  bytes_saved : int;
  full_ns : float;
  dirty_ns : float;
  restore_speedup : float;
}

let restore_bench cfg =
  let size = 1 lsl 20 in
  let image = Memimage.create ~name:"bench" ~size in
  Memimage.set_baseline image;
  let touch () =
    (* a sparse write pattern: 64 words scattered across the image *)
    for i = 0 to 63 do
      Memimage.set_word image (i * 16_384) (i + 1)
    done
  in
  touch ();
  let dirty_granules = Memimage.dirty_granules image in
  let restored_bytes = Memimage.restore_baseline image in
  let bytes_saved = Memimage.restore_bytes_saved image in
  let dirty_ns =
    time_per_op cfg ~ops:1 (fun () ->
        touch ();
        ignore (Memimage.restore_baseline image))
  in
  (* the pre-dirty-tracking restart path: blit the whole image back *)
  let pristine = Memimage.snapshot image in
  let full_ns =
    time_per_op cfg ~ops:1 (fun () ->
        touch ();
        Memimage.restore image pristine)
  in
  Memimage.restore_baseline image |> ignore;
  { image_bytes = size; dirty_granules; restored_bytes; bytes_saved;
    full_ns; dirty_ns; restore_speedup = full_ns /. dirty_ns }

(* ------------------------------------------------------------------ *)

let run cfg =
  heading "Checkpoint substrate: arena undo log, coalescing, dirty restarts";
  let rec_res = record_storm cfg in
  Printf.printf
    "record storm (%d x 8B stores): arena %6.1f ns/op | legacy list %6.1f ns/op | %.2fx\n"
    storm_offsets rec_res.arena_ns rec_res.legacy_ns rec_res.speedup;
  let rb_res = record_rollback_storm cfg in
  Printf.printf
    "record+rollback storm:         arena %6.1f ns/op | legacy list %6.1f ns/op | %.2fx\n"
    rb_res.arena_ns rb_res.legacy_ns rb_res.speedup;
  let plain_ns, coalesce_ns, co_speedup, plain_entries, coalesce_entries =
    coalesced_storm cfg
  in
  Printf.printf
    "write-hot storm (8x per word): plain %6.1f ns/op | coalescing  %6.1f ns/op | %.2fx, log %d -> %d entries\n"
    plain_ns coalesce_ns co_speedup plain_entries coalesce_entries;
  let minor_words = alloc_per_10k () in
  Printf.printf "steady-state allocation: %d minor words per 10k records\n"
    minor_words;
  let restore = restore_bench cfg in
  Printf.printf
    "dirty-region restart (1 MiB image, %d dirty granules): restored %d B,\n\
    \  saved %d B; full restore %.0f ns vs dirty restore %.0f ns (%.1fx)\n"
    restore.dirty_granules restore.restored_bytes restore.bytes_saved
    restore.full_ns restore.dirty_ns restore.restore_speedup;
  (* full-system evidence: bytes recovery actually moves per server.
     Enhanced exercises the rollback path (in-window crashes undo via
     the log); stateless exercises dirty-region restarts, where
     restore_bytes_saved shows the granule map paying off. *)
  let probe name policy =
    let rows, halt = Experiment.recovery_bytes policy in
    Printf.printf "full-system crash probe (%s policy, halt %s):\n" name
      (Kernel.halt_to_string halt);
    List.iter
      (fun r ->
         Printf.printf
           "  %-4s image %8d B | rollback %7d B | restart bytes saved %9d B | %d restarts\n"
           r.Experiment.rb_server r.Experiment.rb_image_bytes
           r.Experiment.rb_rollback_bytes r.Experiment.rb_restore_bytes_saved
           r.Experiment.rb_restarts)
      rows;
    List
      (List.map
         (fun r ->
            Obj
              [ ("server", Str r.Experiment.rb_server);
                ("image_bytes", Int r.Experiment.rb_image_bytes);
                ("rollback_bytes", Int r.Experiment.rb_rollback_bytes);
                ("restore_bytes_saved", Int r.Experiment.rb_restore_bytes_saved);
                ("restarts", Int r.Experiment.rb_restarts) ])
         rows)
  in
  let rows = probe "enhanced" Policy.enhanced in
  let rows_stateless = probe "stateless" Policy.stateless in
  let speedup_fields r =
    Obj
      [ ("arena_ns_per_op", Float r.arena_ns);
        ("legacy_ns_per_op", Float r.legacy_ns);
        ("speedup", Float r.speedup) ]
  in
  { fields =
      [ ("storm_stores", Int storm_offsets);
        ("record", speedup_fields rec_res);
        ("record_rollback", speedup_fields rb_res);
        ("coalescing",
         Obj
           [ ("plain_ns_per_op", Float plain_ns);
             ("coalesce_ns_per_op", Float coalesce_ns);
             ("speedup", Float co_speedup);
             ("plain_entries", Int plain_entries);
             ("coalesce_entries", Int coalesce_entries) ]);
        ("minor_words_per_10k_records", Int minor_words);
        ("restore",
         Obj
           [ ("image_bytes", Int restore.image_bytes);
             ("dirty_granules", Int restore.dirty_granules);
             ("granule_bytes", Int Memimage.granule);
             ("restored_bytes", Int restore.restored_bytes);
             ("bytes_saved", Int restore.bytes_saved);
             ("full_ns", Float restore.full_ns);
             ("dirty_ns", Float restore.dirty_ns);
             ("speedup", Float restore.restore_speedup) ]);
        ("system_enhanced", rows);
        ("system_stateless", rows_stateless) ];
    gates =
      [ ("alloc_free_record", minor_words < 1024);
        ("record_speedup", rec_res.speedup >= min_speedup);
        ("rollback_speedup", rb_res.speedup >= min_speedup);
        ("coalescing_shrinks_log", coalesce_entries * 4 <= plain_entries);
        (* restored bytes must track dirty granules, not image size *)
        ("restore_scales_with_dirty",
         restore.restored_bytes <= restore.dirty_granules * Memimage.granule
         && restore.restored_bytes * 4 < restore.image_bytes) ] }
