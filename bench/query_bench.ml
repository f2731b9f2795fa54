(* Trace query engine benchmark: does the sidecar index actually buy
   selective decode, does it stay honest, and what does building it
   cost at record time?

   Run with [dune exec bench/main.exe query]. Gates:
     selective_decode   a narrow vtime-window query over a >=100k-event
                        journal decodes < 15% of its records through
                        the index, and actually skips blocks
     byte_identity      indexed and full-scan evaluation of the same
                        queries produce byte-identical JSON and CSV
                        artifacts (pushdown may over-decode, never
                        change answers)
     index_overhead     sidecar indexing adds less than
                        [max_index_overhead_pct] to [osiris record]
                        wall time (Flight.record ~index:true vs false) *)

open Harness

let workload_seed = 42

(* ------------------------------------------------------------------ *)
(* Synthetic journal: a deterministic mixed stream, big enough that    *)
(* block skipping is measurable (>=100k events, ~200 blocks at the     *)
(* default 512 records/block).                                         *)
(* ------------------------------------------------------------------ *)

let synth_header () =
  match Runspec.make_header ~seed:workload_seed ~workload:"workgen" () with
  | Ok h -> h
  | Error m -> failwith ("query bench: " ^ m)

let synth_journal n =
  let tags =
    [| Message.Tag.T_open; Message.Tag.T_read; Message.Tag.T_write;
       Message.Tag.T_close |]
  in
  let evs = ref [] in
  let push ev = evs := ev :: !evs in
  let time = ref 0 in
  let rid = ref 0 in
  let emitted = ref 0 in
  let i = ref 0 in
  while !emitted < n do
    let k = !i in
    incr i;
    time := !time + 7 + (k mod 13);
    incr rid;
    let server = Endpoint.pm + (k mod (Endpoint.bdev - Endpoint.pm + 1)) in
    let user = Endpoint.first_user + (k mod 5) in
    let tag = tags.(k mod Array.length tags) in
    let parent = if !rid > 4 && k mod 3 = 0 then !rid - 4 else 0 in
    push
      (Kernel.E_msg
         { time = !time; src = user; dst = server; tag; call = true;
           rid = !rid; parent; cls = Seep.State_modifying });
    push
      (Kernel.E_store_logged
         { time = !time + 1; ep = server; rid = !rid;
           bytes = 8 + (k mod 64) });
    if k mod 5 = 0 then
      push
        (Kernel.E_checkpoint
           { time = !time + 2; ep = server; rid = !rid;
             cycles = 100 + (k mod 300) });
    push
      (Kernel.E_reply
         { time = !time + 3 + (k mod 7); src = server; dst = user; tag;
           rid = !rid });
    emitted := !emitted + 3 + (if k mod 5 = 0 then 1 else 0)
  done;
  push (Kernel.E_halt { time = !time + 10; halt = Kernel.H_completed 0 });
  (Journal.of_events (synth_header ()) (List.rev !evs), !time + 10)

(* ------------------------------------------------------------------ *)

(* Maximum tolerated record-time slowdown from sidecar indexing, in
   percent. Selective decode and byte identity are exact at any budget
   (they run over a deterministic synthetic journal); this gate is
   relaxed in the smoke run because runtest executes it beside the
   rest of the suite. *)
let max_index_overhead_pct = { strict = 5.; smoke = 25. }

let run cfg =
  heading "Trace query engine: selective decode, artifact identity, index cost";
  (* ---- record-time indexing overhead ----
     Measured first, while the heap is small: the selective-decode
     phase below keeps a ~1 MB journal plus its index live, which
     taxes the two variants' GC behavior unevenly. *)
  let header =
    match
      Runspec.make_header ~seed:workload_seed ~workload:"workgen"
        ~crash:"vfs" ()
    with
    | Ok h -> h
    | Error m -> failwith ("query bench: " ^ m)
  in
  (* Fixture on tmpfs when available: the gate targets the cost of
     indexing (scan + sidecar emit), and container scratch mounts (9p,
     overlay) add hundreds of µs of per-file latency that would gate
     the host's file system instead. The journal and sidecar writes
     still happen — just against memory-backed storage. *)
  let path =
    let shm = "/dev/shm" in
    if Sys.file_exists shm && Sys.is_directory shm then
      Filename.temp_file ~temp_dir:shm "osiris_query_bench" ".journal"
    else Filename.temp_file "osiris_query_bench" ".journal"
  in
  let record ~index () =
    match Flight.record ~path ~index header with
    | Ok _ -> ()
    | Error m -> failwith ("query bench: record: " ^ m)
  in
  (* The gated figure is the paired median (see
     [Harness.paired_median_pct]): it discards the sidecar write's
     file-system latency tail. *)
  let threshold = limit cfg max_index_overhead_pct in
  let overhead_pct, s =
    paired_median_pct cfg ~threshold
      [ timed (record ~index:false); timed (record ~index:true) ]
  in
  let best_plain = best s 0 and best_indexed = best s 1 in
  let overhead_spread = spread_pct s ~base:0 1 in
  Sys.remove path;
  (try Sys.remove (path ^ Journal.index_suffix) with Sys_error _ -> ());
  Printf.printf
    "record wall (%d interleaved rounds):\n\
    \  best without index %.2f ms, with index %.2f ms;\n\
    \  paired median overhead %+.2f%% (gate < %.1f%%; per-round IQR\n\
    \  [%+.1f, %+.1f])\n"
    s.rounds (best_plain /. 1e6) (best_indexed /. 1e6) overhead_pct
    threshold (fst overhead_spread) (snd overhead_spread);
  (* ---- selective decode over a big synthetic journal ---- *)
  let journal, t_max = synth_journal 100_000 in
  let ix =
    match Journal.build_index journal with
    | Ok ix -> ix
    | Error m -> failwith ("query bench: build_index: " ^ m)
  in
  let total = ix.Journal.ix_records in
  let n_blocks = Array.length ix.Journal.ix_blocks in
  (* A 1%-of-the-run vtime window in the middle of the journal. *)
  let w0 = t_max * 45 / 100 and w1 = t_max * 46 / 100 in
  let filter =
    Query.All [ Query.Time_ge w0; Query.Time_lt w1 ]
  in
  let stats = Journal.scan_stats () in
  let indexed =
    match Query.run ~index:ix ~stats ~filter ~agg:Query.Count journal with
    | Ok o -> o
    | Error m -> failwith ("query bench: indexed query: " ^ m)
  in
  let decoded_pct =
    100. *. float_of_int stats.Journal.sc_records_decoded
    /. float_of_int (max 1 total)
  in
  Printf.printf
    "selective decode: %d records in %d blocks; window [%d,%d) matched %d\n\
    \  decoded %d records (%.2f%%), scanned %d blocks, skipped %d\n"
    total n_blocks w0 w1 indexed.Query.q_matched
    stats.Journal.sc_records_decoded decoded_pct
    stats.Journal.sc_blocks_scanned stats.Journal.sc_blocks_skipped;
  let selective_ok =
    total >= 100_000 && decoded_pct < 15.
    && stats.Journal.sc_blocks_skipped > 0
  in
  (* ---- indexed vs full-scan byte identity across query shapes ---- *)
  let queries =
    [ ("window_count", filter, Query.Count);
      ("server_groups", Query.Server [ Endpoint.vfs; Endpoint.ds ],
       Query.Group_by Query.D_kind);
      ("tag_rate", Query.Tag [ Message.Tag.T_write ], Query.Rate 4096);
      ("latency", Query.All [ Query.Server [ Endpoint.vm ] ],
       Query.Percentiles Query.F_latency);
      ("chain", Query.Chain 50_000, Query.Count);
      ("bytes",
       Query.All
         [ Query.Kind [ 5 ]; Query.Time_ge (t_max / 2) ],
       Query.Percentiles Query.F_bytes) ]
  in
  let identity_failures =
    List.filter_map
      (fun (name, filter, agg) ->
         let run_path index =
           match Query.run ?index ~filter ~agg journal with
           | Ok o -> (Query.to_json o, Query.to_csv o)
           | Error m -> failwith ("query bench: " ^ name ^ ": " ^ m)
         in
         let ji, ci = run_path (Some ix) in
         let jf, cf = run_path None in
         if ji = jf && ci = cf then None else Some name)
      queries
  in
  let identity_ok = identity_failures = [] in
  Printf.printf "byte identity over %d query shapes: %s\n"
    (List.length queries)
    (if identity_ok then "indexed == full scan"
     else "MISMATCH in " ^ String.concat ", " identity_failures);
  { fields =
      [ ("workload_seed", Int workload_seed);
        ("selectivity",
         Obj
           [ ("records", Int total);
             ("blocks", Int n_blocks);
             ("records_decoded", Int stats.Journal.sc_records_decoded);
             ("records_decoded_pct", Float decoded_pct);
             ("blocks_scanned", Int stats.Journal.sc_blocks_scanned);
             ("blocks_skipped", Int stats.Journal.sc_blocks_skipped);
             ("matched", Int indexed.Query.q_matched) ]);
        ("identity_queries", Int (List.length queries));
        ("wall",
         Obj
           [ ("record_ns", Float best_plain);
             ("record_indexed_ns", Float best_indexed);
             ("index_overhead_pct", Float overhead_pct);
             ("index_overhead_spread_pct", spread overhead_spread);
             ("max_index_overhead_pct", Float threshold) ]);
        (* Wall numbers move with the host; the overhead ratio is the
           gated figure and is a noise-centered paired median, so its
           relative drift is meaningless (the gate itself is what's
           enforced). Selectivity and identity are deterministic — no
           tolerance needed. *)
        ("tolerances",
         Obj
           [ ("wall.record_ns", Float 50.);
             ("wall.record_indexed_ns", Float 50.);
             ("wall.index_overhead_pct", Float 10000.) ]) ];
    gates =
      [ ("selective_decode", selective_ok);
        ("byte_identity", identity_ok);
        ("index_overhead", overhead_pct < threshold) ] }
