(* Tests for the trace query engine and differential diagnosis:
   filter-grammar parsing (round-trips through pred_to_string), index
   robustness (truncated / bit-flipped / stale sidecars must fall back
   to a full scan, never a wrong answer), selective-decode pushdown
   statistics, a QCheck property that indexed and full-scan query
   artifacts are byte-identical across random workloads/seeds/crash
   plans, and rundiff's structural vs statistical-only verdicts. *)

let vfs = Endpoint.vfs

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl
                   && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* In-memory recording through the same System.build path the file
   recorder uses; returns the encoded journal bytes. *)
let record_bytes header =
  let w = Journal.to_memory header in
  ignore (Runspec.exec header ~hook:(Journal.write w) : Kernel.halt);
  Journal.close w;
  Journal.contents w

let header_exn ?spec ?workload ?crash ?seed () =
  match Runspec.make_header ?spec ?workload ?crash ?seed () with
  | Ok h -> h
  | Error m -> Alcotest.fail ("make_header: " ^ m)

(* The shared fixture: a crashy workgen run, large enough for several
   index blocks at a small block size. *)
let fixture =
  lazy
    (let header = header_exn ~seed:42 ~workload:"workgen" ~crash:"vfs" () in
     let bytes = record_bytes header in
     let ix =
       match Journal.build_index ~block_records:32 bytes with
       | Ok ix -> ix
       | Error m -> Alcotest.fail ("build_index: " ^ m)
     in
     (header, bytes, ix))

let run_exn ?index ?stats ~filter ~agg bytes =
  match Query.run ?index ?stats ~filter ~agg bytes with
  | Ok o -> o
  | Error m -> Alcotest.fail ("query: " ^ m)

(* ------------------------------------------------------------------ *)
(* Filter grammar                                                      *)
(* ------------------------------------------------------------------ *)

let parse_exn s =
  match Query.parse_filter s with
  | Ok p -> p
  | Error m -> Alcotest.fail (Printf.sprintf "parse %S: %s" s m)

let test_parse_filter () =
  Alcotest.(check bool) "empty input is True" true
    (parse_exn "" = Query.True);
  Alcotest.(check bool) "whitespace only is True" true
    (parse_exn "   " = Query.True);
  (match parse_exn "chain=7" with
   | Query.Chain 7 | Query.All [ Query.Chain 7 ] -> ()
   | p -> Alcotest.fail ("chain=7 parsed to " ^ Query.pred_to_string p));
  (* negation flips matching: an E_msg into vfs *)
  let ev =
    Kernel.E_msg { time = 3; src = Endpoint.first_user; dst = vfs;
                   tag = Message.Tag.T_open; call = true; rid = 1;
                   parent = 0; cls = Seep.Read_only }
  in
  let parents = Hashtbl.create 8 in
  Alcotest.(check bool) "server=vfs matches" true
    (Query.eval parents (parse_exn "server=vfs") ev);
  Alcotest.(check bool) "!server=vfs rejects" false
    (Query.eval parents (parse_exn "!server=vfs") ev);
  Alcotest.(check bool) "comma values OR" true
    (Query.eval parents (parse_exn "server=ds,vfs") ev);
  Alcotest.(check bool) "tag term matches" true
    (Query.eval parents (parse_exn "tag=open") ev);
  Alcotest.(check bool) "terms AND" false
    (Query.eval parents (parse_exn "server=vfs kind=reply") ev);
  Alcotest.(check bool) "time window" true
    (Query.eval parents (parse_exn "time>=3 time<4") ev);
  Alcotest.(check bool) "time window excludes" false
    (Query.eval parents (parse_exn "time>3") ev)

let test_parse_filter_errors () =
  let expect_error what s =
    match Query.parse_filter s with
    | Error _ -> ()
    | Ok p ->
      Alcotest.fail
        (Printf.sprintf "%s: %S parsed as %s" what s
           (Query.pred_to_string p))
  in
  expect_error "unknown key" "frobnicate=3";
  expect_error "bare term" "vfs";
  expect_error "unknown server" "server=nosuchserver";
  expect_error "unknown kind" "kind=nosuchkind";
  expect_error "unknown tag" "tag=nosuchtag";
  expect_error "non-numeric rid" "rid=abc";
  expect_error "non-numeric time" "time>=soon"

let test_pred_to_string_roundtrip () =
  List.iter
    (fun s ->
       let p = parse_exn s in
       let p' = parse_exn (Query.pred_to_string p) in
       if p <> p' then
         Alcotest.fail
           (Printf.sprintf "%S -> %s reparses differently" s
              (Query.pred_to_string p)))
    [ ""; "server=vfs"; "server=vfs,ds kind=reply"; "tag=open,read";
      "rid=1,2,3"; "chain=9"; "policy=stateless";
      "server=vfs kind=reply time>=5000 time<9000"; "!server=vfs";
      "!kind=msg time>=1" ]

(* ------------------------------------------------------------------ *)
(* Index robustness: damage falls back, never a wrong answer           *)
(* ------------------------------------------------------------------ *)

(* The reference artifacts every degraded path must agree with. *)
let reference_artifacts bytes =
  let filter = parse_exn "server=vfs kind=reply" in
  let o = run_exn ~filter ~agg:Query.Count bytes in
  (Query.to_json o, Query.to_csv o)

let test_index_truncation_every_prefix () =
  let _, bytes, ix = Lazy.force fixture in
  let encoded = Journal.index_to_string ix in
  (* every strict prefix must read as damage: the header declares the
     block count and the decoder rejects missing or trailing bytes *)
  for len = 0 to String.length encoded - 1 do
    match Journal.index_of_string ~journal:bytes (String.sub encoded 0 len) with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.fail
        (Printf.sprintf "truncated index (%d of %d bytes) decoded as Ok"
           len (String.length encoded))
  done;
  match Journal.index_of_string ~journal:bytes encoded with
  | Ok ix' ->
    Alcotest.(check bool) "intact index round-trips" true (ix' = ix)
  | Error m -> Alcotest.fail ("intact index rejected: " ^ m)

let test_index_bitflip_every_byte () =
  let _, bytes, ix = Lazy.force fixture in
  let json_ref, csv_ref = reference_artifacts bytes in
  let filter = parse_exn "server=vfs kind=reply" in
  let encoded = Bytes.of_string (Journal.index_to_string ix) in
  for i = 0 to Bytes.length encoded - 1 do
    let orig = Bytes.get encoded i in
    Bytes.set encoded i (Char.chr (Char.code orig lxor 0x40));
    (match Journal.index_of_string ~journal:bytes (Bytes.to_string encoded)
     with
     | Error _ -> ()  (* detected: consumers fall back to a full scan *)
     | Ok damaged ->
       (* if a flip somehow survives validation, queries through the
          surviving index must still be exact — never a wrong answer *)
       let o = run_exn ~index:damaged ~filter ~agg:Query.Count bytes in
       if Query.to_json o <> json_ref || Query.to_csv o <> csv_ref then
         Alcotest.fail
           (Printf.sprintf "bit flip at byte %d silently altered a query" i));
    Bytes.set encoded i orig
  done

let test_index_stale_after_rerecord () =
  let _, bytes, ix = Lazy.force fixture in
  (* same workload re-recorded under a different seed: the old sidecar
     must be rejected against the new journal's fingerprint *)
  let bytes' =
    record_bytes (header_exn ~seed:43 ~workload:"workgen" ~crash:"vfs" ())
  in
  (match Journal.index_of_string ~journal:bytes'
           (Journal.index_to_string ix) with
   | Error m ->
     Alcotest.(check bool) "names staleness" true
       (contains ~needle:"stale" m)
   | Ok _ -> Alcotest.fail "stale index validated against a new journal");
  (* and the fallback answer (no index at all) matches the indexed one *)
  let filter = parse_exn "server=vfs kind=reply" in
  let indexed = run_exn ~index:ix ~filter ~agg:Query.Count bytes in
  let full = run_exn ~filter ~agg:Query.Count bytes in
  Alcotest.(check string) "fallback JSON identical"
    (Query.to_json indexed) (Query.to_json full);
  Alcotest.(check string) "fallback CSV identical"
    (Query.to_csv indexed) (Query.to_csv full)

let test_index_file_roundtrip () =
  let _, bytes, ix = Lazy.force fixture in
  let path = Filename.temp_file "osiris_test" Journal.index_suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       Journal.write_index_file ~path ix;
       match Journal.read_index_file ~journal:bytes path with
       | Ok ix' ->
         Alcotest.(check bool) "file round-trip" true (ix' = ix)
       | Error m -> Alcotest.fail ("read_index_file: " ^ m));
  match Journal.read_index_file ~journal:bytes "/nonexistent/journal.idx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing index file read as Ok"

(* ------------------------------------------------------------------ *)
(* Selective decode                                                    *)
(* ------------------------------------------------------------------ *)

let test_pushdown_skips_blocks () =
  let _, bytes, ix = Lazy.force fixture in
  let total = ix.Journal.ix_records in
  (* a narrow vtime window in the middle of the run *)
  let t_min = ix.Journal.ix_blocks.(0).Journal.blk_time_min in
  let t_max =
    ix.Journal.ix_blocks.(Array.length ix.Journal.ix_blocks - 1)
      .Journal.blk_time_max
  in
  let lo = t_min + ((t_max - t_min) / 2) in
  let hi = lo + ((t_max - t_min) / 50) in
  let filter =
    parse_exn (Printf.sprintf "time>=%d time<%d" lo (max hi (lo + 1)))
  in
  let stats = Journal.scan_stats () in
  let indexed = run_exn ~index:ix ~stats ~filter ~agg:Query.Count bytes in
  Alcotest.(check bool) "some blocks skipped" true
    (stats.Journal.sc_blocks_skipped > 0);
  Alcotest.(check int) "skipped + scanned = total"
    stats.Journal.sc_blocks_total
    (stats.Journal.sc_blocks_scanned + stats.Journal.sc_blocks_skipped);
  Alcotest.(check bool) "decoded strictly fewer records" true
    (stats.Journal.sc_records_decoded < total);
  let full = run_exn ~filter ~agg:Query.Count bytes in
  Alcotest.(check string) "indexed JSON = full-scan JSON"
    (Query.to_json full) (Query.to_json indexed);
  Alcotest.(check int) "matches agree" full.Query.q_matched
    indexed.Query.q_matched

let test_gauges_published () =
  let _, bytes, ix = Lazy.force fixture in
  let stats = Journal.scan_stats () in
  let filter = parse_exn "kind=crash" in
  ignore (run_exn ~index:ix ~stats ~filter ~agg:Query.Count bytes);
  let m = Metrics.create () in
  Query.publish stats m;
  let gauge name =
    match Metrics.find m name with
    | Some (Metrics.V_gauge v) -> v
    | _ -> Alcotest.fail ("gauge missing: " ^ name)
  in
  Alcotest.(check int) "blocks_scanned gauge"
    stats.Journal.sc_blocks_scanned
    (gauge "osiris.query.blocks_scanned");
  Alcotest.(check int) "blocks_skipped gauge"
    stats.Journal.sc_blocks_skipped
    (gauge "osiris.query.blocks_skipped");
  Alcotest.(check int) "records_decoded gauge"
    stats.Journal.sc_records_decoded
    (gauge "osiris.query.records_decoded")

(* ------------------------------------------------------------------ *)
(* Indexed = full scan, property-tested                                *)
(* ------------------------------------------------------------------ *)

let prop_indexed_equals_full_scan =
  QCheck.Test.make
    ~name:"indexed and full-scan query artifacts are byte-identical"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
       let spec =
         match seed mod 3 with
         | 0 -> "enhanced"
         | 1 -> "stateless"
         | _ -> "enhanced,ds=stateless,vm=pessimistic/3"
       in
       let crash =
         match seed mod 4 with
         | 0 -> "none" | 1 -> "pm" | 2 -> "vfs" | _ -> "ds"
       in
       match Runspec.make_header ~seed ~spec ~workload:"workgen" ~crash () with
       | Error m -> QCheck.Test.fail_report m
       | Ok header ->
         let bytes = record_bytes header in
         (match Journal.build_index ~block_records:16 bytes with
          | Error m -> QCheck.Test.fail_report ("build_index: " ^ m)
          | Ok ix ->
            let filters =
              [ ""; "server=vfs"; "kind=reply"; "server=ds kind=msg";
                "time>=2000 time<20000"; "tag=open,read"; "chain=3";
                "!server=vfs"; "policy=stateless" ]
            in
            let aggs =
              [ Query.Count; Query.Rate 5_000;
                Query.Percentiles Query.F_latency;
                Query.Group_by Query.D_server ]
            in
            List.for_all
              (fun fs ->
                 let filter =
                   match Query.parse_filter fs with
                   | Ok p -> p
                   | Error m -> QCheck.Test.fail_report m
                 in
                 let agg = List.nth aggs (Hashtbl.hash (seed, fs) mod 4) in
                 match
                   ( Query.run ~index:ix ~filter ~agg bytes,
                     Query.run ~filter ~agg bytes )
                 with
                 | Ok a, Ok b ->
                   Query.to_json a = Query.to_json b
                   && Query.to_csv a = Query.to_csv b
                 | Error m, _ | _, Error m ->
                   QCheck.Test.fail_report ("query: " ^ m))
              filters))

(* ------------------------------------------------------------------ *)
(* Differential diagnosis                                              *)
(* ------------------------------------------------------------------ *)

let compare_exn ~label_a ~label_b a b =
  match Rundiff.compare_runs ~label_a ~label_b a b with
  | Ok r -> r
  | Error m -> Alcotest.fail ("compare_runs: " ^ m)

let test_diff_identical_runs () =
  let _, bytes, _ = Lazy.force fixture in
  let r = compare_exn ~label_a:"A" ~label_b:"B" bytes bytes in
  Alcotest.(check int) "exit 0" 0 (Rundiff.exit_code r);
  Alcotest.(check bool) "no divergence" true (r.Rundiff.rd_divergence = None);
  Alcotest.(check bool) "headers equal" true r.Rundiff.rd_headers_equal;
  Alcotest.(check bool) "verdict rendered" true
    (contains ~needle:"identical" (Rundiff.render r))

let test_diff_deterministic () =
  let _, bytes, _ = Lazy.force fixture in
  let other =
    record_bytes (header_exn ~seed:7 ~workload:"workgen" ~crash:"ds" ())
  in
  let r1 = compare_exn ~label_a:"A" ~label_b:"B" bytes other in
  let r2 = compare_exn ~label_a:"A" ~label_b:"B" bytes other in
  Alcotest.(check string) "render byte-identical"
    (Rundiff.render r1) (Rundiff.render r2);
  Alcotest.(check string) "JSON byte-identical"
    (Rundiff.to_json r1) (Rundiff.to_json r2)

(* A perturbed cost table produces a structurally divergent pair: the
   expected first-divergence index is derived independently, exactly as
   the replay fixture does. *)
let test_diff_structural_divergence () =
  let header, bytes, _ = Lazy.force fixture in
  let costs = Costs.perturbed Costs.microkernel in
  let perturbed =
    let spec =
      match Runspec.of_header header with
      | Ok spec -> spec
      | Error m -> Alcotest.fail m
    in
    let w = Journal.to_memory header in
    ignore (Runspec.run ~costs ~journal:w spec : System.t * Kernel.halt);
    Journal.close w;
    Journal.contents w
  in
  let expected_index =
    let a = match Journal.read_string bytes with
      | Ok (_, e) -> e | Error m -> Alcotest.fail m in
    let b = match Journal.read_string perturbed with
      | Ok (_, e) -> e | Error m -> Alcotest.fail m in
    let n = min (Array.length a) (Array.length b) in
    let rec scan i = if i >= n || a.(i) <> b.(i) then i else scan (i + 1) in
    scan 0
  in
  let r = compare_exn ~label_a:"plain" ~label_b:"perturbed" bytes perturbed in
  Alcotest.(check int) "exit 2" 2 (Rundiff.exit_code r);
  (match r.Rundiff.rd_divergence with
   | None -> Alcotest.fail "no structural divergence reported"
   | Some d ->
     Alcotest.(check int) "first divergent record pinpointed"
       expected_index d.Replay.div_index);
  Alcotest.(check bool) "JSON carries the divergence" true
    (contains ~needle:"divergence" (Rundiff.to_json r))

(* stateless vs naive differ only in recovery action, so a crash-free
   run traces identically under both: same trajectory, different
   policy spec — the statistical-only verdict. *)
let test_diff_statistical_only () =
  let a = record_bytes (header_exn ~seed:42 ~spec:"stateless" ()) in
  let b = record_bytes (header_exn ~seed:42 ~spec:"naive" ()) in
  let r = compare_exn ~label_a:"stateless" ~label_b:"naive" a b in
  Alcotest.(check bool) "no structural divergence" true
    (r.Rundiff.rd_divergence = None);
  Alcotest.(check bool) "headers differ" false r.Rundiff.rd_headers_equal;
  Alcotest.(check int) "exit 2 (headers differ)" 2 (Rundiff.exit_code r);
  Alcotest.(check bool) "event mix identical" true
    (r.Rundiff.rd_a.Rundiff.sd_kind_counts
     = r.Rundiff.rd_b.Rundiff.sd_kind_counts);
  Alcotest.(check bool) "both specs named in the report" true
    (let s = Rundiff.render r in
     contains ~needle:"stateless" s && contains ~needle:"naive" s)

let () =
  Alcotest.run "osiris_query"
    [ ( "grammar",
        [ Alcotest.test_case "parse_filter" `Quick test_parse_filter;
          Alcotest.test_case "parse errors" `Quick test_parse_filter_errors;
          Alcotest.test_case "pred_to_string round-trip" `Quick
            test_pred_to_string_roundtrip ] );
      ( "robustness",
        [ Alcotest.test_case "every index truncation errors" `Quick
            test_index_truncation_every_prefix;
          Alcotest.test_case "every index bit flip detected" `Quick
            test_index_bitflip_every_byte;
          Alcotest.test_case "stale index rejected" `Quick
            test_index_stale_after_rerecord;
          Alcotest.test_case "index file round-trip" `Quick
            test_index_file_roundtrip ] );
      ( "pushdown",
        [ Alcotest.test_case "narrow window skips blocks" `Quick
            test_pushdown_skips_blocks;
          Alcotest.test_case "scan gauges published" `Quick
            test_gauges_published;
          QCheck_alcotest.to_alcotest prop_indexed_equals_full_scan ] );
      ( "diff",
        [ Alcotest.test_case "identical runs" `Quick test_diff_identical_runs;
          Alcotest.test_case "deterministic" `Quick test_diff_deterministic;
          Alcotest.test_case "structural divergence" `Quick
            test_diff_structural_divergence;
          Alcotest.test_case "statistical-only delta" `Quick
            test_diff_statistical_only ] ) ]
