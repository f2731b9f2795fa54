(* Compare two bench JSON artifacts (BENCH_*.json or the smoke_*.json
   files runtest leaves under _build/default/bench/).

     bench_diff OLD.json NEW.json [--threshold PCT]

   Every numeric field is flattened to a dotted path
   (e.g. wall.overhead_pct) and compared; relative moves beyond the
   threshold (default 10%) are flagged as DRIFT. Fields under "gates"
   are booleans: a gate that was true in OLD and false in NEW is a
   REGRESSION, as is any move of an exact field (see below). A path of OLD missing from NEW is GONE — the artifact's
   schema shrank — and also a regression; paths only in NEW are
   allowed. Any regression makes the exit status 1. Drift alone exits
   0 — wall times vary across machines, so the CI step that runs this
   is advisory; the gates themselves are enforced by the benches.

   A bench artifact may carry a top-level "tolerances" object mapping
   dotted paths to a relative tolerance in percent, e.g.

     "tolerances": {"wall.speedup": 75, "pool.runs_per_sec": 100}

   Paths listed there compare against their own tolerance instead of
   the global threshold (the baseline's entry wins; the new artifact
   is consulted for paths the baseline does not mention). The
   "tolerances" subtree itself is never diffed. A tolerance of 0 marks
   an exact field — one the seed determines, like a minor-word count —
   and any move of it is a REGRESSION, not DRIFT: a stale baseline
   fails instead of passing silently.

   Calibration gating: an artifact whose "calibration.ideal" is below
   1 was produced on a host that could not parallelize even its own
   calibration probe (an oversubscribed CI container, say) — every
   wall-clock number in it reflects the throttling, not the code. When
   either side of the diff is such an artifact, numeric moves under
   "wall.", "pool." and "calibration." are reported as informational
   [info] lines instead of DRIFT, so a poisoned baseline cannot flag
   (or mask) timing drift. Gates still compare normally — the benches
   derive their thresholds from the same calibration, so gate booleans
   stay meaningful on throttled hosts. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n
       && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then (advance (); skip_ws ())
  in
  let expect c =
    skip_ws ();
    if peek () <> c then
      raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'u' -> Buffer.add_string b "\\u"
         | c -> Buffer.add_char b c);
        advance (); go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let rec go () =
      if !pos < n
         && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
      then (advance (); go ())
    in
    go ();
    if start = !pos then raise (Bad "empty number");
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance (); skip_ws ();
      if peek () = '}' then (advance (); Obj [])
      else
        let rec members acc =
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
        in
        members []
    | '[' ->
      advance (); skip_ws ();
      if peek () = ']' then (advance (); List [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); List (List.rev (v :: acc))
          | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
        in
        elements []
    | '"' -> Str (parse_string ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage");
  v

(* Flatten to (dotted-path, leaf) pairs; list elements use [i]. *)
let flatten (j : json) : (string * json) list =
  let out = ref [] in
  let rec go prefix = function
    | Obj kvs ->
      List.iter
        (fun (k, v) ->
           go (if prefix = "" then k else prefix ^ "." ^ k) v)
        kvs
    | List vs ->
      List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" prefix i) v) vs
    | leaf -> out := (prefix, leaf) :: !out
  in
  go "" j;
  List.rev !out

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let usage () =
  prerr_endline "usage: bench_diff OLD.json NEW.json [--threshold PCT]";
  exit 2

let () =
  let threshold = ref 10.0 in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
       | Some t -> threshold := t
       | None -> usage ());
      parse_args rest
    | f :: rest -> files := f :: !files; parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let load path =
    try flatten (parse (read_file path))
    with
    | Sys_error m -> prerr_endline ("bench_diff: " ^ m); exit 2
    | Bad m ->
      Printf.eprintf "bench_diff: %s: invalid JSON: %s\n" path m;
      exit 2
  in
  let old_kv = load old_path and new_kv = load new_path in
  (* Per-path tolerances declared by the artifacts themselves; the
     baseline wins where both declare one. Entries live under the
     "tolerances." prefix in the flattened view. *)
  let tolerance_of kv =
    List.filter_map
      (function
        | path, Num pct
          when String.length path > 11 && String.sub path 0 11 = "tolerances." ->
          Some (String.sub path 11 (String.length path - 11), pct)
        | _ -> None)
      kv
  in
  let tolerances =
    let old_tol = tolerance_of old_kv in
    old_tol
    @ List.filter
        (fun (path, _) -> not (List.mem_assoc path old_tol))
        (tolerance_of new_kv)
  in
  let threshold_for path =
    match List.assoc_opt path tolerances with
    | Some pct -> pct
    | None -> !threshold
  in
  let is_tolerance_entry path =
    String.length path > 11 && String.sub path 0 11 = "tolerances."
  in
  (* Calibration gating: wall-clock numbers from a host whose own
     calibration probe could not parallelize (ideal < 1) are noise. *)
  let throttled kv =
    match List.assoc_opt "calibration.ideal" kv with
    | Some (Num v) -> v < 1.
    | _ -> false
  in
  let calibration_gated = throttled old_kv || throttled new_kv in
  let has_prefix p path =
    String.length path >= String.length p
    && String.sub path 0 (String.length p) = p
  in
  let is_informational path =
    calibration_gated
    && (has_prefix "wall." path || has_prefix "pool." path
        || has_prefix "calibration." path)
  in
  let regressions = ref 0 and drifts = ref 0 in
  Printf.printf "bench_diff: %s -> %s (threshold %.1f%%, %d per-path)\n"
    old_path new_path !threshold (List.length tolerances);
  if calibration_gated then
    Printf.printf
      "  (calibration.ideal < 1 on at least one side: host-throttled\n\
      \   artifact; wall.*/pool.*/calibration.* moves are informational)\n";
  List.iter
    (fun (path, nv) ->
       if is_tolerance_entry path then ()
       else
         match List.assoc_opt path old_kv, nv with
         | None, _ -> Printf.printf "  NEW       %-42s (only in new)\n" path
         | Some (Bool ov), Bool n ->
           if ov && not n then begin
             incr regressions;
             Printf.printf "  REGRESSED %-42s true -> false\n" path
           end
           else if n && not ov then
             Printf.printf "  fixed     %-42s false -> true\n" path
         | Some (Num ov), Num n when ov <> n ->
           let rel =
             if ov = 0. then infinity else 100. *. (n -. ov) /. Float.abs ov
           in
           let allowed = threshold_for path in
           if allowed = 0. then begin
             incr regressions;
             Printf.printf "  REGRESSED %-42s %g -> %g (exact field)\n"
               path ov n
           end
           else if Float.abs rel > allowed then
             if is_informational path then
               Printf.printf "  info      %-42s %g -> %g (%+.1f%%)\n"
                 path ov n rel
             else begin
               incr drifts;
               Printf.printf "  DRIFT     %-42s %g -> %g (%+.1f%%, tol %.1f%%)\n"
                 path ov n rel allowed
             end
         | Some (Str ov), Str n when ov <> n ->
           Printf.printf "  changed   %-42s %S -> %S\n" path ov n
         | Some _, _ -> ())
    new_kv;
  let gone = ref 0 in
  List.iter
    (fun (path, _) ->
       if (not (is_tolerance_entry path)) && not (List.mem_assoc path new_kv)
       then begin
         incr gone;
         Printf.printf "  GONE      %-42s (only in old)\n" path
       end)
    old_kv;
  if !regressions > 0 || !gone > 0 then begin
    Printf.printf "%d regression(s), %d gone path(s)\n" !regressions !gone;
    exit 1
  end
  else
    Printf.printf "no regressions (%d numeric drift(s) over %.1f%%)\n"
      !drifts !threshold
