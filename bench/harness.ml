(* The one bench harness. Every layer bench is a function from the run
   configuration to its fields and gate verdicts; this module owns
   everything around that: the two knobs, the clock and every timing
   loop, the reductions the gates read, the allocation probe, the JSON
   artifact and the gate report. *)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

(* [budget_ns] is the per-variant wall budget (OSIRIS_BENCH_MS, default
   200 ms); [sample] the fault sites per policy for the campaign
   experiments (OSIRIS_SAMPLE, default 0 = every triggered site).
   [smoke] is the small-budget run `dune runtest` makes: 25 ms budget,
   a 6-site sample, the relaxed thresholds declared with each gate,
   and [smoke_<name>.json] artifacts. An explicitly set knob wins over
   the smoke default. *)
type cfg = { smoke : bool; budget_ns : float; sample : int }

(* Read once, at startup. A value that does not parse is a usage error
   (exit 2), never a silent default: a mistyped OSIRIS_SAMPLE would
   otherwise launch the full campaign sweep. *)
let config ~smoke =
  let knob var parse ~what ~default =
    match Sys.getenv_opt var with
    | None -> default
    | Some s ->
      (match parse s with
       | Some v -> v
       | None ->
         Printf.eprintf "bench: %s=%S is not %s\n" var s what;
         exit 2)
  in
  let budget_ms =
    knob "OSIRIS_BENCH_MS" ~what:"a non-negative number of milliseconds"
      ~default:(if smoke then 25. else 200.)
      (fun s ->
         match float_of_string_opt s with
         | Some ms when Float.is_finite ms && ms >= 0. -> Some ms
         | _ -> None)
  in
  let sample =
    knob "OSIRIS_SAMPLE" ~what:"a non-negative integer"
      ~default:(if smoke then 6 else 0)
      (fun s ->
         match int_of_string_opt s with
         | Some n when n >= 0 -> Some n
         | _ -> None)
  in
  { smoke; budget_ns = budget_ms *. 1e6; sample }

(* A gate threshold with the value the strict full-budget run holds
   and the value the smoke run holds. *)
type limit = { strict : float; smoke : float }

let limit (cfg : cfg) l = if cfg.smoke then l.smoke else l.strict

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

(* A variant the sampler times itself. *)
let timed f () = snd (time f)

(* Exact minor-heap words allocated by [f] (allocation in OCaml is
   deterministic for a deterministic simulation, so a single sample is
   exact, not an estimate). *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* [ns.(i).(r)]: variant [i]'s time in round [r]. *)
type samples = { rounds : int; ns : float array array }

(* Interleaved sampling. Fresh-system runs are noisy (GC, page cache,
   and `dune runtest` runs the benches beside other test binaries), so
   timing each variant in its own phase would let load drift between
   phases masquerade as overhead. Instead every round runs each
   variant once, back to back, under the same load. Each variant
   returns its own elapsed ns (see [timed]) so a variant can keep
   setup and teardown out of its measured window.

   Within a round the visiting order is a stride permutation that
   changes every round — stride cycling through the values coprime to
   the variant count, start slot offset by the round — so no variant
   has a fixed predecessor: a variant that drops multi-MB buffers
   would otherwise bill its GC debt to whichever variant always ran
   next.

   Every variant runs once unmeasured first (warm). Rounds continue
   until [budget_scale] x (variants x budget) has elapsed and at least
   [min_rounds] have run; [budget_scale:0.] gives exactly
   [min_rounds]. *)
let sample (cfg : cfg) ?(budget_scale = 1.) ?(min_rounds = 8) variants =
  let variants = Array.of_list variants in
  Array.iter (fun f -> ignore (f () : float)) variants;
  let k = Array.length variants in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let strides =
    match List.filter (fun s -> gcd s k = 1) (List.init (max 0 (k - 1)) succ) with
    | [] -> [| 1 |]
    | l -> Array.of_list l
  in
  let rows = Array.make k [] in
  let budget = budget_scale *. float_of_int k *. cfg.budget_ns in
  let t0 = now_ns () in
  let rounds = ref 0 in
  while now_ns () -. t0 < budget || !rounds < min_rounds do
    let stride = strides.(!rounds mod Array.length strides) in
    for j = 0 to k - 1 do
      let i = ((j * stride) + !rounds) mod k in
      rows.(i) <- variants.(i) () :: rows.(i)
    done;
    incr rounds
  done;
  { rounds = !rounds;
    ns = Array.map (fun l -> Array.of_list (List.rev l)) rows }

(* Per-variant best-of: the estimator of every whole-run gate. *)
let best s i = Array.fold_left Float.min infinity s.ns.(i)

(* Per-variant mean. *)
let mean s i =
  Array.fold_left ( +. ) 0. s.ns.(i) /. float_of_int (max 1 s.rounds)

let pct_over ~base x = 100. *. (x -. base) /. base

(* The noise floor of a timed comparison: the quartiles of the
   per-round paired ratios of variant [i] over variant [base], in
   percent. Written next to the figure a gate reads; read by no gate. *)
let spread_pct s ~base i =
  let a =
    Osiris_util.Stats.sorted_array
      (Array.to_list (Array.map2 (fun b x -> pct_over ~base:b x) s.ns.(base) s.ns.(i)))
  in
  (Osiris_util.Stats.percentile_sorted a 25., Osiris_util.Stats.percentile_sorted a 75.)

(* Paired median overhead of variant 1 over variant 0: the median of
   per-round differences over the median of variant 0. Subtracting two
   independently drawn minima would make a gate hostage to which
   variant caught the luckier tail sample; paired differences cancel
   shared drift and the median discards a latency tail. A result not
   under [threshold] earns one confirmation pass at twice the budget,
   pooled with the first (the medians only firm up, so this cannot
   manufacture a pass the hardware does not support). *)
let paired_median_pct cfg ~threshold variants =
  let upper_median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let pct s =
    100. *. upper_median (Array.map2 ( -. ) s.ns.(1) s.ns.(0))
    /. upper_median s.ns.(0)
  in
  let first = sample cfg variants in
  let p = pct first in
  if p < threshold then (p, first)
  else
    let more = sample cfg ~budget_scale:2. variants in
    let pooled =
      { rounds = first.rounds + more.rounds;
        ns = Array.map2 Array.append first.ns more.ns }
    in
    (pct pooled, pooled)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type json =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* A [q1, q3] spread field. *)
let spread (q1, q3) = List [ Float q1; Float q3 ]

(* The "tolerances" member marking [paths] exact: fields the seed alone
   determines (minor words, counts), identical at every budget, so
   [tools/bench_diff] fails on any move of them instead of reporting
   drift. *)
let exact paths = ("tolerances", Obj (List.map (fun p -> (p, Float 0.)) paths))

let iter_sep b sep f =
  List.iteri (fun i x -> if i > 0 then Buffer.add_string b sep; f x)

(* Floats print with four decimals, trailing zeros trimmed; a
   non-finite value prints as null so the artifact stays JSON. *)
let rec json_to_buffer b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x when not (Float.is_finite x) -> Buffer.add_string b "null"
  | Float x ->
    let s = Printf.sprintf "%.4f" x in
    let n = ref (String.length s) in
    while s.[!n - 1] = '0' do decr n done;
    if s.[!n - 1] = '.' then decr n;
    Buffer.add_string b (String.sub s 0 !n)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | List vs ->
    Buffer.add_char b '[';
    iter_sep b ", " (json_to_buffer b) vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    iter_sep b ", " (member_to_buffer b) kvs;
    Buffer.add_char b '}'

and member_to_buffer b (k, v) =
  json_to_buffer b (Str k);
  Buffer.add_string b ": ";
  json_to_buffer b v

let heading title =
  Printf.printf
    "\n================================================================\n\
     %s\n\
     ================================================================\n"
    title

(* What a layer bench returns: its artifact fields and its gate
   verdicts, in report order. *)
type result = { fields : (string * json) list; gates : (string * bool) list }

(* Run bench [name], write its artifact ([BENCH_<name>.json], or
   [smoke_<name>.json] under smoke) — one top-level member per line —
   and report its gates. False when a gate failed or the bench
   raised. *)
let run_bench (cfg : cfg) name run =
  match run cfg with
  | exception e ->
    Printf.eprintf "%s bench: raised %s\n%!" name (Printexc.to_string e);
    false
  | r ->
    let members =
      (("bench", Str name) :: ("budget_ms", Float (cfg.budget_ns /. 1e6))
       :: r.fields)
      @ [ ("gates", Obj (List.map (fun (g, ok) -> (g, Bool ok)) r.gates)) ]
    in
    let b = Buffer.create 2048 in
    Buffer.add_string b "{\n  ";
    iter_sep b ",\n  " (member_to_buffer b) members;
    Buffer.add_string b "\n}\n";
    let path = (if cfg.smoke then "smoke_" else "BENCH_") ^ name ^ ".json" in
    let oc = open_out path in
    Buffer.output_buffer oc b;
    close_out oc;
    Printf.printf "wrote %s\n" path;
    match List.filter (fun (_, ok) -> not ok) r.gates with
    | [] ->
      Printf.printf "all %d gates passed\n%!" (List.length r.gates);
      true
    | failed ->
      List.iter
        (fun (g, _) -> Printf.eprintf "%s bench: gate FAILED: %s\n%!" name g)
        failed;
      false
