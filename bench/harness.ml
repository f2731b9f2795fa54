(* Measurement helpers shared by the layer benches: the clock, the
   wall budget, allocation probes, interleaved best-of timing, and the
   env-var knobs each bench reads its gate threshold and artifact path
   from. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Per-variant wall budget: OSIRIS_BENCH_MS milliseconds (default 200;
   garbage falls back to the default). *)
let budget_ns () =
  let ms =
    match Sys.getenv_opt "OSIRIS_BENCH_MS" with
    | Some s -> (try float_of_string s with _ -> 200.)
    | None -> 200.
  in
  ms *. 1e6

(* A float knob — a gate threshold such as a maximum overhead percent
   or a minimum speedup — read from [var], [default] when unset or
   unparsable. *)
let env_float var ~default =
  match Sys.getenv_opt var with
  | Some s -> (try float_of_string s with _ -> default)
  | None -> default

(* The bench's JSON artifact path, read from [var]; [default] when
   unset or empty. *)
let json_path var ~default =
  match Sys.getenv_opt var with
  | Some p when p <> "" -> p
  | _ -> default

(* Exact minor-heap words allocated by [f] (allocation in OCaml is
   deterministic for a deterministic simulation, so a single sample is
   exact, not an estimate). *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Best-of timing, interleaved: fresh-system runs are noisy (GC, page
   cache, and `dune runtest` runs benches concurrently with other test
   binaries), so timing each variant in its own phase would let load
   drift between phases masquerade as overhead. Instead every round
   times all variants back to back — same load for all of them — and
   each variant keeps its best round. Returns the best times and the
   number of rounds run. *)
let best_ns_interleaved variants =
  List.iter (fun (_, f) -> f ()) variants;
  (* warm *)
  let k = List.length variants in
  let best = Array.make k infinity in
  let budget = float_of_int k *. budget_ns () in
  let t0 = now_ns () in
  let rounds = ref 0 in
  while now_ns () -. t0 < budget || !rounds < 8 do
    List.iteri
      (fun i (_, f) ->
         let s = now_ns () in
         f ();
         let d = now_ns () -. s in
         if d < best.(i) then best.(i) <- d)
      variants;
    incr rounds
  done;
  (best, !rounds)
