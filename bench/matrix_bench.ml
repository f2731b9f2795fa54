(* Policy-matrix benchmark: what the compartment layer costs.

   Per-compartment policy resolution happens once, at boot — after
   that every kernel fast-path decision reads the policy pinned in the
   process record, exactly as the old global-policy code read the
   single configuration field. This benchmark holds the layer to that
   claim on the quickstart workload, comparing a uniform spec against
   an explicit-compartment spec that resolves every server
   individually (same policy, plus restart budgets that never fire).

   Run with [dune exec bench/main.exe matrix]. Emits a JSON report
   (path from OSIRIS_MATRIX_BENCH_JSON, default BENCH_matrix.json) and
   exits non-zero when a gate fails:

     OSIRIS_BENCH_MS              per-variant wall budget in ms (default 200)
     OSIRIS_MATRIX_BENCH_JSON     output path (default BENCH_matrix.json)
     OSIRIS_MATRIX_MAX_OVERHEAD_PCT
                                  maximum tolerated wall-time overhead of
                                  the explicit-compartment run over the
                                  uniform run, in percent (default 2)

   Gates:
     matrix_same_trajectory   uniform and explicit-compartment runs of
                              the same policy are indistinguishable in
                              simulation: same halt, same virtual
                              cycles, same diagnostic stream
     matrix_deterministic     a genuinely mixed spec replays bit-
                              identically under a fixed seed
     matrix_overhead          explicit-compartment wall time stays
                              within the gate of the uniform path *)

open Harness

let workload_seed = 42

(* The two specs under comparison: the same policy everywhere, spelled
   two ways. [explicit] routes every server through its own
   compartment (with an untriggered restart budget), so boot performs
   seven real resolutions and RS holds per-endpoint closures. *)
let uniform_spec = Sysconf.uniform Policy.enhanced

let explicit_spec =
  Sysconf.make ~default:Policy.enhanced
    (List.map
       (fun ep -> Compartment.make ~budget:8 ep Policy.enhanced)
       Sysconf.server_eps)

let run_quickstart conf =
  let sys = System.build ~seed:workload_seed conf in
  let halt = System.run sys ~root:Workgen.quickstart in
  (halt, Kernel.now (System.kernel sys), System.log_lines sys)

(* Best-of timing, interleaved (see obs_bench for the rationale): each
   round times every variant back to back so load drift cannot
   masquerade as overhead, and each variant keeps its best round. The
   gate is tight (2%) and a quickstart run lasts only ~10 ms, so a
   single GC pause inside a sample is worth several percent; many
   single-run samples give the best-of a clean, pause-free run of each
   variant, where batched samples would smear pauses across every
   sample. *)
let best_ns_interleaved variants =
  List.iter (fun (_, f) -> f ()) variants;
  (* warm *)
  let k = List.length variants in
  let best = Array.make k infinity in
  let budget = float_of_int k *. budget_ns () in
  let t0 = now_ns () in
  let rounds = ref 0 in
  while now_ns () -. t0 < budget || !rounds < 40 do
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

let json_bool b = if b then "true" else "false"

let run () =
  Printf.printf
    "\n================================================================\n\
     Compartment layer: per-compartment resolution vs the uniform path\n\
     ================================================================\n";
  (* ---- simulated trajectory ---- *)
  let u_halt, u_now, u_log = run_quickstart uniform_spec in
  let e_halt, e_now, e_log = run_quickstart explicit_spec in
  let same_trajectory = u_halt = e_halt && u_now = e_now && u_log = e_log in
  Printf.printf
    "trajectory: uniform %s @ %d cycles, explicit-compartments %s @ %d cycles\n\
    \  diagnostic streams %s (%d lines)\n"
    (Kernel.halt_to_string u_halt)
    u_now
    (Kernel.halt_to_string e_halt)
    e_now
    (if u_log = e_log then "identical" else "DIVERGED")
    (List.length u_log);
  (* ---- mixed-spec determinism ---- *)
  let mixed =
    Sysconf.with_budget
      (Sysconf.assign
         (Sysconf.assign uniform_spec Endpoint.ds Policy.stateless)
         Endpoint.vm Policy.pessimistic)
      Endpoint.ds 4
  in
  let m1_halt, m1_now, m1_log = run_quickstart mixed in
  let m2_halt, m2_now, m2_log = run_quickstart mixed in
  let deterministic = m1_halt = m2_halt && m1_now = m2_now && m1_log = m2_log in
  Printf.printf "mixed spec %s: %s @ %d cycles, replay %s\n"
    (Sysconf.name mixed)
    (Kernel.halt_to_string m1_halt)
    m1_now
    (if deterministic then "identical" else "DIVERGED");
  (* ---- wall time ---- *)
  let best, rounds =
    best_ns_interleaved
      [ ("uniform", fun () -> ignore (run_quickstart uniform_spec));
        ("explicit", fun () -> ignore (run_quickstart explicit_spec)) ]
  in
  let uniform_ns = best.(0) and explicit_ns = best.(1) in
  let overhead_pct = 100. *. (explicit_ns -. uniform_ns) /. uniform_ns in
  Printf.printf
    "quickstart wall time (best of %d interleaved rounds):\n\
    \  uniform spec            %.2f ms\n\
    \  explicit compartments   %.2f ms (%+.2f%%)\n"
    rounds (uniform_ns /. 1e6) (explicit_ns /. 1e6) overhead_pct;
  (* ---- gates ---- *)
  let threshold = env_float "OSIRIS_MATRIX_MAX_OVERHEAD_PCT" ~default:2. in
  let overhead_ok = overhead_pct < threshold in
  let gates =
    [ ("matrix_same_trajectory", same_trajectory);
      ("matrix_deterministic", deterministic);
      ("matrix_overhead", overhead_ok) ]
  in
  (* ---- JSON report ---- *)
  let buf = Buffer.create 1024 in
  let f = Printf.bprintf in
  f buf "{\n";
  f buf "  \"bench\": \"matrix\",\n";
  f buf "  \"budget_ms\": %.0f,\n" (budget_ns () /. 1e6);
  f buf "  \"workload_seed\": %d,\n" workload_seed;
  f buf "  \"rounds\": %d,\n" rounds;
  f buf
    "  \"trajectory\": {\"uniform_cycles\": %d, \"explicit_cycles\": %d,\n\
    \    \"log_lines\": %d, \"identical\": %s},\n"
    u_now e_now (List.length u_log)
    (json_bool same_trajectory);
  f buf "  \"mixed_spec\": {\"name\": \"%s\", \"deterministic\": %s},\n"
    (Sysconf.name mixed) (json_bool deterministic);
  f buf
    "  \"wall\": {\"uniform_ns\": %.0f, \"explicit_ns\": %.0f,\n\
    \    \"overhead_pct\": %.3f, \"max_overhead_pct\": %.1f},\n"
    uniform_ns explicit_ns overhead_pct threshold;
  f buf "  \"gates\": {%s}\n"
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "\"%s\": %s" n (json_bool ok))
          gates));
  f buf "}\n";
  let path = json_path "OSIRIS_MATRIX_BENCH_JSON" ~default:"BENCH_matrix.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  if failed <> [] then begin
    List.iter
      (fun (n, _) -> Printf.eprintf "matrix bench: gate FAILED: %s\n" n)
      failed;
    exit 1
  end
  else Printf.printf "all %d gates passed\n" (List.length gates)
