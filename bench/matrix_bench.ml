(* Policy-matrix benchmark: what the compartment layer costs.

   Per-compartment policy resolution happens once, at boot — after
   that every kernel fast-path decision reads the policy pinned in the
   process record, exactly as the old global-policy code read the
   single configuration field. This benchmark holds the layer to that
   claim on the quickstart workload, comparing a uniform spec against
   an explicit-compartment spec that resolves every server
   individually (same policy, plus restart budgets that never fire).

   Run with [dune exec bench/main.exe matrix]. Gates:
     matrix_same_trajectory   uniform and explicit-compartment runs of
                              the same policy are indistinguishable in
                              simulation: same halt, same virtual
                              cycles, same diagnostic stream
     matrix_deterministic     a genuinely mixed spec replays bit-
                              identically under a fixed seed
     matrix_overhead          explicit-compartment wall time stays
                              within [max_overhead_pct] of the uniform
                              path *)

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

(* Maximum tolerated wall-time overhead of the explicit-compartment
   run over the uniform run, in percent; the smoke run holds the same
   bound. *)
let max_overhead_pct = 2.

(* The gate is tight and a quickstart run lasts only ~10 ms, so a
   single GC pause inside a sample is worth several percent; many
   single-run samples give the best-of a clean, pause-free run of each
   variant, where batched samples would smear pauses across every
   sample. *)
let min_rounds = 40

let run cfg =
  heading "Compartment layer: per-compartment resolution vs the uniform path";
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
  let s =
    sample cfg ~min_rounds
      [ timed (fun () -> ignore (run_quickstart uniform_spec));
        timed (fun () -> ignore (run_quickstart explicit_spec)) ]
  in
  let uniform_ns = best s 0 and explicit_ns = best s 1 in
  let overhead_pct = pct_over ~base:uniform_ns explicit_ns in
  let overhead_spread = spread_pct s ~base:0 1 in
  Printf.printf
    "quickstart wall time (best of %d interleaved rounds):\n\
    \  uniform spec            %.2f ms\n\
    \  explicit compartments   %.2f ms (%+.2f%%; per-round IQR [%+.1f, %+.1f])\n"
    s.rounds (uniform_ns /. 1e6) (explicit_ns /. 1e6) overhead_pct
    (fst overhead_spread) (snd overhead_spread);
  { fields =
      [ ("workload_seed", Int workload_seed);
        ("rounds", Int s.rounds);
        ("trajectory",
         Obj
           [ ("uniform_cycles", Int u_now);
             ("explicit_cycles", Int e_now);
             ("log_lines", Int (List.length u_log));
             ("identical", Bool same_trajectory) ]);
        ("mixed_spec",
         Obj
           [ ("name", Str (Sysconf.name mixed));
             ("deterministic", Bool deterministic) ]);
        ("wall",
         Obj
           [ ("uniform_ns", Float uniform_ns);
             ("explicit_ns", Float explicit_ns);
             ("overhead_pct", Float overhead_pct);
             ("overhead_spread_pct", spread overhead_spread);
             ("max_overhead_pct", Float max_overhead_pct) ]) ];
    gates =
      [ ("matrix_same_trajectory", same_trajectory);
        ("matrix_deterministic", deterministic);
        ("matrix_overhead", overhead_pct < max_overhead_pct) ] }
