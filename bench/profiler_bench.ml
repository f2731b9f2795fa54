(* Cycle-profiler overhead benchmark: what the kernel's cycle-
   attribution hook and the [Profiler] behind it cost on an IPC-heavy
   workload, plus a conservation check of the attributed totals.

   Run with [dune exec bench/main.exe profiler]. Gates:
     hook_zero_alloc         a run with a trivial cycle hook attached
                             allocates no more minor words than an
                             unhooked run: emission sites pass only
                             immediates and slot ids, so no per-event
                             record is ever built — and the unattached
                             path does strictly less
     counter_alloc           a profiled run allocates at most the
                             per-process counter rows (one flat int
                             array per process) over an unhooked run:
                             every event is an in-place bump, nothing
                             per event
     profiler_overhead       attached-profiler wall-time overhead on
                             the full workload stays under
                             [max_overhead_pct]
     conservation            the attributed per-process totals equal
                             the kernel's own process clocks exactly *)

open Harness

(* Same workload as the obs bench: a generated mix of file, ds, pipe,
   fork and exec traffic, so every server burns cycles in several
   phases. Systems are single-use; each sample rebuilds one. *)

let workload_seed = 42

let run_sys ?profiler () =
  let sys =
    System.build ?profiler ~seed:workload_seed
      (Sysconf.uniform Policy.enhanced)
  in
  (match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
   | Kernel.H_completed _ -> ()
   | halt ->
     failwith ("profiler bench workload halted: " ^ Kernel.halt_to_string halt));
  sys

let run_once ?profiler () = ignore (run_sys ?profiler ())

(* A run with the cheapest possible hook attached: isolates what the
   emission machinery itself costs, independent of the profiler. The
   hook is installed after build (the unhooked baseline pays no hook
   at boot either, so the difference is the hooked run proper). *)
let run_trivial_hook ~events ~cycles () =
  let sys =
    System.build ~seed:workload_seed (Sysconf.uniform Policy.enhanced)
  in
  Kernel.set_cycle_hook (System.kernel sys)
    (Some
       (fun _ _ c ->
          incr events;
          cycles := !cycles + c));
  match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
  | Kernel.H_completed _ -> ()
  | halt ->
    failwith ("profiler bench workload halted: " ^ Kernel.halt_to_string halt)

(* Maximum tolerated attached-profiler slowdown over the unattached
   run, in percent. The allocation and conservation gates are exact at
   any budget; this one is relaxed in the smoke run because runtest
   executes it beside the rest of the suite. *)
let max_overhead_pct = { strict = 3.; smoke = 25. }

let run cfg =
  heading "Cycle profiler: attribution-hook cost and conservation";
  (* ---- allocation ---- *)
  let unhooked_words = minor_words_of (fun () -> run_once ()) in
  let events = ref 0 and hook_cycles = ref 0 in
  let trivial_words =
    minor_words_of (fun () -> run_trivial_hook ~events ~cycles:hook_cycles ())
  in
  let events = !events in
  let hook_delta = trivial_words -. unhooked_words in
  Printf.printf
    "event emission: %d cycle events/run; trivial-hooked run allocates %.0f\n\
    \  more minor words than unhooked (%.4f words/event)\n"
    events hook_delta (hook_delta /. float_of_int (max 1 events));
  (* A profiled run's only extra allocation is the per-process counter
     rows (one int array of 2 * n_slots per process, allocated when
     counting is enabled and at each spawn); every event afterwards is
     an in-place bump. This run doubles as the conservation check. *)
  let cons_prof = Profiler.create () in
  let cons_sys_r = ref None in
  let counted_words =
    minor_words_of (fun () -> cons_sys_r := Some (run_sys ~profiler:cons_prof ()))
  in
  let cons_sys = Option.get !cons_sys_r in
  let counter_delta = counted_words -. unhooked_words in
  let n_procs = Kernel.profiled_procs (System.kernel cons_sys) in
  (* One array header word plus 2 * n_slots payload words per row. *)
  let row_words = n_procs * ((2 * Kernel.n_slots) + 1) in
  Printf.printf
    "counter rows: profiled run allocates %.0f minor words over unhooked\n\
    \  (%d processes x %d-slot rows = %d words; %.4f words/event)\n"
    counter_delta n_procs Kernel.n_slots row_words
    (counter_delta /. float_of_int (max 1 events));
  (* ---- conservation ---- *)
  let conservation = Profiler.check_conservation cons_prof (System.kernel cons_sys) in
  (match conservation with
   | Ok () ->
     Printf.printf
       "conservation: ok (%d cycles attributed over %d records)\n"
       (Profiler.total_cycles cons_prof) (Profiler.n_records cons_prof)
   | Error msg -> Printf.printf "conservation: VIOLATED: %s\n" msg);
  (* ---- wall time ---- *)
  let wall_prof = Profiler.create () in
  run_once ~profiler:wall_prof ();
  (* warm the tables before timing *)
  let wall_events = ref 0 and wall_cycles = ref 0 in
  let s =
    sample cfg
      [ timed (fun () -> run_once ());
        timed (run_trivial_hook ~events:wall_events ~cycles:wall_cycles);
        timed (fun () -> run_once ~profiler:wall_prof ()) ]
  in
  let base_ns = best s 0 and trivial_ns = best s 1 and prof_ns = best s 2 in
  let trivial_pct = pct_over ~base:base_ns trivial_ns in
  let overhead_pct = pct_over ~base:base_ns prof_ns in
  let overhead_spread = spread_pct s ~base:0 2 in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  unattached        %.2f ms\n\
    \  trivial hook      %.2f ms (%+.2f%%)\n\
    \  profiler attached %.2f ms (%+.2f%%; per-round IQR [%+.1f, %+.1f])\n"
    s.rounds (base_ns /. 1e6) (trivial_ns /. 1e6) trivial_pct (prof_ns /. 1e6)
    overhead_pct (fst overhead_spread) (snd overhead_spread);
  let threshold = limit cfg max_overhead_pct in
  let conservation_ok = conservation = Ok () in
  let per_event w = Float (w /. float_of_int (max 1 events)) in
  { fields =
      [ ("workload_seed", Int workload_seed);
        ("emission",
         Obj
           [ ("events_per_run", Int events);
             ("unhooked_minor_words", Float unhooked_words);
             ("trivial_hook_minor_words", Float trivial_words);
             ("hook_words_per_event", per_event hook_delta) ]);
        ("counters",
         Obj
           [ ("profiled_minor_words_over_unhooked", Float counter_delta);
             ("profiled_procs", Int n_procs);
             ("row_words", Int row_words);
             ("words_per_event", per_event counter_delta) ]);
        ("conservation",
         Obj
           [ ("ok", Bool conservation_ok);
             ("attributed_cycles", Int (Profiler.total_cycles cons_prof));
             ("records", Int (Profiler.n_records cons_prof)) ]);
        ("wall",
         Obj
           [ ("unattached_ns", Float base_ns);
             ("trivial_hook_ns", Float trivial_ns);
             ("attached_ns", Float prof_ns);
             ("trivial_overhead_pct", Float trivial_pct);
             ("trivial_spread_pct", spread (spread_pct s ~base:0 1));
             ("overhead_pct", Float overhead_pct);
             ("overhead_spread_pct", spread overhead_spread);
             ("max_overhead_pct", Float threshold) ]);
        exact
          [ "emission.unhooked_minor_words";
            "emission.trivial_hook_minor_words";
            "counters.profiled_minor_words_over_unhooked" ] ];
    gates =
      [ (* 64-word slack: Gc.minor_words itself and the measuring
           closures may box a float or two; the events themselves must
           add nothing. *)
        ("hook_zero_alloc", events > 10_000 && hook_delta < 64.);
        ("counter_alloc", counter_delta <= float_of_int row_words +. 256.);
        ("profiler_overhead", overhead_pct < threshold);
        ("conservation", conservation_ok) ] }
