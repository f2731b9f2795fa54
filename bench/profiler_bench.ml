(* Cycle-profiler overhead benchmark: what the kernel's cycle-
   attribution hook and the [Profiler] behind it cost on an IPC-heavy
   workload, plus a conservation check of the attributed totals.

   Run with [dune exec bench/main.exe profiler]. Emits a JSON report
   (path from OSIRIS_PROFILER_BENCH_JSON, default BENCH_profiler.json)
   and exits non-zero when a gate fails, so a small-budget run doubles
   as a CI smoke test:

     OSIRIS_BENCH_MS              per-variant wall budget in ms (default 200)
     OSIRIS_PROFILER_BENCH_JSON   output path (default BENCH_profiler.json)
     OSIRIS_PROFILER_MAX_OVERHEAD_PCT
                                  maximum tolerated attached-profiler
                                  slowdown over the unattached run, in
                                  percent (default 3)

   Gates:
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
                             the full workload stays under the gate
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

let json_bool b = if b then "true" else "false"

let run () =
  Printf.printf
    "\n================================================================\n\
     Cycle profiler: attribution-hook cost and conservation\n\
     ================================================================\n";
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
  let best, rounds =
    best_ns_interleaved
      [ ("unattached", fun () -> run_once ());
        ("trivial",
         fun () -> run_trivial_hook ~events:wall_events ~cycles:wall_cycles ());
        ("attached", fun () -> run_once ~profiler:wall_prof ()) ]
  in
  let base_ns = best.(0) and trivial_ns = best.(1) and prof_ns = best.(2) in
  let pct over = 100. *. (over -. base_ns) /. base_ns in
  let trivial_pct = pct trivial_ns and overhead_pct = pct prof_ns in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  unattached        %.2f ms\n\
    \  trivial hook      %.2f ms (%+.2f%%)\n\
    \  profiler attached %.2f ms (%+.2f%%)\n"
    rounds (base_ns /. 1e6) (trivial_ns /. 1e6) trivial_pct (prof_ns /. 1e6)
    overhead_pct;
  (* ---- gates ---- *)
  let threshold = env_float "OSIRIS_PROFILER_MAX_OVERHEAD_PCT" ~default:3. in
  (* 64-word slack: Gc.minor_words itself and the measuring closures
     may box a float or two; the events themselves must add nothing. *)
  let hook_ok = events > 10_000 && hook_delta < 64. in
  let counter_ok = counter_delta <= float_of_int row_words +. 256. in
  let overhead_ok = overhead_pct < threshold in
  let conservation_ok = conservation = Ok () in
  let gates =
    [ ("hook_zero_alloc", hook_ok);
      ("counter_alloc", counter_ok);
      ("profiler_overhead", overhead_ok);
      ("conservation", conservation_ok) ]
  in
  (* ---- JSON report ---- *)
  let buf = Buffer.create 1024 in
  let f = Printf.bprintf in
  f buf "{\n";
  f buf "  \"bench\": \"profiler\",\n";
  f buf "  \"budget_ms\": %.0f,\n" (budget_ns () /. 1e6);
  f buf "  \"workload_seed\": %d,\n" workload_seed;
  f buf
    "  \"emission\": {\"events_per_run\": %d, \"unhooked_minor_words\": %.0f,\n\
    \    \"trivial_hook_minor_words\": %.0f, \"hook_words_per_event\": %.4f},\n"
    events unhooked_words trivial_words
    (hook_delta /. float_of_int (max 1 events));
  f buf
    "  \"counters\": {\"profiled_minor_words_over_unhooked\": %.0f,\n\
    \    \"profiled_procs\": %d, \"row_words\": %d, \"words_per_event\": %.4f},\n"
    counter_delta n_procs row_words
    (counter_delta /. float_of_int (max 1 events));
  f buf
    "  \"conservation\": {\"ok\": %s, \"attributed_cycles\": %d, \"records\": %d},\n"
    (json_bool conservation_ok)
    (Profiler.total_cycles cons_prof)
    (Profiler.n_records cons_prof);
  f buf
    "  \"wall\": {\"unattached_ns\": %.0f, \"trivial_hook_ns\": %.0f,\n\
    \    \"attached_ns\": %.0f, \"trivial_overhead_pct\": %.3f,\n\
    \    \"overhead_pct\": %.3f, \"max_overhead_pct\": %.1f},\n"
    base_ns trivial_ns prof_ns trivial_pct overhead_pct threshold;
  f buf "  \"gates\": {%s}\n"
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "\"%s\": %s" n (json_bool ok))
          gates));
  f buf "}\n";
  let path = json_path "OSIRIS_PROFILER_BENCH_JSON" ~default:"BENCH_profiler.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  if failed <> [] then begin
    List.iter
      (fun (n, _) -> Printf.eprintf "profiler bench: gate FAILED: %s\n" n)
      failed;
    exit 1
  end
  else Printf.printf "all %d gates passed\n" (List.length gates)
