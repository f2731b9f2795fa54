(* Observability overhead benchmark: what a closure observer on the
   kernel's capture ([System.build ?event_hook], installed as
   [Capture.of_hook]), the tracer, and the metrics registry cost on an
   IPC-heavy workload.

   Run with [dune exec bench/main.exe obs]. Gates:
     metrics_zero_alloc      counter/gauge/histogram updates allocate
                             nothing (minor-word delta over 100k ops)
     lazy_event_construction an unhooked run allocates no event
                             records — the hooked/unhooked minor-word
                             difference accounts for every event, so
                             with no capture installed emission really
                             is guarded, and records are only built by
                             the hook's decoder
     tracer_overhead         attached-tracer wall-time overhead on the
                             full workload stays under
                             [max_overhead_pct] *)

open Harness

(* ------------------------------------------------------------------ *)
(* The measured workload: a generated mixed workload (files, ds,
   pipes, forks, execs) — every server sees traffic, thousands of
   events per run. Systems are single-use, so each sample rebuilds and
   reboots one; the build cost is identical across variants and the
   hook is installed before boot, so boot traffic is part of what the
   observers pay for.                                                  *)
(* ------------------------------------------------------------------ *)

let workload_seed = 42

let run_once ?event_hook () =
  let sys = System.build ?event_hook ~seed:workload_seed (Sysconf.uniform Policy.enhanced) in
  match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
  | Kernel.H_completed _ -> ()
  | halt -> failwith ("obs bench workload halted: " ^ Kernel.halt_to_string halt)

(* ------------------------------------------------------------------ *)

let metrics_alloc_probe () =
  let m = Metrics.create () in
  let c = Metrics.counter m "probe.counter" in
  let g = Metrics.gauge m "probe.gauge" in
  let h = Metrics.histogram m "probe.hist" in
  let ops = 100_000 in
  let storm () =
    for i = 1 to ops do
      Metrics.incr c;
      Metrics.add c i;
      Metrics.set g i;
      Histogram.observe h i
    done
  in
  storm ();
  (* warm: registration done, no growth left *)
  (ops * 4, minor_words_of storm)

let lazy_emission_probe () =
  let unhooked_words = minor_words_of (fun () -> run_once ()) in
  let events = ref 0 in
  let hooked_words =
    minor_words_of (fun () -> run_once ~event_hook:(fun _ -> incr events) ())
  in
  (unhooked_words, hooked_words, !events)

(* Maximum tolerated attached-tracer slowdown over the unhooked run,
   in percent; the smoke run holds the same bound. *)
let max_overhead_pct = 5.

let run cfg =
  heading "Observability substrate: hook, tracer, and metrics overhead";
  (* ---- allocation ---- *)
  let metric_ops, metric_words = metrics_alloc_probe () in
  Printf.printf "metrics storm: %d updates -> %.0f minor words allocated\n"
    metric_ops metric_words;
  let unhooked_words, hooked_words, events = lazy_emission_probe () in
  let words_per_event =
    (hooked_words -. unhooked_words) /. float_of_int (max 1 events)
  in
  Printf.printf
    "event emission: %d events/run; hooked run allocates %.0f more minor\n\
    \  words than unhooked (%.1f words/event) — unhooked pays for none of them\n"
    events (hooked_words -. unhooked_words) words_per_event;
  (* ---- wall time ---- *)
  let tracer = Tracer.create ~capacity:4096 () in
  let metrics = Metrics.create () in
  let collector = Obs_collector.create ~metrics () in
  let s =
    sample cfg
      [ timed (fun () -> run_once ());
        timed (fun () -> run_once ~event_hook:(Tracer.record tracer) ());
        timed (fun () ->
            Obs_collector.clear collector;
            run_once ~event_hook:(Obs_collector.record collector) ()) ]
  in
  let base_ns = best s 0 and tracer_ns = best s 1 and full_ns = best s 2 in
  let tracer_pct = pct_over ~base:base_ns tracer_ns in
  let full_pct = pct_over ~base:base_ns full_ns in
  let tracer_spread = spread_pct s ~base:0 1 in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  unhooked          %.2f ms\n\
    \  tracer attached   %.2f ms (%+.2f%%; per-round IQR [%+.1f, %+.1f])\n\
    \  collector+metrics %.2f ms (%+.2f%%)\n"
    s.rounds (base_ns /. 1e6) (tracer_ns /. 1e6) tracer_pct
    (fst tracer_spread) (snd tracer_spread) (full_ns /. 1e6) full_pct;
  { fields =
      [ ("workload_seed", Int workload_seed);
        ("metrics_storm",
         Obj [ ("ops", Int metric_ops); ("minor_words", Float metric_words) ]);
        ("emission",
         Obj
           [ ("events_per_run", Int events);
             ("unhooked_minor_words", Float unhooked_words);
             ("hooked_minor_words", Float hooked_words);
             ("words_per_event", Float words_per_event) ]);
        ("wall",
         Obj
           [ ("unhooked_ns", Float base_ns);
             ("tracer_ns", Float tracer_ns);
             ("collector_ns", Float full_ns);
             ("tracer_overhead_pct", Float tracer_pct);
             ("tracer_spread_pct", spread tracer_spread);
             ("collector_overhead_pct", Float full_pct);
             ("collector_spread_pct", spread (spread_pct s ~base:0 2));
             ("max_overhead_pct", Float max_overhead_pct) ]) ];
    gates =
      [ (* 64-word slack: Gc.minor_words itself and the loop closure may
           box a float or two; the 400k updates themselves must add
           nothing. *)
        ("metrics_zero_alloc", metric_words < 64.);
        (* A 14-variant event record averages well over 3 words; if
           emission were unconditional the hooked/unhooked difference
           would be ~0. *)
        ("lazy_event_construction",
         events > 0 && hooked_words -. unhooked_words >= 3. *. float_of_int events);
        ("tracer_overhead", tracer_pct < max_overhead_pct) ] }
