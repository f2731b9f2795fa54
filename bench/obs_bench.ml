(* Observability overhead benchmark: what a closure observer on the
   kernel's capture ([System.build ?event_hook], installed as
   [Capture.of_hook]), the tracer, and the metrics registry cost on an
   IPC-heavy workload.

   Run with [dune exec bench/main.exe obs]. Emits a JSON report (path
   from OSIRIS_OBS_BENCH_JSON, default BENCH_obs.json — a separate
   variable so a combined run does not clobber the checkpoint report)
   and exits non-zero when a gate fails, so a small-budget run doubles
   as a CI smoke test:

     OSIRIS_BENCH_MS            per-variant wall budget in ms (default 200)
     OSIRIS_OBS_BENCH_JSON      output path (default BENCH_obs.json)
     OSIRIS_OBS_MAX_OVERHEAD_PCT
                                maximum tolerated attached-tracer
                                slowdown over the unhooked run, in
                                percent (default 5)

   Gates:
     metrics_zero_alloc      counter/gauge/histogram updates allocate
                             nothing (minor-word delta over 100k ops)
     lazy_event_construction an unhooked run allocates no event
                             records — the hooked/unhooked minor-word
                             difference accounts for every event, so
                             with no capture installed emission really
                             is guarded, and records are only built by
                             the hook's decoder
     tracer_overhead         attached-tracer wall-time overhead on the
                             full workload stays under the gate *)

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

let json_bool b = if b then "true" else "false"

let run () =
  Printf.printf
    "\n================================================================\n\
     Observability substrate: hook, tracer, and metrics overhead\n\
     ================================================================\n";
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
  let best, rounds =
    best_ns_interleaved
      [ ("unhooked", fun () -> run_once ());
        ("tracer",
         fun () -> run_once ~event_hook:(Tracer.record tracer) ());
        ("collector",
         fun () ->
           Obs_collector.clear collector;
           run_once ~event_hook:(Obs_collector.record collector) ()) ]
  in
  let base_ns = best.(0) and tracer_ns = best.(1) and full_ns = best.(2) in
  let pct over base = 100. *. (over -. base) /. base in
  let tracer_pct = pct tracer_ns base_ns in
  let full_pct = pct full_ns base_ns in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  unhooked          %.2f ms\n\
    \  tracer attached   %.2f ms (%+.2f%%)\n\
    \  collector+metrics %.2f ms (%+.2f%%)\n"
    rounds (base_ns /. 1e6) (tracer_ns /. 1e6) tracer_pct (full_ns /. 1e6)
    full_pct;
  (* ---- gates ---- *)
  let threshold = env_float "OSIRIS_OBS_MAX_OVERHEAD_PCT" ~default:5. in
  (* 64-word slack: Gc.minor_words itself and the loop closure may box
     a float or two; the 400k updates themselves must add nothing. *)
  let metrics_ok = metric_words < 64. in
  (* A 13-variant event record averages well over 3 words; if emission
     were unconditional the hooked/unhooked difference would be ~0. *)
  let lazy_ok =
    events > 0 && hooked_words -. unhooked_words >= 3. *. float_of_int events
  in
  let overhead_ok = tracer_pct < threshold in
  let gates =
    [ ("metrics_zero_alloc", metrics_ok);
      ("lazy_event_construction", lazy_ok);
      ("tracer_overhead", overhead_ok) ]
  in
  (* ---- JSON report ---- *)
  let buf = Buffer.create 1024 in
  let f = Printf.bprintf in
  f buf "{\n";
  f buf "  \"bench\": \"obs\",\n";
  f buf "  \"budget_ms\": %.0f,\n" (budget_ns () /. 1e6);
  f buf "  \"workload_seed\": %d,\n" workload_seed;
  f buf "  \"metrics_storm\": {\"ops\": %d, \"minor_words\": %.0f},\n"
    metric_ops metric_words;
  f buf
    "  \"emission\": {\"events_per_run\": %d, \"unhooked_minor_words\": %.0f,\n\
    \    \"hooked_minor_words\": %.0f, \"words_per_event\": %.2f},\n"
    events unhooked_words hooked_words words_per_event;
  f buf
    "  \"wall\": {\"unhooked_ns\": %.0f, \"tracer_ns\": %.0f, \"collector_ns\": %.0f,\n\
    \    \"tracer_overhead_pct\": %.3f, \"collector_overhead_pct\": %.3f,\n\
    \    \"max_overhead_pct\": %.1f},\n"
    base_ns tracer_ns full_ns tracer_pct full_pct threshold;
  f buf "  \"gates\": {%s}\n"
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "\"%s\": %s" n (json_bool ok))
          gates));
  f buf "}\n";
  let path = json_path "OSIRIS_OBS_BENCH_JSON" ~default:"BENCH_obs.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  if failed <> [] then begin
    List.iter
      (fun (n, _) -> Printf.eprintf "obs bench: gate FAILED: %s\n" n)
      failed;
    exit 1
  end
  else Printf.printf "all %d gates passed\n" (List.length gates)
