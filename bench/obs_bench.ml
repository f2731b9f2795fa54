(* Observability overhead benchmark: what a closure observer on the
   kernel's capture ([System.build ?event_hook], installed as
   [Capture.of_hook]), the flight recorder's in-memory capture, and the
   metrics registry cost on an IPC-heavy workload.

   Run with [dune exec bench/main.exe obs]. Gates:
     metrics_zero_alloc      counter/gauge/histogram updates allocate
                             nothing (minor-word delta over 100k ops)
     lazy_event_construction an unhooked run allocates no event
                             records — the hooked/unhooked minor-word
                             difference accounts for every event, so
                             with no capture installed emission really
                             is guarded, and records are only built by
                             the hook's decoder
     capture_overhead        the recorder behind every CLI event view —
                             [Flight.capture]'s in-memory journal —
                             slows the full workload by less than
                             [max_overhead_pct] wall time over the
                             unhooked run; like the journal bench's
                             recording gate it holds the in-run cost,
                             and the post-run close + decode is
                             reported beside it, not gated *)

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

let run_once ?event_hook ?journal () =
  let sys =
    System.build ?event_hook ?journal ~seed:workload_seed
      (Sysconf.uniform Policy.enhanced)
  in
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

(* The header of [run_once]'s run, which [Flight.capture] would
   record it under. *)
let capture_header =
  match
    Runspec.make_header ~seed:workload_seed ~spec:"enhanced"
      ~workload:"workgen" ()
  with
  | Ok h -> h
  | Error m -> failwith ("obs bench: " ^ m)

(* One [Flight.capture] pass split at the halt: the timed run with the
   in-memory journal attached, then close and decode, whose best time
   lands in [decode]. *)
let capture_rung decode () =
  let w = Journal.to_memory capture_header in
  let (), run_ns = time (fun () -> run_once ~journal:w ()) in
  let (), decode_ns =
    time (fun () ->
        Journal.close w;
        match Journal.read_string (Journal.contents w) with
        | Ok _ -> ()
        | Error m -> failwith ("obs bench decode: " ^ m))
  in
  if decode_ns < !decode then decode := decode_ns;
  run_ns

(* Maximum tolerated capture slowdown over the unhooked run, in
   percent; the smoke run holds the same bound. *)
let max_overhead_pct = 5.

let run cfg =
  heading "Observability substrate: hook, capture, and metrics overhead";
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
  let decode = ref infinity in
  let s =
    sample cfg [ timed (fun () -> run_once ()); capture_rung decode ]
  in
  let base_ns = best s 0 and capture_ns = best s 1 in
  let capture_pct = pct_over ~base:base_ns capture_ns in
  let capture_spread = spread_pct s ~base:0 1 in
  let decode_pct = pct_over ~base:base_ns (capture_ns +. !decode) in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  unhooked          %.2f ms\n\
    \  capture attached  %.2f ms (%+.2f%%; per-round IQR [%+.1f, %+.1f])\n\
    \  close + decode    %.2f ms after the run (whole capture %+.2f%%)\n"
    s.rounds (base_ns /. 1e6) (capture_ns /. 1e6) capture_pct
    (fst capture_spread) (snd capture_spread) (!decode /. 1e6) decode_pct;
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
             ("capture_ns", Float capture_ns);
             ("capture_overhead_pct", Float capture_pct);
             ("capture_spread_pct", spread capture_spread);
             ("capture_decode_ns", Float !decode);
             ("capture_total_overhead_pct", Float decode_pct);
             ("max_overhead_pct", Float max_overhead_pct) ]);
        exact
          [ "emission.unhooked_minor_words"; "emission.hooked_minor_words" ] ];
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
        ("capture_overhead", capture_pct < max_overhead_pct) ] }
