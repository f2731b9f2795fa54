(* Flight-recorder benchmark: what journaling the full event stream
   costs, and whether the codec holds its promises.

   Run with [dune exec bench/main.exe journal]. Gates:
     encode_zero_alloc   steady-state event capture+encode to a file
                         sink allocates nothing (minor-word delta over
                         130k writes)
     recording_overhead  in-run wall-time overhead of an attached
                         recorder (vs the same run unhooked) stays
                         under [max_overhead_pct]; the close-time
                         encode+flush sweep is reported separately as
                         finalize
     round_trip          decode(encode(stream)) is structurally equal
                         to the hooked stream, header included; and
                         [Flight.capture]'s decoded array on crashy
                         quickstart equals that run's hooked stream
     bytes_per_event     on-disk framing stays compact (< 24 bytes per
                         event averaged over a crashy mixed workload) *)

open Harness

let workload_seed = 42

let header ~workload ~crash =
  match Runspec.make_header ~seed:workload_seed ~workload ~crash () with
  | Ok h -> h
  | Error m -> failwith ("journal bench: " ^ m)

(* Wall-time rungs run two workloads. The gate holds on the generated
   mixed workload (workgen) — the same standard the capture's 5% gate
   in obs_bench is held to. The regression-suite driver is reported
   alongside as a stress figure: at ~28k events over ~20ms it is the
   densest event stream the simulator can produce (~1.4 events/us —
   every operation is an interpreted IPC), several times denser than
   any evaluation workload, so it prices the recorder's per-event cost
   rather than its overhead on a representative run. *)
let run_once ?event_hook ?journal ~root () =
  let sys =
    System.build ?event_hook ?journal ~seed:workload_seed
      (Sysconf.uniform Policy.enhanced)
  in
  match System.run sys ~root with
  | Kernel.H_completed _ -> ()
  | halt ->
    failwith ("journal bench workload halted: " ^ Kernel.halt_to_string halt)

(* ------------------------------------------------------------------ *)

(* One synthetic event per constructor — every encoder path is in the
   storm, including the string-carrying ones. *)
let sample_events =
  [ Kernel.E_msg
      { time = 1_000_000; src = Endpoint.pm; dst = Endpoint.vfs;
        tag = Message.Tag.T_open; call = true; rid = 7; parent = 3;
        cls = Seep.State_modifying };
    Kernel.E_reply
      { time = 1_000_010; src = Endpoint.vfs; dst = Endpoint.pm;
        tag = Message.Tag.T_open; rid = 7 };
    Kernel.E_window_open { time = 2; ep = Endpoint.ds; rid = 9 };
    Kernel.E_window_close { time = 3; ep = Endpoint.ds; rid = 9; policy = false };
    Kernel.E_checkpoint { time = 4; ep = Endpoint.vm; rid = 11; cycles = 900 };
    Kernel.E_store_logged { time = 5; ep = Endpoint.vm; rid = 11; bytes = 64 };
    Kernel.E_kcall { time = 6; ep = Endpoint.rs; rid = 12; kc = "mk_clone" };
    Kernel.E_crash
      { time = 7; ep = Endpoint.ds; reason = "injected"; window_open = true;
        rid = 13; policy = "enhanced" };
    Kernel.E_hang_detected { time = 8; ep = Endpoint.vm };
    Kernel.E_rollback_begin { time = 9; ep = Endpoint.ds; rid = 13 };
    Kernel.E_rollback_end { time = 10; ep = Endpoint.ds; rid = 13; bytes = 56 };
    Kernel.E_restart { time = 11; ep = Endpoint.ds; rid = 13; policy = "enhanced" };
    Kernel.E_halt { time = 12; halt = Kernel.H_completed 0 } ]

let encode_alloc_probe cfg =
  let path = Filename.temp_file "osiris_journal" ".bin" in
  let w = Journal.to_file ~path (header ~workload:"suite" ~crash:"none") in
  let reps = 10_000 in
  (* Pre-bound so the loop body itself allocates nothing (a per-rep
     [List.iter (Journal.write w)] would box a closure every rep). *)
  let write_ev ev = Journal.write w ev in
  let storm () =
    for _ = 1 to reps do
      List.iter write_ev sample_events
    done
  in
  storm ();
  (* warm: scratch grown to its steady size *)
  let words = minor_words_of storm in
  let s = sample cfg ~budget_scale:0. ~min_rounds:5 [ timed storm ] in
  Journal.close w;
  Sys.remove path;
  let n = reps * List.length sample_events in
  (n, words, best s 0 /. float_of_int n)

(* The kernel has one capture, so the hooked stream to compare against
   comes from a second run of the same deterministic workload. *)
let round_trip_probe () =
  let h = header ~workload:"workgen" ~crash:"ds" in
  let spec =
    match Runspec.of_header h with
    | Ok spec -> spec
    | Error m -> failwith ("journal bench: " ^ m)
  in
  let crashy_run ?journal ?event_hook () =
    match snd (Runspec.run ?journal ?event_hook spec) with
    | Kernel.H_completed _ -> ()
    | halt -> failwith ("round trip halted: " ^ Kernel.halt_to_string halt)
  in
  let w = Journal.to_memory h in
  crashy_run ~journal:w ();
  Journal.close w;
  let seen = ref [] in
  crashy_run ~event_hook:(fun ev -> seen := ev :: !seen) ();
  let recorded = Array.of_list (List.rev !seen) in
  let bytes = Journal.bytes_written w in
  let records = Journal.records_written w in
  (* The CLI's event views read [Flight.capture]'s decoded array. *)
  let quick = header ~workload:"quickstart" ~crash:"ds" in
  let live = ref [] in
  ignore (Runspec.exec quick ~hook:(fun ev -> live := ev :: !live));
  let captured =
    match Flight.capture quick with
    | Ok c -> c.Flight.cap_events = Array.of_list (List.rev !live)
    | Error m -> failwith ("round trip capture failed: " ^ m)
  in
  match Journal.read_string (Journal.contents w) with
  | Error m -> failwith ("round trip decode failed: " ^ m)
  | Ok (h', decoded) ->
    (h = h' && decoded = recorded && captured, records, bytes)

(* Maximum tolerated attached-recorder slowdown over the unhooked run,
   in percent. The allocation, round-trip and framing gates are exact
   at any budget; this one is relaxed in the smoke run because runtest
   executes it beside the rest of the suite. *)
let max_overhead_pct = { strict = 5.; smoke = 25. }

let run cfg =
  heading "Flight recorder: journal encode cost, overhead, and fidelity";
  (* ---- allocation ---- *)
  let encode_ops, encode_words, encode_ns = encode_alloc_probe cfg in
  Printf.printf
    "encode storm: %d events -> %.0f minor words allocated, %.0f ns/event\n"
    encode_ops encode_words encode_ns;
  (* ---- fidelity / compactness ---- *)
  let fidelity_ok, rt_records, rt_bytes = round_trip_probe () in
  let bytes_per_event = float_of_int rt_bytes /. float_of_int (max 1 rt_records) in
  Printf.printf
    "round trip: %d records, %d bytes (%.1f bytes/event) — decode %s\n"
    rt_records rt_bytes bytes_per_event
    (if fidelity_ok then "identical" else "MISMATCH");
  (* ---- wall time ---- *)
  let path = Filename.temp_file "osiris_journal" ".bin" in
  (* Headers built once outside the timed region: resolving one runs
     the workload generator, which is not part of recording overhead. *)
  let h_wg = header ~workload:"workgen" ~crash:"none" in
  let h_suite = header ~workload:"suite" ~crash:"none" in
  (* Rungs, all interleaved in one round-robin: unhooked (no events
     observed at all), a no-op event hook (events constructed and
     dispatched, written nowhere — the observability substrate's cost,
     reported for context and gated by obs_bench), and the recorder.
     A recorder rung times the run with the journal attached — the
     writer captures raw scalars per event and defers varint encoding,
     CRCs and the file flush to [Journal.close], measured separately
     as "finalize". The gate holds the in-run slowdown (recording vs
     unhooked, workgen workload) under the bound: that is what
     recording costs while the system is live. Finalize is a one-time
     post-run cost (like writing out a core dump), reported but not
     gated; the suite-driver pair prices the worst case and is
     likewise reported, not gated. *)
  let fin_wg = ref infinity and fin_suite = ref infinity in
  (* Generated once, shared by every rung and round: programs are pure
     values, and generation time is not recording overhead. Scaled to
     5x the default action count so the rung runs long enough (~13 ms)
     that per-run jitter cannot swamp a sub-5% effect. *)
  let wg_prog =
    Workgen.generate
      ~spec:{ Workgen.g_actions = 60; g_fork_depth = 2 }
      ~seed:workload_seed ()
  in
  let recording_rung h root fin () =
    let w = Journal.to_file ~path h in
    let (), d = time (fun () -> run_once ~journal:w ~root ()) in
    let (), f = time (fun () -> Journal.close w) in
    if f < !fin then fin := f;
    d
  in
  let s =
    sample cfg
      [ timed (fun () -> run_once ~root:wg_prog ());
        timed (fun () -> run_once ~event_hook:ignore ~root:wg_prog ());
        recording_rung h_wg wg_prog fin_wg;
        timed (fun () -> run_once ~root:Testsuite.driver ());
        recording_rung h_suite Testsuite.driver fin_suite ]
  in
  Sys.remove path;
  let base_ns = best s 0 and hook_ns = best s 1 and journal_ns = best s 2 in
  let sbase_ns = best s 3 and sjournal_ns = best s 4 in
  let raw_pct = pct_over ~base:base_ns journal_ns in
  let marginal_pct = pct_over ~base:hook_ns journal_ns in
  let stress_pct = pct_over ~base:sbase_ns sjournal_ns in
  let overhead_spread = spread_pct s ~base:0 2 in
  (* ~28k events in the suite run: per-event in-run capture cost. *)
  let stress_ns_per_event = (sjournal_ns -. sbase_ns) /. 28_000. in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  workgen unhooked           %.2f ms\n\
    \  workgen no-op hook         %.2f ms (%+.2f%% construction+dispatch)\n\
    \  workgen recording attached %.2f ms (%+.2f%% vs unhooked) <- gate\n\
    \    per-round IQR [%+.1f, %+.1f]\n\
    \  workgen finalize (close)   %.2f ms encode+flush sweep after the run\n\
     stress (IPC-dense suite driver, ~1.4 events/us — reported, not gated):\n\
    \  unhooked %.2f ms, recording %.2f ms (%+.2f%%, ~%.0f ns/event\n\
    \  in-run capture), finalize %.2f ms\n"
    s.rounds (base_ns /. 1e6) (hook_ns /. 1e6)
    (pct_over ~base:base_ns hook_ns)
    (journal_ns /. 1e6) raw_pct (fst overhead_spread) (snd overhead_spread)
    (!fin_wg /. 1e6)
    (sbase_ns /. 1e6) (sjournal_ns /. 1e6) stress_pct stress_ns_per_event
    (!fin_suite /. 1e6);
  let threshold = limit cfg max_overhead_pct in
  { fields =
      [ ("workload_seed", Int workload_seed);
        ("encode_storm",
         Obj [ ("events", Int encode_ops); ("minor_words", Float encode_words) ]);
        ("journal",
         Obj
           [ ("records", Int rt_records);
             ("bytes", Int rt_bytes);
             ("bytes_per_event", Float bytes_per_event);
             ("bytes_per_1M_events", Float (bytes_per_event *. 1e6)) ]);
        ("wall",
         Obj
           [ ("unhooked_ns", Float base_ns);
             ("hook_ns", Float hook_ns);
             ("journal_ns", Float journal_ns);
             ("finalize_ns", Float !fin_wg);
             ("overhead_pct", Float raw_pct);
             ("overhead_spread_pct", spread overhead_spread);
             ("overhead_vs_hook_pct", Float marginal_pct);
             ("overhead_vs_hook_spread_pct", spread (spread_pct s ~base:1 2));
             ("max_overhead_pct", Float threshold) ]);
        ("stress",
         Obj
           [ ("unhooked_ns", Float sbase_ns);
             ("journal_ns", Float sjournal_ns);
             ("finalize_ns", Float !fin_suite);
             ("overhead_pct", Float stress_pct);
             ("overhead_spread_pct", spread (spread_pct s ~base:3 4));
             ("ns_per_event", Float stress_ns_per_event) ]);
        (* The stress overhead (~11% on the reference host) is an
           un-gated trend figure from a wall-clock ratio on the densest
           event stream we can produce — inherently noisy run to run.
           A wide per-path tolerance lets bench_diff surface only real
           regressions instead of flapping on every host wobble. *)
        ("tolerances", Obj [ ("stress.overhead_pct", Float 50.) ]) ];
    gates =
      [ (* 64-word slack: Gc.minor_words itself may box a float; the
           130k event writes themselves must add nothing. *)
        ("encode_zero_alloc", encode_words < 64.);
        ("recording_overhead", raw_pct < threshold);
        ("round_trip", fidelity_ok);
        ("bytes_per_event", bytes_per_event < 24.) ] }
