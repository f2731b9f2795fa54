(* Scheduler benchmark: what the timer-wheel rebuild of the kernel run
   queue buys over the binary heap it replaced, and proof it changes
   nothing but wall time.

   The micro rungs replay a kernel-shaped key trace — recorded from a
   live wheel under the empirical push/pop mix: near-future keys with
   frequent ties, past-dated wakeups below the cursor, occasional
   far-horizon alarms, queue depth oscillating like a real run —
   through the wheel and through the embedded old-heap oracle
   ([Sched.use_oracle]), interleaved best-of so load drift cannot
   masquerade as speedup. The reference line is the 78.6 ns/event
   in-run capture cost measured by bench/journal_bench.ml on the
   pre-refactor scheduler: the wheel's full push+pop event cost must
   sit below it. Because hosts differ, the gate is calibrated like
   parfan_bench's: the oracle — the exact pre-refactor implementation,
   timed on the same trace on the same host — is the calibration
   probe, and the threshold is max(baseline, efficiency x oracle), so
   a slow box loosens the absolute bar but never excuses losing to the
   old heap.

   Run with [dune exec bench/main.exe sched]. Gates:
     sched_ns_per_event   wheel push+pop ns/event on the kernel trace
                          < max([baseline_ns], [efficiency] x oracle)
     sched_vs_oracle      wheel ns/event < oracle ns/event
     sched_zero_alloc     a full warm trace pass (131k push/pop)
                          allocates no minor words
     sched_trajectory     full-system seed-42 runs (regression driver,
                          and quickstart with a mid-run VFS crash and
                          an attached journal) are byte-identical
                          between wheel and oracle: halt, every ss_*
                          server counter row, log lines, journal bytes *)

open Harness

(* The pre-refactor per-event reference: journal_bench's in-run
   capture cost on the old heap scheduler. *)
let baseline_ns = 78.6

(* Fraction of the oracle's measured ns/event the wheel must beat when
   the host is too slow for the absolute bar. Because the bar is
   calibrated against the oracle on the same host, the ns/event gates
   hold the smoke run to the same values even on throttled runners. *)
let efficiency = 0.9

(* ---- the kernel-shaped trace -------------------------------------- *)

(* Recorded against a live wheel so past-dated keys are relative to
   the real popped frontier.  Mix calibrated to what Kernel.step
   generates: mostly short forward hops with heavy ties (message
   hand-offs between processes whose clocks nearly agree), a steady
   trickle of past-dated wakeups (blocked receivers with lagging
   vtimes), rare far-future alarms; depth breathes between ~4 and
   ~48 entries like a booted system under load. *)
let trace_len = 1 lsl 17

type trace = {
  t_kind : Bytes.t;     (* 0 = push, 1 = pop *)
  t_key : int array;    (* push key (unused for pops) *)
  t_events : int;       (* number of pushes = pops *)
}

let record_trace () =
  let rng = Osiris_util.Rng.create 42 in
  let s = Sched.create () in
  let kind = Bytes.create trace_len in
  let key = Array.make trace_len 0 in
  let cursor = ref 0 in
  let pushes = ref 0 in
  let n = ref 0 in
  let push k =
    Bytes.unsafe_set kind !n '\000';
    key.(!n) <- k;
    Sched.push s ~key:k 0;
    incr pushes;
    incr n
  in
  let pop () =
    Bytes.unsafe_set kind !n '\001';
    let v = Sched.pop s in
    if v >= 0 then cursor := Sched.popped_key s;
    incr n
  in
  while !n < trace_len do
    let depth = Sched.length s in
    let do_push =
      if depth < 4 then true
      else if depth > 48 then false
      else Osiris_util.Rng.int rng 2 = 0
    in
    if do_push then begin
      let roll = Osiris_util.Rng.int rng 100 in
      let k =
        if roll < 30 then !cursor (* tie at the frontier *)
        else if roll < 82 then !cursor + Osiris_util.Rng.int rng 4096
        else if roll < 94 then !cursor + Osiris_util.Rng.int rng 2_000_000
        else if roll < 99 then
          max 0 (!cursor - 1 - Osiris_util.Rng.int rng 100_000)
          (* past-dated wakeup *)
        else !cursor + 50_000_000 + Osiris_util.Rng.int rng Sched.horizon
        (* far alarm *)
      in
      push k
    end
    else pop ()
  done;
  (* The replay must leave the structure empty so passes can repeat on
     a warm instance: trim trailing pushes and append draining pops by
     rewriting the tail budget.  Simpler: drain whatever is left into
     the trace accounting by replay-side draining (see replay). *)
  { t_kind = kind; t_key = key; t_events = !pushes }

(* One full pass: replay the trace, then drain the residue so the
   instance is empty for the next pass. *)
let replay tr s () =
  for i = 0 to trace_len - 1 do
    if Bytes.unsafe_get tr.t_kind i = '\000' then
      Sched.push s ~key:(Array.unsafe_get tr.t_key i) i
    else ignore (Sched.pop s)
  done;
  while Sched.pop s >= 0 do
    ()
  done

(* ---- trajectory identity ------------------------------------------ *)

let header ~workload ~crash =
  match Runspec.make_header ~seed:42 ~workload ~crash () with
  | Ok h -> h
  | Error m -> failwith ("sched bench: " ^ m)

(* One full system run, fingerprinted down to the bytes: halt, the
   complete ss_* counter row of every core server, the diagnostic log,
   and the framed journal. *)
let run_fingerprint ~oracle ~workload ~crash () =
  Sched.use_oracle := oracle;
  Fun.protect
    ~finally:(fun () -> Sched.use_oracle := false)
    (fun () ->
       let h = header ~workload ~crash in
       let spec =
         match Runspec.of_header h with
         | Ok spec -> spec
         | Error m -> failwith ("sched bench: " ^ m)
       in
       let w = Journal.to_memory h in
       let sys, halt = Runspec.run ~journal:w spec in
       Journal.close w;
       let k = System.kernel sys in
       let stats = List.map (Kernel.server_stats k) System.core_servers in
       Marshal.to_string
         (halt, stats, System.log_lines sys, Journal.contents w)
         [])

let trajectory_pair ~workload ~crash =
  let wheel = run_fingerprint ~oracle:false ~workload ~crash () in
  let oracle = run_fingerprint ~oracle:true ~workload ~crash () in
  wheel = oracle

(* ------------------------------------------------------------------ *)

let run cfg =
  heading "Sched: timer-wheel run queue vs the binary-heap oracle";
  let tr = record_trace () in
  Printf.printf "trace: %d ops, %d events (push+pop pairs)\n" trace_len
    tr.t_events;
  (* ---- micro: ns/event, wheel vs oracle ---- *)
  let wheel = Sched.create () in
  Sched.use_oracle := true;
  let heap = Sched.create () in
  Sched.use_oracle := false;
  assert (Sched.is_oracle heap && not (Sched.is_oracle wheel));
  let s = sample cfg [ timed (replay tr wheel); timed (replay tr heap) ] in
  let per_event ns = ns /. float_of_int tr.t_events in
  let wheel_ns = per_event (best s 0) and oracle_ns = per_event (best s 1) in
  let threshold = Float.max baseline_ns (efficiency *. oracle_ns) in
  let vs_oracle_spread = spread_pct s ~base:1 0 in
  Printf.printf
    "per event (best of %d rounds):\n\
    \  wheel   %8.2f ns (per-round IQR vs oracle [%+.1f%%, %+.1f%%])\n\
    \  oracle  %8.2f ns (old binary heap)\n\
    \  gate: wheel < max(%.1f baseline, %.2f x oracle) = %.2f ns -> %s\n"
    s.rounds wheel_ns (fst vs_oracle_spread) (snd vs_oracle_spread) oracle_ns
    baseline_ns efficiency threshold
    (if wheel_ns < threshold then "ok" else "FAILED");
  let ns_ok = wheel_ns < threshold in
  let vs_oracle_ok = wheel_ns < oracle_ns in
  (* ---- zero allocation on a warm pass ---- *)
  let words = minor_words_of (replay tr wheel) in
  let alloc_ok = words < 64. in
  Printf.printf "warm pass allocation: %.0f minor words over %d ops -> %s\n"
    words trace_len
    (if alloc_ok then "ok" else "FAILED");
  (* ---- trajectory identity ---- *)
  let driver_ok =
    trajectory_pair ~workload:"suite" ~crash:"none"
  in
  let crash_ok =
    trajectory_pair ~workload:"quickstart" ~crash:"vfs"
  in
  Printf.printf
    "trajectory identity (halt + ss_* + log + journal bytes):\n\
    \  regression driver        %s\n\
    \  quickstart + vfs crash   %s\n"
    (if driver_ok then "identical" else "DIVERGED")
    (if crash_ok then "identical" else "DIVERGED");
  { fields =
      [ ("seed", Int 42);
        ("trace", Obj [ ("ops", Int trace_len); ("events", Int tr.t_events) ]);
        ("per_event",
         Obj
           [ ("wheel_ns", Float wheel_ns);
             ("oracle_ns", Float oracle_ns);
             ("wheel_vs_oracle_spread_pct", spread vs_oracle_spread);
             ("baseline_ns", Float baseline_ns);
             ("efficiency", Float efficiency);
             ("threshold_ns", Float threshold) ]);
        ("alloc", Obj [ ("minor_words_per_pass", Float words) ]);
        (* Wall-clock figures swing with the host; bench_diff reads
           these per-path tolerances from the baseline so only
           structural drift is flagged. *)
        ("tolerances",
         Obj
           [ ("per_event.wheel_ns", Float 300.);
             ("per_event.oracle_ns", Float 300.);
             ("per_event.threshold_ns", Float 300.) ]) ];
    gates =
      [ ("sched_ns_per_event", ns_ok);
        ("sched_vs_oracle", vs_oracle_ok);
        ("sched_zero_alloc", alloc_ok);
        ("sched_trajectory", driver_ok && crash_ok) ] }
