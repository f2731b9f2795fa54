(* Tests for the flight recorder: journal codec round-trips, damaged
   input handling (truncation, bit flips — Result, never an escaped
   exception), the event recorder ([Flight.capture]'s stream, which
   the "tracer" cases check, and the last-N ring with its
   snapshot-on-crash), record->replay
   determinism (exact seed-42 fixture plus a QCheck sweep over
   seeds/specs/crash targets), the intentional cost-perturbation
   divergence fixture, and causal postmortem attribution. *)

let ds = Endpoint.ds

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let sample_header =
  { Journal.jh_version = Journal.version;
    jh_seed = 42;
    jh_arch = Kernel.Microkernel;
    jh_spec = "enhanced,ds=stateless";
    jh_workload = "quickstart";
    jh_crash = "ds";
    jh_crash_count = 2;
    jh_cost_fingerprint = Costs.fingerprint Costs.microkernel }

(* One event per constructor (every E_halt variant included), with
   field values off the single-byte varint fast path where useful. *)
let sample_events =
  [ Kernel.E_msg { time = 3; src = Endpoint.first_user; dst = ds;
                   tag = Message.Tag.T_ds_publish; call = true; rid = 1;
                   parent = 0; cls = Seep.State_modifying };
    Kernel.E_window_open { time = 4; ep = ds; rid = 1 };
    Kernel.E_checkpoint { time = 5; ep = ds; rid = 1; cycles = 1_000 };
    Kernel.E_store_logged { time = 6; ep = ds; rid = 1; bytes = 24 };
    Kernel.E_kcall { time = 7; ep = ds; rid = 1; kc = "mk_clone" };
    Kernel.E_crash { time = 8; ep = ds; reason = "injected for tracing";
                     window_open = true; rid = 1; policy = "stateless" };
    Kernel.E_hang_detected { time = 9; ep = Endpoint.vm };
    Kernel.E_rollback_begin { time = 10; ep = ds; rid = 1 };
    Kernel.E_rollback_end { time = 11; ep = ds; rid = 1; bytes = 24 };
    Kernel.E_restart { time = 700_000; ep = ds; rid = 1;
                       policy = "stateless" };
    Kernel.E_window_close { time = 700_001; ep = ds; rid = 1;
                            policy = false };
    Kernel.E_reply { time = 700_002; src = ds; dst = Endpoint.first_user;
                     tag = Message.Tag.T_ds_publish; rid = 1 };
    Kernel.E_halt { time = 700_003; halt = Kernel.H_completed 0 };
    Kernel.E_halt { time = 700_004; halt = Kernel.H_shutdown "rs says so" };
    Kernel.E_halt { time = 700_005; halt = Kernel.H_panic "oops" };
    Kernel.E_halt { time = 700_006; halt = Kernel.H_hang } ]

let test_roundtrip_all_constructors () =
  let encoded = Journal.of_events sample_header sample_events in
  match Journal.read_string encoded with
  | Error m -> Alcotest.fail ("round trip failed: " ^ m)
  | Ok (header, events) ->
    Alcotest.(check bool) "header survives" true (header = sample_header);
    Alcotest.(check int) "all records decoded" (List.length sample_events)
      (Array.length events);
    Alcotest.(check bool) "events identical" true
      (Array.to_list events = sample_events)

let test_empty_journal_roundtrip () =
  match Journal.read_string (Journal.of_events sample_header []) with
  | Error m -> Alcotest.fail ("empty journal failed: " ^ m)
  | Ok (header, events) ->
    Alcotest.(check bool) "header survives" true (header = sample_header);
    Alcotest.(check int) "zero events" 0 (Array.length events)

let test_writer_counters () =
  let w = Journal.to_memory sample_header in
  List.iter (Journal.write w) sample_events;
  Journal.close w;
  Alcotest.(check int) "records counted (header excluded)"
    (List.length sample_events)
    (Journal.records_written w);
  Alcotest.(check int) "bytes counted exactly"
    (String.length (Journal.contents w))
    (Journal.bytes_written w);
  (* writes after close are dropped, not appended *)
  Journal.write w (List.hd sample_events);
  Alcotest.(check int) "write after close is a no-op"
    (List.length sample_events)
    (Journal.records_written w)

(* ------------------------------------------------------------------ *)
(* Capture codec: the raw-log entry layout round-trips                 *)
(* ------------------------------------------------------------------ *)

(* Random event lists that always hold every kind, every halt kind and
   non-trivial strings (one of each, shuffled in among random extras),
   with field values on and off the single-byte varint fast path. *)
let gen_events =
  let open QCheck.Gen in
  let time = int_range 0 5_000_000 and ep = int_range 0 300
  and rid = int_range 0 100_000 and n = int_range (-3) 70_000 in
  let str = string_size ~gen:printable (int_range 0 40) in
  let tag =
    map (fun i -> Option.get (Message.Tag.of_index i))
      (int_range 0 (Message.Tag.n_tags - 1))
  in
  let cls = oneofl [ Seep.Read_only; Seep.State_modifying; Seep.Reply ] in
  let halt_of = function
    | 0 -> map (fun s -> Kernel.H_completed s) n
    | 1 -> map (fun s -> Kernel.H_shutdown s) str
    | 2 -> map (fun s -> Kernel.H_panic s) str
    | _ -> return Kernel.H_hang
  in
  let of_kind = function
    | 0 ->
      let+ time = time and+ src = ep and+ dst = ep and+ tag = tag
      and+ call = bool and+ rid = rid and+ parent = rid and+ cls = cls in
      Kernel.E_msg { time; src; dst; tag; call; rid; parent; cls }
    | 1 ->
      let+ time = time and+ src = ep and+ dst = ep and+ tag = tag
      and+ rid = rid in
      Kernel.E_reply { time; src; dst; tag; rid }
    | 2 ->
      let+ time = time and+ ep = ep and+ rid = rid in
      Kernel.E_window_open { time; ep; rid }
    | 3 ->
      let+ time = time and+ ep = ep and+ rid = rid and+ policy = bool in
      Kernel.E_window_close { time; ep; rid; policy }
    | 4 ->
      let+ time = time and+ ep = ep and+ rid = rid and+ cycles = n in
      Kernel.E_checkpoint { time; ep; rid; cycles }
    | 5 ->
      let+ time = time and+ ep = ep and+ rid = rid and+ bytes = n in
      Kernel.E_store_logged { time; ep; rid; bytes }
    | 6 ->
      let+ time = time and+ ep = ep and+ rid = rid and+ kc = str in
      Kernel.E_kcall { time; ep; rid; kc }
    | 7 ->
      let+ time = time and+ ep = ep and+ reason = str
      and+ window_open = bool and+ rid = rid and+ policy = str in
      Kernel.E_crash { time; ep; reason; window_open; rid; policy }
    | 8 ->
      let+ time = time and+ ep = ep in
      Kernel.E_hang_detected { time; ep }
    | 9 ->
      let+ time = time and+ ep = ep and+ rid = rid in
      Kernel.E_rollback_begin { time; ep; rid }
    | 10 ->
      let+ time = time and+ ep = ep and+ rid = rid and+ bytes = n in
      Kernel.E_rollback_end { time; ep; rid; bytes }
    | 11 ->
      let+ time = time and+ ep = ep and+ rid = rid and+ policy = str in
      Kernel.E_restart { time; ep; rid; policy }
    | 12 -> assert false (* halts come from [halt_of] *)
    | _ ->
      let+ time = time and+ ep = ep and+ parent = ep in
      Kernel.E_spawn { time; ep; parent }
  in
  let halt_ev k =
    let+ time = time and+ halt = halt_of k in
    Kernel.E_halt { time; halt }
  in
  let every_kind =
    List.map of_kind [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 13 ]
    @ List.map halt_ev [ 0; 1; 2; 3 ]
  in
  let any =
    int_range 0 13 >>= fun k ->
    if k = 12 then int_range 0 3 >>= halt_ev else of_kind k
  in
  let* fixed = flatten_l every_kind and* extra = list_size (int_range 0 60) any in
  shuffle_l (fixed @ extra)

let arb_events =
  QCheck.make gen_events
    ~print:(fun evs -> Printf.sprintf "%d events" (List.length evs))

let prop_capture_roundtrip =
  QCheck.Test.make ~name:"Capture.append then decode is the identity"
    ~count:200 arb_events (fun evs ->
        let got = ref [] in
        let c = Capture.of_hook (fun e -> got := e :: !got) in
        (* a drain at every entry boundary *)
        List.iter (fun e -> Capture.append c e; Capture.drain c) evs;
        let per_entry = List.rev !got in
        (* no drain until the whole list is in the log *)
        got := [];
        List.iter (Capture.append c) evs;
        let undelivered = !got = [] in
        Capture.drain c;
        per_entry = evs && undelivered && List.rev !got = evs)

(* The emission sites' scalar appenders and [Journal.of_events]'s event
   values must lay down the same entries. *)
let append_scalar c = function
  | Kernel.E_msg { time; src; dst; tag; call; rid; parent; cls } ->
    Capture.msg c ~time ~src ~dst ~tag ~call ~rid ~parent ~cls
  | Kernel.E_reply { time; src; dst; tag; rid } ->
    Capture.reply c ~time ~src ~dst ~tag ~rid
  | Kernel.E_window_open { time; ep; rid } -> Capture.window_open c ~time ~ep ~rid
  | Kernel.E_window_close { time; ep; rid; policy } ->
    Capture.window_close c ~time ~ep ~rid ~policy
  | Kernel.E_checkpoint { time; ep; rid; cycles } ->
    Capture.checkpoint c ~time ~ep ~rid ~cycles
  | Kernel.E_store_logged { time; ep; rid; bytes } ->
    Capture.store_logged c ~time ~ep ~rid ~bytes
  | Kernel.E_kcall { time; ep; rid; kc } -> Capture.kcall c ~time ~ep ~rid ~kc
  | Kernel.E_crash { time; ep; reason; window_open; rid; policy } ->
    Capture.crash c ~time ~ep ~reason ~window_open ~rid ~policy
  | Kernel.E_hang_detected { time; ep } -> Capture.hang_detected c ~time ~ep
  | Kernel.E_rollback_begin { time; ep; rid } ->
    Capture.rollback_begin c ~time ~ep ~rid
  | Kernel.E_rollback_end { time; ep; rid; bytes } ->
    Capture.rollback_end c ~time ~ep ~rid ~bytes
  | Kernel.E_restart { time; ep; rid; policy } ->
    Capture.restart c ~time ~ep ~rid ~policy
  | Kernel.E_halt { time; halt } -> Capture.halt c ~time ~halt
  | Kernel.E_spawn { time; ep; parent } -> Capture.spawn c ~time ~ep ~parent

let prop_of_events_matches_appenders =
  QCheck.Test.make ~name:"of_events bytes = emit-site appender bytes"
    ~count:200 arb_events (fun evs ->
        let w = Journal.to_memory sample_header in
        List.iter (append_scalar (Journal.capture w)) evs;
        Journal.close w;
        String.equal (Journal.contents w) (Journal.of_events sample_header evs))

(* ------------------------------------------------------------------ *)
(* Damaged input: always Error, never an escaped exception             *)
(* ------------------------------------------------------------------ *)

let expect_error label = function
  | Error m ->
    Alcotest.(check bool) (label ^ ": error message nonempty") true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail (label ^ ": damaged journal decoded as Ok")

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let test_bad_magic () =
  expect_error "empty input" (Journal.read_string "");
  expect_error "short input" (Journal.read_string "OSIR");
  match Journal.read_string "NOTAJRNL garbage here" with
  | Error m ->
    Alcotest.(check bool) "names the magic" true (contains ~needle:"magic" m)
  | Ok _ -> Alcotest.fail "garbage decoded as Ok"

let test_truncation_every_prefix () =
  (* Truncation mid-record must decode to Error; truncation exactly at
     a record boundary reads as a valid shorter journal (that is what
     a crash-interrupted recording leaves after its last completed
     flush, and ring journals legitimately end before the halt) — but
     then the decoded events must be a strict prefix, never altered
     data. Sweep every prefix length and assert the dichotomy. *)
  let encoded = Journal.of_events sample_header sample_events in
  let boundaries = ref 0 in
  for len = 0 to String.length encoded - 1 do
    match Journal.read_string (String.sub encoded 0 len) with
    | Error _ -> ()
    | Ok (h, evs) ->
      incr boundaries;
      let evs = Array.to_list evs in
      let rec is_prefix xs ys =
        match xs, ys with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      if h <> sample_header
         || List.length evs >= List.length sample_events
         || not (is_prefix evs sample_events)
      then
        Alcotest.fail
          (Printf.sprintf
             "truncation at byte %d decoded to altered data" len)
  done;
  (* exactly one clean boundary per record frame (header included) *)
  Alcotest.(check int) "only record boundaries decode"
    (List.length sample_events) !boundaries;
  match Journal.read_string encoded with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("full journal failed to decode: " ^ m)

let test_bitflip_every_byte () =
  (* flipping any single byte must surface as Error: the CRC covers
     payloads, framing damage shifts the CRC check, and magic/header
     damage is caught structurally *)
  let encoded = Journal.of_events sample_header sample_events in
  let b = Bytes.of_string encoded in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    Bytes.set b i (Char.chr (Char.code orig lxor 0x40));
    (match Journal.read_string (Bytes.to_string b) with
     | Error _ -> ()
     | Ok (h, evs) ->
       (* the flip must at least not silently alter the decode *)
       if h <> sample_header || Array.to_list evs <> sample_events then
         Alcotest.fail
           (Printf.sprintf "bit flip at byte %d silently altered decode" i));
    Bytes.set b i orig
  done

let test_crc_error_names_record () =
  (* flip a byte inside the last record's payload: the error must name
     the damaged record and mention the CRC *)
  let encoded = Journal.of_events sample_header sample_events in
  let b = Bytes.of_string encoded in
  let i = Bytes.length b - 6 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  (match Journal.read_string (Bytes.to_string b) with
   | Error m ->
     Alcotest.(check bool) "mentions CRC" true (contains ~needle:"CRC" m);
     Alcotest.(check bool) "names the record" true
       (contains
          ~needle:
            (Printf.sprintf "record %d" (List.length sample_events - 1))
          m)
   | Ok _ -> Alcotest.fail "corrupted CRC decoded as Ok")

let test_trailing_garbage () =
  let encoded = Journal.of_events sample_header sample_events in
  expect_error "trailing garbage" (Journal.read_string (encoded ^ "xx"))

let test_read_file_missing () =
  expect_error "missing file"
    (Journal.read_file "/nonexistent/osiris-test.journal")

(* ------------------------------------------------------------------ *)
(* Record -> replay: the seed-42 acceptance fixture                    *)
(* ------------------------------------------------------------------ *)

let with_temp_journal f =
  let path = Filename.temp_file "osiris_test" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let is_crash = function Kernel.E_crash _ -> true | _ -> false

let seed42_header () =
  match Runspec.make_header ~crash:"ds" () with
  | Ok h -> h
  | Error m -> Alcotest.fail ("make_header: " ^ m)

(* Record the seed-42 ds-crash quickstart once; everything below reads
   from this journal. *)
let seed42_journal =
  lazy
    (with_temp_journal (fun path ->
         let header = seed42_header () in
         match Flight.record ~path header with
         | Error m -> Alcotest.fail ("record: " ^ m)
         | Ok r ->
           (match Journal.read_file path with
            | Error m -> Alcotest.fail ("read back: " ^ m)
            | Ok (h, events) -> (r, h, events))))

(* The two encoder entry points — the kernel capture path that
   [System.build ?journal] installs, and the event-value [write] path
   behind [of_events] and the ring spill — must lay down identical
   raw-log entries, so for the same logical event stream the journals
   are byte-identical. *)
let test_capture_write_identity () =
  with_temp_journal (fun path ->
      let header = seed42_header () in
      (match Flight.record ~path header with
       | Error m -> Alcotest.fail ("record: " ^ m)
       | Ok _ -> ());
      let captured = In_channel.with_open_bin path In_channel.input_all in
      let events = ref [] in
      let _halt =
        Runspec.exec header ~hook:(fun ev -> events := ev :: !events)
      in
      let written = Journal.of_events header (List.rev !events) in
      Alcotest.(check int) "same size" (String.length captured)
        (String.length written);
      Alcotest.(check bool) "byte-identical journals" true
        (String.equal captured written);
      (* [Flight.capture], what the CLI's event views read, hands back
         exactly the live stream, boot included. *)
      match Flight.capture header with
      | Error m -> Alcotest.fail ("capture: " ^ m)
      | Ok c ->
        Alcotest.(check bool) "captured array = live hooked stream" true
          (c.Flight.cap_events = Array.of_list (List.rev !events));
        Alcotest.(check bool) "boot precedes the first post-boot event" true
          (c.Flight.cap_boot > 0
           && c.Flight.cap_boot < Array.length c.Flight.cap_events))

let test_record_seed42 () =
  let r, h, events = Lazy.force seed42_journal in
  Alcotest.(check bool) "run completed" true
    (match r.Flight.rec_halt with Kernel.H_completed _ -> true | _ -> false);
  Alcotest.(check int) "every event journaled" r.Flight.rec_records
    (Array.length events);
  Alcotest.(check bool) "header round-trips" true (h = seed42_header ());
  Alcotest.(check bool) "the injected ds crash is recorded" true
    (Array.exists
       (function Kernel.E_crash { ep; _ } -> ep = ds | _ -> false)
       events);
  Alcotest.(check bool) "journal ends at the halt" true
    (match events.(Array.length events - 1) with
     | Kernel.E_halt _ -> true
     | _ -> false)

let test_replay_seed42_identical () =
  let _, header, events = Lazy.force seed42_journal in
  let outcome = Flight.replay header events in
  Alcotest.(check bool) "zero divergences" true
    (outcome.Replay.rp_divergence = None);
  Alcotest.(check int) "exit code 0" 0 (Replay.exit_code outcome);
  Alcotest.(check bool) "no cost mismatch" false
    outcome.Replay.rp_cost_mismatch;
  Alcotest.(check int) "replayed every record" outcome.Replay.rp_recorded
    outcome.Replay.rp_replayed;
  Alcotest.(check bool) "verdict rendered" true
    (contains ~needle:"IDENTICAL" (Replay.render outcome))

(* The intentional-divergence fixture: one perturbed cost-table entry
   must be pinpointed at the exact first divergent record, with its
   rid. The expected index is derived independently by re-running the
   system under the perturbed table and diffing by hand. *)
let perturbed_costs () = Costs.perturbed Costs.microkernel

let test_perturbed_cost_divergence () =
  let _, header, events = Lazy.force seed42_journal in
  let costs = perturbed_costs () in
  (* independent ground truth: collect the perturbed run's stream *)
  let replayed = ref [] in
  let spec =
    match Runspec.of_header header with
    | Ok spec -> spec
    | Error m -> Alcotest.fail m
  in
  ignore
    (Runspec.run ~costs ~event_hook:(fun ev -> replayed := ev :: !replayed)
       spec);
  let replayed = Array.of_list (List.rev !replayed) in
  let expected_index =
    let n = min (Array.length events) (Array.length replayed) in
    let rec scan i =
      if i >= n then i else if events.(i) <> replayed.(i) then i
      else scan (i + 1)
    in
    scan 0
  in
  Alcotest.(check bool) "the perturbation really diverges" true
    (expected_index < Array.length events);
  (* now the replay layer must find the same first divergence *)
  let outcome = Flight.replay ~costs header events in
  Alcotest.(check int) "exit code 2" 2 (Replay.exit_code outcome);
  Alcotest.(check bool) "fingerprint flags the table" true
    outcome.Replay.rp_cost_mismatch;
  (match outcome.Replay.rp_divergence with
   | None -> Alcotest.fail "no divergence reported"
   | Some d ->
     Alcotest.(check int) "first divergent record pinpointed"
       expected_index d.Replay.div_index;
     Alcotest.(check bool) "recorded side is the journal's record" true
       (d.Replay.div_recorded = Some events.(expected_index));
     Alcotest.(check int) "rid is the recorded event's"
       (Journal.event_rid events.(expected_index))
       d.Replay.div_rid;
     (match d.Replay.div_chain with
      | [] -> Alcotest.(check int) "root context" 0 d.Replay.div_rid
      | rid :: _ ->
        Alcotest.(check int) "chain starts at the divergent rid"
          d.Replay.div_rid rid))

let prop_record_replay_deterministic =
  QCheck.Test.make
    ~name:"record->replay yields zero divergences (seeds/specs/crashes)"
    ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
       let spec =
         match seed mod 3 with
         | 0 -> "enhanced"
         | 1 -> "stateless"
         | _ -> "enhanced,ds=stateless,vm=pessimistic/3"
       in
       let crash =
         match seed mod 4 with
         | 0 -> "none"
         | 1 -> "pm"
         | 2 -> "vfs"
         | _ -> "ds"
       in
       match
         Runspec.make_header ~seed ~spec ~workload:"workgen" ~crash ()
       with
       | Error m -> QCheck.Test.fail_report m
       | Ok header ->
         (* in-memory record through the same System.build path the
            file recorder uses *)
         let w = Journal.to_memory header in
         ignore (Runspec.exec header ~hook:(Journal.write w));
         Journal.close w;
         (match Journal.read_string (Journal.contents w) with
          | Error m -> QCheck.Test.fail_report ("decode: " ^ m)
          | Ok (h, events) ->
            h = header
            && (let outcome = Flight.replay header events in
                Replay.exit_code outcome = 0
                && outcome.Replay.rp_divergence = None
                && outcome.Replay.rp_replayed = Array.length events)))

(* ------------------------------------------------------------------ *)
(* The event recorder: Flight.capture's stream and the last-N ring     *)
(* ------------------------------------------------------------------ *)

let make_header ?(workload = "quickstart") ?(crash = "none") ?(count = 1) ()
    =
  match Runspec.make_header ~workload ~crash ~crash_count:count () with
  | Ok h -> h
  | Error m -> Alcotest.fail ("make_header: " ^ m)

let captured header =
  match Flight.capture header with
  | Ok c -> c
  | Error m -> Alcotest.fail ("capture: " ^ m)

(* Each process runs on its own clock, so the stream is ordered per
   sender: the user program's requests carry nondecreasing times. *)
let test_capture_ordering () =
  let times =
    List.filter_map
      (function
        | Kernel.E_msg { time; src; _ } when src = Endpoint.first_user ->
          Some time
        | _ -> None)
      (Array.to_list (captured (make_header ())).Flight.cap_events)
  in
  Alcotest.(check bool) "nonempty" true (times <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "nondecreasing timestamps" true (sorted times)

let test_capture_halt_last () =
  let evs = (captured (make_header ())).Flight.cap_events in
  match evs.(Array.length evs - 1) with
  | Kernel.E_halt { halt = Kernel.H_completed 0; _ } -> ()
  | _ -> Alcotest.fail "expected a final halt event"

let test_capture_crash_restart () =
  let c = captured (seed42_header ()) in
  Alcotest.(check bool) "run survived" true
    (c.Flight.cap_halt = Kernel.H_completed 0);
  let evs = Array.to_list c.Flight.cap_events in
  Alcotest.(check (list bool)) "one in-window ds crash" [ true ]
    (List.filter_map
       (function
         | Kernel.E_crash { ep; window_open; _ } when ep = ds ->
           Some window_open
         | _ -> None)
       evs);
  Alcotest.(check bool) "restart follows" true
    (List.exists
       (function Kernel.E_restart { ep; _ } -> ep = ds | _ -> false)
       evs)

let test_aligned_filter () =
  let evs = Array.to_list (captured (make_header ())).Flight.cap_events in
  let all = Replay.aligned evs in
  let ds_only = Replay.aligned ~only:ds evs in
  Alcotest.(check bool) "filter narrows" true
    (List.length ds_only < List.length all && ds_only <> []);
  List.iter
    (fun l ->
       Alcotest.(check bool) ("names ds or is the halt: " ^ l) true
         (contains ~needle:"ds" l || contains ~needle:"HALT" l))
    ds_only

(* Ring mode against the full stream of the same run: the spill is the
   [ring] events ending at the newest crash or, with no crash, the
   final [ring] events, oldest first — at most [ring] of them. Returns
   the full stream and the spill. *)
let check_ring ~ring header =
  let full = (captured header).Flight.cap_events in
  let n = Array.length full in
  let crashes = List.filter (fun i -> is_crash full.(i)) (List.init n Fun.id) in
  let stop = match List.rev crashes with i :: _ -> i + 1 | [] -> n in
  let expected = Array.sub full (max 0 (stop - ring)) (min stop ring) in
  with_temp_journal (fun path ->
      match Flight.record ~path ~ring header with
      | Error m -> Alcotest.fail ("ring record: " ^ m)
      | Ok r ->
        (match Journal.read_file path with
         | Error m -> Alcotest.fail ("ring journal: " ^ m)
         | Ok (_, spill) ->
           Alcotest.(check int) "a snapshot per crash" (List.length crashes)
             r.Flight.rec_snapshots;
           Alcotest.(check bool) "ring bound respected" true
             (r.Flight.rec_records <= ring);
           Alcotest.(check int) "spilled every held event"
             r.Flight.rec_records (Array.length spill);
           Alcotest.(check bool) "spill = the window of the full stream" true
             (spill = expected);
           (full, spill)))

let test_ring_eviction () =
  let full, spill = check_ring ~ring:8 (make_header ~workload:"suite" ()) in
  Alcotest.(check int) "ring bounded" 8 (Array.length spill);
  Alcotest.(check bool) "more were seen" true (Array.length full > 8)

let test_partial_ring () =
  let full, spill = check_ring ~ring:100_000 (make_header ()) in
  Alcotest.(check bool) "an unfilled ring holds the whole run" true
    (spill = full)

let test_wrapped_ring () =
  let full, spill = check_ring ~ring:13 (make_header ~workload:"workgen" ()) in
  let n = Array.length full in
  Alcotest.(check bool) "newest 13, oldest first" true
    (spill = Array.sub full (n - 13) 13)

let test_snapshot_frozen_at_crash () =
  let full, spill = check_ring ~ring:16 (seed42_header ()) in
  Alcotest.(check bool) "snapshot ends at the crash" true
    (is_crash spill.(Array.length spill - 1));
  (* recovery traffic evicted the crash from the final ring... *)
  let n = Array.length full in
  Alcotest.(check bool) "crash evicted from the live ring" true
    (not (Array.exists is_crash (Array.sub full (n - 16) 16)))

let test_snapshot_newest_crash_wins () =
  let full, spill = check_ring ~ring:16 (make_header ~crash:"ds" ~count:2 ()) in
  let crashes = List.filter is_crash (Array.to_list full) in
  Alcotest.(check int) "two crashes in the run" 2 (List.length crashes);
  Alcotest.(check bool) "the spill ends at the second crash" true
    (spill.(Array.length spill - 1) = List.nth crashes 1)

let test_no_predicate_no_snapshot () =
  let full, spill = check_ring ~ring:16 (make_header ()) in
  let n = Array.length full in
  Alcotest.(check bool) "no crash: the final tail is spilled" true
    (spill = Array.sub full (n - 16) 16)

let test_ring_mode_crash_snapshot () =
  List.iter
    (fun (ring, header) ->
       let _, events = check_ring ~ring header in
       let n = Array.length events in
       (* frozen at the crash: the newest event is the E_crash *)
       Alcotest.(check bool) "snapshot ends at the crash" true
         (n > 0 && is_crash events.(n - 1));
       (* and postmortem still works on the partial history *)
       let report = Postmortem.analyze header events in
       Alcotest.(check bool) "journal ends before halt" true
         (report.Postmortem.pm_halt = None);
       Alcotest.(check bool) "crash found" true
         (report.Postmortem.pm_crashes <> []))
    [ (64, seed42_header ());
      (256, seed42_header ());
      (64, make_header ~crash:"ds" ~count:2 ());
      (64, make_header ~workload:"workgen" ~crash:"vfs" ()) ]

(* ------------------------------------------------------------------ *)
(* Causal chains and postmortem attribution                            *)
(* ------------------------------------------------------------------ *)

let msg ~rid ~parent =
  Kernel.E_msg { time = rid; src = Endpoint.first_user; dst = ds;
                 tag = Message.Tag.T_ds_publish; call = true; rid; parent;
                 cls = Seep.Read_only }

let test_rid_chain () =
  let events = [| msg ~rid:1 ~parent:0; msg ~rid:2 ~parent:1;
                  msg ~rid:3 ~parent:2 |] in
  Alcotest.(check (list int)) "innermost first to root" [ 3; 2; 1 ]
    (Replay.rid_chain events 3);
  Alcotest.(check (list int)) "root request" [ 1 ] (Replay.rid_chain events 1);
  Alcotest.(check (list int)) "rid 0 is the root context" []
    (Replay.rid_chain events 0);
  Alcotest.(check (list int)) "unknown rid terminates" [ 99 ]
    (Replay.rid_chain events 99);
  let cyclic = [| msg ~rid:5 ~parent:6; msg ~rid:6 ~parent:5 |] in
  Alcotest.(check (list int)) "cycle terminates" [ 5; 6 ]
    (Replay.rid_chain cyclic 5)

let test_postmortem_seed42 () =
  let _, header, events = Lazy.force seed42_journal in
  let report = Postmortem.analyze header events in
  Alcotest.(check int) "exactly the injected crash" 1
    (List.length report.Postmortem.pm_crashes);
  Alcotest.(check bool) "halt recorded" true
    (match report.Postmortem.pm_halt with
     | Some (Kernel.H_completed _) -> true
     | _ -> false);
  let c = List.hd report.Postmortem.pm_crashes in
  Alcotest.(check string) "compartment" "ds" c.Postmortem.cr_server;
  Alcotest.(check string) "policy" "enhanced" c.Postmortem.cr_policy;
  Alcotest.(check bool) "window open at the crash" true
    c.Postmortem.cr_window_open;
  Alcotest.(check bool) "attributed to a request" true
    (c.Postmortem.cr_rid > 0);
  (* the chain starts at the handled request and the delivery for each
     chain rid is attached in order *)
  (match c.Postmortem.cr_chain with
   | [] -> Alcotest.fail "empty causal chain"
   | rid :: _ ->
     Alcotest.(check int) "chain starts at the crash rid"
       c.Postmortem.cr_rid rid);
  Alcotest.(check int) "a delivery per chain rid"
    (List.length c.Postmortem.cr_chain)
    (List.length c.Postmortem.cr_chain_msgs);
  (* undo-log state at the crash: in-window stores were logged *)
  Alcotest.(check bool) "undo bytes at crash" true
    (c.Postmortem.cr_undo_bytes > 0);
  Alcotest.(check bool) "rollback restored bytes" true
    (match c.Postmortem.cr_rollback_bytes with
     | Some b -> b > 0
     | None -> false);
  Alcotest.(check bool) "restart recorded" true
    (c.Postmortem.cr_restart <> None);
  Alcotest.(check bool) "recovery latency positive" true
    (match c.Postmortem.cr_recovery_latency with
     | Some l -> l > 0
     | None -> false);
  let root_cause = Postmortem.attribution header c in
  Alcotest.(check bool) "attributed to the armed fault injection" true
    (contains ~needle:"fault injection" root_cause);
  Alcotest.(check bool) "names the compartment" true
    (contains ~needle:"ds" root_cause);
  Alcotest.(check bool) "names the root request" true
    (contains
       ~needle:
         (Printf.sprintf "root request rid %d"
            (List.nth c.Postmortem.cr_chain
               (List.length c.Postmortem.cr_chain - 1)))
       root_cause)

(* ------------------------------------------------------------------ *)
(* JSON artifacts: deterministic and structurally valid                *)
(* ------------------------------------------------------------------ *)

(* Minimal structural JSON parser (same approach as test_obs.ml): no
   JSON library in the tree, and the artifacts must stay loadable. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true
                                        | _ -> false)
      then (advance (); skip_ws ())
    in
    let expect c =
      skip_ws ();
      if peek () <> c then
        raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance (); Buffer.contents b
        | '\\' ->
          advance ();
          (match peek () with
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'u' -> Buffer.add_string b "\\u"
           | c -> Buffer.add_char b c);
          advance (); go ()
        | c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let rec go () =
        if !pos < n
           && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
        then (advance (); go ())
      in
      go ();
      if start = !pos then raise (Bad "empty number");
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance (); skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
          in
          members []
      | '[' ->
        advance (); skip_ws ();
        if peek () = ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
          in
          elements []
      | '"' -> Str (parse_string ())
      | 't' -> pos := !pos + 4; Bool true
      | 'f' -> pos := !pos + 5; Bool false
      | 'n' -> pos := !pos + 4; Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let mem key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

let parse_json label s =
  try Json.parse s
  with Json.Bad m -> Alcotest.fail (label ^ " is not valid JSON: " ^ m)

let test_replay_json () =
  let _, header, events = Lazy.force seed42_journal in
  let clean = Flight.replay header events in
  Alcotest.(check string) "deterministic bytes" (Replay.to_json clean)
    (Replay.to_json clean);
  let root = parse_json "replay artifact" (Replay.to_json clean) in
  Alcotest.(check bool) "identical replay: divergence null" true
    (Json.mem "divergence" root = Some Json.Null);
  (match Json.mem "seed" root with
   | Some (Json.Num s) -> Alcotest.(check int) "seed" 42 (int_of_float s)
   | _ -> Alcotest.fail "no seed field");
  let diverged = Flight.replay ~costs:(perturbed_costs ()) header events in
  let droot = parse_json "divergence artifact" (Replay.to_json diverged) in
  (match Json.mem "divergence" droot with
   | Some (Json.Obj _ as d) ->
     Alcotest.(check bool) "divergence has index/rid/chain" true
       ((match Json.mem "index" d with Some (Json.Num _) -> true | _ -> false)
        && (match Json.mem "rid" d with Some (Json.Num _) -> true | _ -> false)
        && (match Json.mem "chain" d with Some (Json.List _) -> true | _ -> false)
        && (match Json.mem "recorded" d with Some (Json.Str _) -> true | _ -> false))
   | _ -> Alcotest.fail "no divergence object");
  match Json.mem "cost_mismatch" droot with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "cost_mismatch not surfaced"

let test_postmortem_json () =
  let _, header, events = Lazy.force seed42_journal in
  let report = Postmortem.analyze header events in
  Alcotest.(check string) "deterministic bytes" (Postmortem.to_json report)
    (Postmortem.to_json report);
  let root = parse_json "postmortem artifact" (Postmortem.to_json report) in
  (match Json.mem "crash_count" root with
   | Some (Json.Num n) -> Alcotest.(check int) "one crash" 1 (int_of_float n)
   | _ -> Alcotest.fail "no crash_count");
  match Json.mem "crashes" root with
  | Some (Json.List [ c ]) ->
    Alcotest.(check bool) "crash object fields" true
      (Json.mem "compartment" c = Some (Json.Str "ds")
       && Json.mem "policy" c = Some (Json.Str "enhanced")
       && Json.mem "window_open" c = Some (Json.Bool true)
       && (match Json.mem "chain" c with
           | Some (Json.List (_ :: _)) -> true
           | _ -> false));
    (match Json.mem "root_cause" c with
     | Some (Json.Str s) ->
       Alcotest.(check bool) "root cause names the injection" true
         (contains ~needle:"fault injection" s)
     | _ -> Alcotest.fail "no root_cause")
  | _ -> Alcotest.fail "crashes is not a one-element array"

(* ------------------------------------------------------------------ *)
(* Header validation and cost fingerprints                             *)
(* ------------------------------------------------------------------ *)

let test_make_header_validation () =
  (match Runspec.make_header ~workload:"no-such-workload" () with
   | Error m ->
     Alcotest.(check bool) "names the workload" true
       (contains ~needle:"no-such-workload" m)
   | Ok _ -> Alcotest.fail "unknown workload accepted");
  (match Runspec.make_header ~spec:"enhanced,bogus=naive" () with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad spec accepted");
  match Runspec.make_header ~crash:"router" () with
  | Error m ->
    Alcotest.(check bool) "names the crash server" true
      (contains ~needle:"router" m)
  | Ok _ -> Alcotest.fail "unknown crash server accepted"

let test_cost_fingerprint () =
  let micro = Costs.fingerprint Costs.microkernel in
  Alcotest.(check int) "stable across calls" micro
    (Costs.fingerprint Costs.microkernel);
  Alcotest.(check bool) "positive (varint-compact)" true (micro > 0);
  Alcotest.(check bool) "distinguishes architectures" true
    (micro <> Costs.fingerprint Costs.monolithic);
  Alcotest.(check bool) "a one-cycle perturbation changes it" true
    (micro <> Costs.fingerprint (perturbed_costs ()))

let () =
  Alcotest.run "osiris_journal"
    [ ( "codec",
        [ Alcotest.test_case "all constructors round-trip" `Quick
            test_roundtrip_all_constructors;
          Alcotest.test_case "empty journal" `Quick
            test_empty_journal_roundtrip;
          Alcotest.test_case "writer counters" `Quick test_writer_counters;
          QCheck_alcotest.to_alcotest prop_capture_roundtrip;
          QCheck_alcotest.to_alcotest prop_of_events_matches_appenders ] );
      ( "robustness",
        [ Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "every truncation errors" `Quick
            test_truncation_every_prefix;
          Alcotest.test_case "every bit flip detected" `Quick
            test_bitflip_every_byte;
          Alcotest.test_case "CRC error names the record" `Quick
            test_crc_error_names_record;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "missing file" `Quick test_read_file_missing ] );
      ( "tracer",
        [ Alcotest.test_case "ordering" `Quick test_capture_ordering;
          Alcotest.test_case "halt last" `Quick test_capture_halt_last;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "crash/restart" `Quick test_capture_crash_restart;
          Alcotest.test_case "timeline filter" `Quick test_aligned_filter;
          Alcotest.test_case "partial ring" `Quick test_partial_ring;
          Alcotest.test_case "wrapped ring" `Quick test_wrapped_ring ] );
      ( "ring",
        [ Alcotest.test_case "snapshot frozen at crash" `Quick
            test_snapshot_frozen_at_crash;
          Alcotest.test_case "newest crash wins" `Quick
            test_snapshot_newest_crash_wins;
          Alcotest.test_case "no predicate, no snapshot" `Quick
            test_no_predicate_no_snapshot;
          Alcotest.test_case "ring-mode recording" `Quick
            test_ring_mode_crash_snapshot ] );
      ( "replay",
        [ Alcotest.test_case "capture/write byte identity" `Quick
            test_capture_write_identity;
          Alcotest.test_case "seed-42 recording" `Quick test_record_seed42;
          Alcotest.test_case "seed-42 replay identical" `Quick
            test_replay_seed42_identical;
          Alcotest.test_case "perturbed cost pinpointed" `Quick
            test_perturbed_cost_divergence;
          QCheck_alcotest.to_alcotest prop_record_replay_deterministic ] );
      ( "postmortem",
        [ Alcotest.test_case "rid chains" `Quick test_rid_chain;
          Alcotest.test_case "seed-42 root cause" `Quick
            test_postmortem_seed42 ] );
      ( "artifacts",
        [ Alcotest.test_case "replay JSON" `Quick test_replay_json;
          Alcotest.test_case "postmortem JSON" `Quick test_postmortem_json ] );
      ( "header",
        [ Alcotest.test_case "validation" `Quick test_make_header_validation;
          Alcotest.test_case "cost fingerprint" `Quick test_cost_fingerprint ] ) ]
