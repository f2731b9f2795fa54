type recording = {
  rec_halt : Kernel.halt;
  rec_records : int;
  rec_bytes : int;
  rec_snapshots : int;
}

type capture = {
  cap_system : System.t;
  cap_halt : Kernel.halt;
  cap_events : Kernel.event array;
  cap_boot : int;
}

let capture ?profiler ?telemetry header =
  match Runspec.of_header header with
  | Error m -> Error m
  | Ok spec ->
    let w = Journal.to_memory header in
    (* [prepare] runs once boot is over, so the records written by then
       are the boot traffic. *)
    let boot = ref 0 in
    let prepare _ = boot := Journal.records_written w in
    let sys, halt = Runspec.run ~journal:w ?profiler ?telemetry ~prepare spec in
    Journal.close w;
    Result.map
      (fun (_, events) ->
         { cap_system = sys; cap_halt = halt; cap_events = events;
           cap_boot = !boot })
      (Journal.read_string (Journal.contents w))

(* The bounded recorder behind [record ~ring]: the last [capacity]
   events, frozen into a snapshot at each crash so the history leading
   up to it survives the recovery traffic that keeps evicting slots.
   It holds at most [capacity] events plus one snapshot. *)
type ring = {
  slots : Kernel.event array;
  mutable next : int;
  mutable seen : int;
  mutable snapshot : Kernel.event list;  (* oldest first *)
  mutable snapshots : int;
}

let ring_create capacity =
  { slots =
      Array.make (max 1 capacity)
        (Kernel.E_halt { time = 0; halt = Kernel.H_hang });
    next = 0; seen = 0; snapshot = []; snapshots = 0 }

(* Oldest first; a ring that has not wrapped yet holds [seen] events. *)
let ring_events r =
  let cap = Array.length r.slots in
  let n = min r.seen cap in
  List.init n (fun i -> r.slots.((r.next - n + i + cap) mod cap))

let ring_push r ev =
  r.slots.(r.next) <- ev;
  r.next <- (r.next + 1) mod Array.length r.slots;
  r.seen <- r.seen + 1;
  match ev with
  | Kernel.E_crash _ ->
    r.snapshot <- ring_events r;
    r.snapshots <- r.snapshots + 1
  | _ -> ()

(* Sidecar indexing at record time is a post-pass over the encoded
   bytes — the same [Journal.build_index] the [osiris index] rebuild
   runs, so the two paths cannot produce different sidecars. The
   summary scan is a small fraction of the run itself (the <5% gate in
   bench/query_bench.ml). *)
let write_sidecar ~path encoded =
  (* [encoded] was produced by this process moments ago, so the
     per-record CRC re-verification is skipped; [osiris index] rebuilds
     from disk keep it. *)
  match Journal.build_index ~verify_crc:false encoded with
  | Ok ix ->
    Journal.write_index_file ~path:(path ^ Journal.index_suffix) ix;
    Ok ()
  | Error m -> Error m

let record ~path ?ring ?costs ?(index = true) header =
  match Runspec.of_header header with
  | Error m -> Error m
  | Ok spec ->
    (match ring with
     | None when index ->
       (* The sidecar builder needs the encoded bytes anyway, so record
          into memory and write the file once rather than streaming to
          disk and reading it straight back. *)
       let w = Journal.to_memory header in
       let _, halt = Runspec.run ?costs ~journal:w spec in
       Journal.close w;
       let encoded = Journal.contents w in
       (try
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc encoded);
          match write_sidecar ~path encoded with
          | Error m -> Error ("index: " ^ m)
          | Ok () ->
            Ok
              { rec_halt = halt;
                rec_records = Journal.records_written w;
                rec_bytes = Journal.bytes_written w;
                rec_snapshots = 0 }
        with Sys_error m -> Error m)
     | None ->
       let w = Journal.to_file ~path header in
       let _, halt = Runspec.run ?costs ~journal:w spec in
       Journal.close w;
       Ok
         { rec_halt = halt;
           rec_records = Journal.records_written w;
           rec_bytes = Journal.bytes_written w;
           rec_snapshots = 0 }
     | Some capacity ->
       let r = ring_create capacity in
       let _, halt = Runspec.run ?costs ~event_hook:(ring_push r) spec in
       (* Spill the crash snapshot — or, with no crash, the final ring
          contents, so the run's tail is preserved either way. *)
       let events = if r.snapshots > 0 then r.snapshot else ring_events r in
       let encoded = Journal.of_events header events in
       (try
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc encoded);
          match (if index then write_sidecar ~path encoded else Ok ()) with
          | Error m -> Error ("index: " ^ m)
          | Ok () ->
            Ok
              { rec_halt = halt;
                rec_records = List.length events;
                rec_bytes = String.length encoded;
                rec_snapshots = r.snapshots }
        with Sys_error m -> Error m))

let replay_exec ?costs header =
  let table =
    match costs with
    | Some c -> c
    | None -> Kernel.costs_of_arch header.Journal.jh_arch
  in
  let exec header ~hook =
    match Runspec.of_header header with
    | Error m -> invalid_arg ("Flight.replay: " ^ m)
    | Ok spec -> snd (Runspec.run ~costs:table ~event_hook:hook spec)
  in
  (exec, Costs.fingerprint table)

let replay ?costs header events =
  let exec, fingerprint = replay_exec ?costs header in
  Replay.run ~exec ~cost_fingerprint:fingerprint header events

let replay_stream ?costs header ~next =
  let exec, fingerprint = replay_exec ?costs header in
  Replay.run_stream ~exec ~cost_fingerprint:fingerprint header ~next
