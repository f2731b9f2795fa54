(** Flight recorder: record a described run to a journal, and replay
    a journal against a fresh execution of its header.

    [Journal]/[Replay]/[Postmortem] (in [lib/obs]) are pure codec and
    analysis modules with no knowledge of the assembled system; the
    run itself is a {!Runspec} descriptor, read from the journal header
    with {!Runspec.of_header} and executed by {!Runspec.run}. This
    module adds only the observers: the journal writer or last-N ring
    on record, the in-memory journal on {!capture}, the stream diff on
    replay. The [osiris record]/[replay] subcommands are thin wrappers
    over these entry points, and every CLI command that reads a run's
    events reads them from {!capture}, so tests exercise exactly what
    the CLI ships.

    A run is re-executable iff everything that determines it is in the
    header, which is what {!Runspec.to_header} guarantees: seed, arch,
    system spec, workload {e name}, crash-injection plan, and the cost
    table fingerprint. *)

type recording = {
  rec_halt : Kernel.halt;
  rec_records : int;   (** Events journaled (header excluded). *)
  rec_bytes : int;     (** Journal size on disk, framing included. *)
  rec_snapshots : int; (** Ring mode: crash snapshots taken. *)
}

val record :
  path:string ->
  ?ring:int ->
  ?costs:Costs.t ->
  ?index:bool ->
  Journal.header ->
  (recording, string) result
(** Execute the run the header describes, journaling to [path]. Full
    fidelity by default: every event streams to disk as it happens.
    [ring] bounds memory instead: the last-N events ride a ring whose
    contents are frozen at each crash (the crash is the snapshot's
    newest event) and spilled to [path] at halt — newest crash wins,
    and with no crash the final ring contents are spilled, so the tail
    of the run is always preserved. The ring holds at most [ring]
    events plus one snapshot.

    [index] (default true) writes the seekable sidecar block index to
    [path ^ Journal.index_suffix] after the journal closes — identical
    bytes to a post-hoc [osiris index] rebuild. [costs] overrides the
    execution cost table {e without} changing the header's fingerprint:
    the perturbed-cost fixture, producing a journal whose events
    diverge from what its header re-executes to. *)

type capture = {
  cap_system : System.t;
  cap_halt : Kernel.halt;
  cap_events : Kernel.event array;
      (** The decoded journal: every event from the first boot event to
          the halt. *)
  cap_boot : int;  (** Index of the first post-boot event. *)
}

val capture :
  ?profiler:Profiler.t ->
  ?telemetry:Timeseries.t ->
  Journal.header ->
  (capture, string) result
(** Execute the run the header describes ({!Runspec.run}, which the
    optional arguments are passed to) with a {!Journal.to_memory}
    writer as the kernel's capture, and decode the journal with
    {!Journal.read_string}. The events are exactly what {!record}
    would write for the header. [Error] when {!Runspec.of_header}
    rejects the header. *)

val replay :
  ?costs:Costs.t ->
  Journal.header ->
  Kernel.event array ->
  Replay.outcome
(** {!Replay.run} over the header's {!Runspec.run}, with the
    replay-side cost table ([costs] overrides the header arch's — the
    perturbation fixture) threaded both into the rebuilt system and
    into the outcome's fingerprint check. *)

val replay_stream :
  ?costs:Costs.t ->
  Journal.header ->
  next:(unit -> Kernel.event option) ->
  Replay.outcome
(** {!Replay.run_stream} over the same run as {!replay} — the
    streaming CLI path: feed it a {!Journal.stream_next} cursor and the
    journal is never materialized as an array. *)
