(* Critical-path engine benchmark: whether the attribution pipeline
   keeps its exactness promises.

   Run with [dune exec bench/main.exe critpath]. Gates:
     conservation            every analyzed request's buckets sum to
                             exactly its end-to-end latency — zero
                             tolerance
     journal_parity          attributing the decoded journal of a run
                             ([Flight.capture], what [osiris why]
                             reads) yields a byte-identical rendering
                             to attributing the live event stream
     blame_identity          the per-spec p99-blame rollup is
                             byte-identical across re-runs and across
                             domain-pool worker counts (jobs:1 vs
                             jobs:4, submission-order merge) *)

open Harness

let workload_seed = 42

(* ---- attribution probes ------------------------------------------ *)

let collect_events ~spec ~crash =
  let header =
    match
      Runspec.make_header ~seed:workload_seed ~spec ~workload:"quickstart"
        ~crash ()
    with
    | Ok h -> h
    | Error m -> failwith m
  in
  let events = ref [] in
  ignore (Runspec.exec header ~hook:(fun ev -> events := ev :: !events));
  (header, List.rev !events)

(* Canonical rendering used by the parity and identity gates — every
   field of every breakdown, in analysis order. *)
let render_result (r : Critpath.result) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "incomplete=%d\n" r.Critpath.cr_incomplete;
  List.iter
    (fun (b : Critpath.breakdown) ->
       Printf.bprintf buf
         "ep=%d rid=%d inj=%b a=%d x=%d own=%d q=%d svc=[%s] ck=%d rb=%d \
          rs=%d col=%d path=[%s]\n"
         b.Critpath.cp_ep b.Critpath.cp_rid b.Critpath.cp_injected
         b.Critpath.cp_arrival b.Critpath.cp_exit b.Critpath.cp_own
         b.Critpath.cp_queue
         (String.concat ";"
            (List.map
               (fun (ep, c) -> Printf.sprintf "%d:%d" ep c)
               b.Critpath.cp_service))
         b.Critpath.cp_checkpoint b.Critpath.cp_rollback
         b.Critpath.cp_restart b.Critpath.cp_collateral
         (String.concat ";" (List.map string_of_int b.Critpath.cp_path)))
    r.Critpath.cr_requests;
  Buffer.contents buf

let render_profile = function
  | None -> "no-profile\n"
  | Some tp ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "n=%d p50=%d p99=%d\n" tp.Tailprof.tp_n
      tp.Tailprof.tp_p50 tp.Tailprof.tp_p99;
    List.iter
      (fun (bk, delta) ->
         let bi = Tailprof.bucket_index bk in
         Printf.bprintf buf "%s lo=%d hi=%d d=%d\n"
           (Tailprof.bucket_name bk)
           tp.Tailprof.tp_low.Tailprof.co_mean10.(bi)
           tp.Tailprof.tp_high.Tailprof.co_mean10.(bi)
           delta)
      tp.Tailprof.tp_blame;
    Buffer.contents buf

let blame_specs = [ "enhanced"; "pessimistic"; "enhanced,ds=stateless" ]

let blame_rollup ~jobs =
  String.concat "--\n"
    (Parfan.map ~jobs
       (fun spec ->
          let _, events = collect_events ~spec ~crash:"ds" in
          let r = Critpath.analyze events in
          render_profile (Tailprof.profile r.Critpath.cr_requests))
       blame_specs)

let run _cfg =
  heading "Critical-path engine: conservation, parity, blame identity";
  (* ---- conservation ---- *)
  let header, events = collect_events ~spec:"enhanced" ~crash:"ds" in
  let result = Critpath.analyze events in
  let n_requests = List.length result.Critpath.cr_requests in
  let event_conserved =
    List.for_all
      (fun b -> Critpath.breakdown_sum b = Critpath.total b)
      result.Critpath.cr_requests
  in
  Printf.printf "conservation: %d requests, buckets %s\n" n_requests
    (if event_conserved then "exact" else "VIOLATED");
  (* ---- journal parity ---- *)
  let live_render = render_result result in
  let parity =
    match Flight.capture header with
    | Error m -> failwith ("critpath bench: journal capture: " ^ m)
    | Ok c ->
      String.equal live_render
        (render_result
           (Critpath.analyze (Array.to_list c.Flight.cap_events)))
  in
  Printf.printf "journal parity: attribution of decoded journal %s\n"
    (if parity then "byte-identical to live" else "DIFFERS");
  (* ---- blame identity ---- *)
  let b1 = blame_rollup ~jobs:1 in
  let b1' = blame_rollup ~jobs:1 in
  let b4 = blame_rollup ~jobs:4 in
  let blame_identical = String.equal b1 b1' && String.equal b1 b4 in
  Printf.printf
    "blame rollup (%d specs): re-run %s, jobs:1 vs jobs:4 %s\n"
    (List.length blame_specs)
    (if String.equal b1 b1' then "identical" else "DIFFERS")
    (if String.equal b1 b4 then "identical" else "DIFFERS");
  { fields =
      [ ("workload_seed", Int workload_seed);
        ("conservation",
         Obj
           [ ("requests", Int n_requests);
             ("event_exact", Bool event_conserved) ]);
        ("journal_parity", Bool parity);
        ("blame",
         Obj
           [ ("specs", Int (List.length blame_specs));
             ("bytes", Int (String.length b1));
             ("identical", Bool blame_identical) ]);
        exact [ "conservation.requests"; "blame.bytes" ] ];
    gates =
      [ ("conservation", event_conserved && n_requests > 0);
        ("journal_parity", parity);
        ("blame_identity", blame_identical) ] }
