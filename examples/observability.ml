(* Observability tour: record a random-but-deterministic workload with
   a mid-run fault, then read the recorded events back as the last
   few events, span trees, latency/recovery/metrics tables, and a
   Perfetto-loadable Chrome trace.

     dune exec examples/observability.exe [seed]        (default 2026)

   Load the written observability_trace.json at https://ui.perfetto.dev
   to browse the same run visually: one track per server, request spans
   nested under the user program, the crash's recovery span nested
   under the request that triggered it. *)

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2026
  in
  Printf.printf "workload plan (seed %d):\n" seed;
  List.iteri (fun i a -> Printf.printf "  %2d. %s\n" (i + 1) a)
    (Workgen.describe ~seed ());
  (* Record the run from boot into an in-memory journal, with VFS
     crashed once mid-workload inside a window, and read back the
     decoded events: every view below is a fold over them. *)
  let c =
    match
      Result.bind
        (Runspec.make_header ~seed ~workload:"workgen" ~crash:"vfs" ())
        Flight.capture
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  let sys = c.Flight.cap_system in
  let events = Array.to_list c.Flight.cap_events in
  Printf.printf "\nrun: %s (%d crashes, %d recoveries)\n"
    (Kernel.halt_to_string c.Flight.cap_halt)
    (Kernel.crashes (System.kernel sys))
    (Kernel.restarts (System.kernel sys));
  print_endline "last events:";
  let n = Array.length c.Flight.cap_events in
  List.iter (fun l -> print_endline ("  " ^ l))
    (Replay.aligned
       (Array.to_list
          (Array.sub c.Flight.cap_events (max 0 (n - 24)) (min n 24))));
  (match Mfs.check_invariants (System.mfs sys) ~bdev:(System.bdev sys) with
   | Ok () -> print_endline "\nfsck: clean — block conservation holds"
   | Error m -> Printf.printf "\nfsck: CORRUPT: %s\n" m);
  (* Span forest: show the trees that contain recovery work. *)
  let spans = Span.build events in
  let recovering =
    List.filter
      (fun s ->
         Span.find (fun x -> x.Span.sp_kind = Span.Recovery) [ s ] <> None)
      spans
  in
  Printf.printf "\n%d events folded into %d spans; trees with recovery:\n"
    n (Span.count spans);
  List.iter (fun l -> print_endline ("  " ^ l))
    (Span.render_tree recovering);
  (* Latency / recovery / metrics tables. *)
  let kernel = System.kernel sys in
  print_newline ();
  print_endline
    (Obs_report.render ~metrics:(Obs_report.metrics ~kernel events) ~kernel
       spans);
  (* Perfetto export. *)
  let path = "observability_trace.json" in
  let oc = open_out path in
  output_string oc (Chrome_trace.of_spans ~events spans);
  close_out oc;
  Printf.printf "wrote %s — open it at https://ui.perfetto.dev\n" path
