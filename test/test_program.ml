(* Tests for the program DSL: monadic structure, control helpers, the
   typed memory access layer, and the view API the kernel drives
   programs through. A miniature interpreter runs the pure subset
   (Compute / Load / Store / Rand / Now, return and fail) through
   [Prog.start] / [Prog.next] against a raw image, so DSL semantics
   can be checked without a kernel. *)

open Prog.Syntax

type 'a outcome = Value of 'a | Crashed of string

(* Run a view to its end. Returns the failure message, if any, and the
   number of memory/compute primitives executed. *)
let drive img view =
  let steps = ref 0 in
  let exec : type a b. a Prog.op -> (a -> b Prog.t) -> (b, unit) Prog.kont
    -> Prog.view =
    fun op f k ->
    match op with
    | Prog.Compute _ ->
      incr steps;
      Prog.next f k ()
    | Prog.Load off ->
      incr steps;
      Prog.next f k (Memimage.get_word img off)
    | Prog.Store (off, v) ->
      incr steps;
      Memimage.set_word img off v;
      Prog.next f k ()
    | Prog.Load_str { off; len } ->
      incr steps;
      Prog.next f k (Memimage.get_string img ~off ~len)
    | Prog.Store_str { off; len; v } ->
      incr steps;
      Memimage.set_string img ~off ~len v;
      Prog.next f k ()
    | Prog.Rand bound -> Prog.next f k (bound / 2)
    | Prog.Now -> Prog.next f k 0
    | _ -> failwith "interp: communicating operation in pure test"
  in
  let rec go = function
    | Prog.Finished -> None
    | Prog.Failed m -> Some m
    | Prog.Op (op, f, k) -> go (exec op f k)
  in
  let failed = go view in
  (failed, !steps)

(* Interpret a program of any result type: the view API runs [unit]
   programs, so the result is captured on the way out. *)
let interp img prog =
  let result = ref None in
  match drive img (Prog.start (Prog.map (fun x -> result := Some x) prog)) with
  | None, steps -> (Value (Option.get !result), steps)
  | Some m, steps -> (Crashed m, steps)

let mk () = Memimage.create ~name:"prog-test" ~size:4096

let run img p = fst (interp img p)

let check_value msg expected outcome =
  match outcome with
  | Value v -> Alcotest.(check int) msg expected v
  | Crashed m -> Alcotest.fail ("unexpected crash: " ^ m)

(* ---------------- monad ------------------------------------------- *)

let test_return_bind () =
  let img = mk () in
  check_value "return" 5 (run img (Prog.return 5));
  check_value "bind" 6 (run img (Prog.bind (Prog.return 5) (fun x -> Prog.return (x + 1))))

let test_bind_sequences_effects () =
  let img = mk () in
  let p =
    let* () = Prog.store 0 1 in
    let* () = Prog.store 8 2 in
    let* a = Prog.load 0 in
    let* b = Prog.load 8 in
    Prog.return (a * 10 + b)
  in
  check_value "sequenced" 12 (run img p)

let test_fail_short_circuits () =
  let img = mk () in
  let p =
    let* () = Prog.store 0 1 in
    let* () = Prog.fail "boom" in
    Prog.store 0 99
  in
  (match run img p with
   | Crashed "boom" -> ()
   | Crashed m -> Alcotest.fail ("wrong message: " ^ m)
   | Value () -> Alcotest.fail "expected crash");
  Alcotest.(check int) "first store happened" 1 (Memimage.get_word img 0)

let test_map () =
  let img = mk () in
  check_value "map" 10 (run img (Prog.map (fun x -> x * 2) (Prog.return 5)))

let prop_bind_associative =
  (* (m >>= f) >>= g  behaves like  m >>= (fun x -> f x >>= g)
     observed through the interpreter on store/load programs. *)
  QCheck.Test.make ~name:"bind is associative (observationally)" ~count:100
    QCheck.(triple small_int small_int small_int)
    (fun (a, b, c) ->
       let m = Prog.store 0 a in
       let f () = Prog.store 8 b in
       let g () =
         let* x = Prog.load 0 in
         let* y = Prog.load 8 in
         Prog.return (x + y + c)
       in
       let img1 = mk () and img2 = mk () in
       let left = run img1 (Prog.bind (Prog.bind m f) g) in
       let right = run img2 (Prog.bind m (fun () -> Prog.bind (f ()) g)) in
       left = right && Memimage.snapshot img1 = Memimage.snapshot img2)

(* ---------------- helpers ----------------------------------------- *)

let test_iter_range_order () =
  let img = mk () in
  let p =
    let* () =
      Prog.iter_range ~lo:0 ~hi:8 (fun i ->
          let* prev = Prog.load 0 in
          Prog.store 0 ((prev * 10) + i))
    in
    Prog.load 0
  in
  check_value "in order" 1234567 (run img p)

let test_iter_range_empty () =
  let img = mk () in
  let p = Prog.bind (Prog.iter_range ~lo:5 ~hi:5 (fun _ -> Prog.store 0 9))
      (fun () -> Prog.load 0) in
  check_value "empty range" 0 (run img p)

let test_repeat () =
  let img = mk () in
  let p =
    let incr_cell =
      let* v = Prog.load 0 in
      Prog.store 0 (v + 1)
    in
    Prog.bind (Prog.repeat 7 incr_cell) (fun () -> Prog.load 0)
  in
  check_value "repeat 7" 7 (run img p)

let test_iter_list () =
  let img = mk () in
  let p =
    let* () =
      Prog.iter_list (fun v ->
          let* prev = Prog.load 0 in
          Prog.store 0 (prev + v))
        [ 1; 2; 3; 4 ]
    in
    Prog.load 0
  in
  check_value "sum" 10 (run img p)

let test_when () =
  let img = mk () in
  ignore (run img (Prog.when_ false (Prog.store 0 1)));
  Alcotest.(check int) "skipped" 0 (Memimage.get_word img 0);
  ignore (run img (Prog.when_ true (Prog.store 0 1)));
  Alcotest.(check int) "executed" 1 (Memimage.get_word img 0)

let test_guard () =
  let img = mk () in
  (match run img (Prog.guard true "fine") with
   | Value () -> ()
   | Crashed _ -> Alcotest.fail "guard true crashed");
  match run img (Prog.guard false "invariant") with
  | Crashed m ->
    Alcotest.(check bool) "names the invariant" true
      (String.length m > 0 && String.sub m 0 9 = "assertion")
  | Value () -> Alcotest.fail "guard false passed"

(* ---------------- Mem accessors ----------------------------------- *)

let test_mem_table_access () =
  let img = mk () in
  let spec = Layout.spec () in
  let f_v = Layout.int spec "v" in
  let f_s = Layout.str spec "s" ~len:8 in
  Layout.seal spec;
  let tbl = Layout.Table.alloc img ~spec ~rows:4 in
  let p =
    let* () = Prog.Mem.set_int tbl ~row:2 f_v 55 in
    let* () = Prog.Mem.set_str tbl ~row:2 f_s "deux" in
    let* v = Prog.Mem.get_int tbl ~row:2 f_v in
    let* s = Prog.Mem.get_str tbl ~row:2 f_s in
    Prog.return (v, s)
  in
  (match run img p with
   | Value (55, "deux") -> ()
   | Value (v, s) -> Alcotest.fail (Printf.sprintf "got (%d, %s)" v s)
   | Crashed m -> Alcotest.fail m);
  (* DSL access and direct access agree on addressing. *)
  Alcotest.(check int) "direct agrees" 55 (Layout.Table.get_int tbl ~row:2 f_v)

let test_mem_cell_access () =
  let img = mk () in
  let c = Layout.Cell.alloc_int img "cell" in
  let p =
    let* () = Prog.Mem.set_cell c 7 in
    Prog.Mem.get_cell c
  in
  check_value "cell via DSL" 7 (run img p);
  Alcotest.(check int) "direct agrees" 7 (Layout.Cell.get c)

let prop_repeat_count =
  QCheck.Test.make ~name:"repeat n runs exactly n times" ~count:100
    QCheck.(int_range 0 50)
    (fun n ->
       let img = mk () in
       let incr_cell =
         let* v = Prog.load 0 in
         Prog.store 0 (v + 1)
       in
       ignore (run img (Prog.repeat n incr_cell));
       Memimage.get_word img 0 = n)

(* ---------------- freer representation ---------------------------- *)

(* A left-nested chain ((compute >>= f) >>= f) >>= ... of depth [n],
   built iteratively so construction itself needs no stack. *)
let left_nested n =
  let p = ref (Prog.compute 1) in
  for _ = 2 to n do
    p := Prog.bind !p (fun () -> Prog.compute 1)
  done;
  !p

(* Run [left_nested n] as the root process of a booted system; returns
   the minor words allocated per kernel op during the run. *)
let kernel_words_per_op n =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  let root = left_nested n in
  let ops0 = Kernel.total_ops k in
  let w0 = Gc.minor_words () in
  let halt = System.run sys ~root in
  let words = Gc.minor_words () -. w0 in
  let ops = Kernel.total_ops k - ops0 in
  Alcotest.(check string) "chain completes" "completed(0)"
    (Kernel.halt_to_string halt);
  Alcotest.(check bool) "every link executed" true (ops > n);
  words /. float_of_int ops

let test_deep_left_nesting_through_kernel () =
  let small = kernel_words_per_op 1_000 in
  let large = kernel_words_per_op 100_000 in
  if large > 2. *. small then
    Alcotest.failf "words/op grow with nesting depth: %.1f at 10^3, %.1f at 10^5"
      small large

(* Fork resumes one parked view twice: the [Call] a parent blocked in
   is resumed once in PM's step for the child, and later again for the
   parent. The view is immutable, so the two runs must not see each
   other. Left nesting makes [start] push several frames under the
   call's head continuation. *)
let test_resume_parked_view_twice () =
  let p =
    Prog.bind
      (Prog.bind (Prog.call Endpoint.pm (Message.Exit { status = 0 }))
         (fun reply ->
            let x = match reply with Message.R_ok x -> x | _ -> -1 in
            let* () = Prog.store 8 (x * 10) in
            Prog.return x))
      (fun x ->
         let* y = Prog.load 8 in
         Prog.store 16 (x + y))
  in
  match Prog.start p with
  | Prog.Op (Prog.Call (dst, _), f, k) ->
    Alcotest.(check int) "parked on the call to PM" Endpoint.pm dst;
    let run v =
      let img = mk () in
      (match drive img (Prog.next f k (Message.R_ok v)) with
       | None, _ -> ()
       | Some m, _ -> Alcotest.fail m);
      Memimage.get_word img 16
    in
    Alcotest.(check int) "first resume" 11 (run 1);
    Alcotest.(check int) "second resume" 22 (run 2);
    Alcotest.(check int) "first resume again" 11 (run 1)
  | _ -> Alcotest.fail "expected the program to park on its call"

(* Allocation pin for the interpreter's hot path. 78% of the suite's
   ops are loads from server table scans, so drive a 1000-row
   [Srvlib.scan] through [Prog.start]/[Prog.next] with an executor that
   allocates nothing, and count the minor words per primitive: the
   program nodes and closures [scan] builds, plus the view: 22.0 words
   per load. The representation with a [Prim] box around each op and a
   stack frame for the bind around it allocated 26.0 here. *)
let scan_words_per_load_bound = 23.

let rec drive_loads : Memimage.t -> int -> Prog.view -> int =
  fun img n view ->
  match view with
  | Prog.Op (Prog.Load off, f, k) ->
    drive_loads img (n + 1) (Prog.next f k (Memimage.get_word img off))
  | Prog.Op _ -> failwith "scan: unexpected primitive"
  | Prog.Failed m -> failwith m
  | Prog.Finished -> n

let test_scan_words_per_load () =
  let rows = 1000 in
  let img = Memimage.create ~name:"scan" ~size:(rows * 16) in
  let spec = Layout.spec () in
  let f_used = Layout.int spec "used" in
  Layout.seal spec;
  let tbl = Layout.Table.alloc img ~spec ~rows in
  for row = 0 to rows - 1 do Layout.Table.set_int tbl ~row f_used 1 done;
  let scan () =
    Srvlib.scan ~rows (fun row ->
        let* used = Prog.Mem.get_int tbl ~row f_used in
        Prog.return (used = 0))
  in
  let run () = drive_loads img 0 (Prog.start (Prog.map ignore (scan ()))) in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let loads = run () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every row loaded" rows loads;
  let per_load = words /. float_of_int loads in
  if per_load > scan_words_per_load_bound then
    Alcotest.failf "scan allocates %.2f minor words per load (bound %.0f)"
      per_load scan_words_per_load_bound

(* Random programs over the pure primitives. Every node maps an input
   value to an output, so values flow through binds; [Seq] nodes nest
   on either side, giving mixed left/right bind trees. *)
type tree =
  | T_done of int
  | T_fail
  | T_load of int  (* word slot *)
  | T_store of int
  | T_compute
  | T_seq of tree * tree

let rec build tree x : int Prog.t =
  match tree with
  | T_done c -> Prog.return (x + c)
  | T_fail -> Prog.fail "tree"
  | T_load slot ->
    let* v = Prog.load (slot * 8) in
    Prog.return (v + x)
  | T_store slot ->
    let* () = Prog.store (slot * 8) x in
    Prog.return x
  | T_compute ->
    let* () = Prog.compute 1 in
    Prog.return x
  | T_seq (a, b) -> Prog.bind (build a x) (build b)

exception Reference_fail

(* The direct-style meaning of a tree. *)
let rec reference img steps tree x =
  match tree with
  | T_done c -> x + c
  | T_fail -> raise Reference_fail
  | T_load slot -> incr steps; Memimage.get_word img (slot * 8) + x
  | T_store slot -> incr steps; Memimage.set_word img (slot * 8) x; x
  | T_compute -> incr steps; x
  | T_seq (a, b) -> reference img steps b (reference img steps a x)

let rec tree_to_string = function
  | T_done c -> Printf.sprintf "done %d" c
  | T_fail -> "fail"
  | T_load s -> Printf.sprintf "load %d" s
  | T_store s -> Printf.sprintf "store %d" s
  | T_compute -> "compute"
  | T_seq (a, b) ->
    Printf.sprintf "(%s >>= %s)" (tree_to_string a) (tree_to_string b)

let arb_tree =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (3, map (fun c -> T_done c) small_nat);
        (1, return T_fail);
        (4, map (fun s -> T_load s) (int_bound 7));
        (4, map (fun s -> T_store s) (int_bound 7));
        (2, return T_compute) ]
  in
  let gen =
    sized
      (fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [ (1, leaf);
                 (4, map2 (fun a b -> T_seq (a, b)) (self (n / 2))
                      (self (n / 2))) ]))
  in
  QCheck.make ~print:tree_to_string gen

let prop_matches_direct_style =
  QCheck.Test.make ~name:"bind trees match a direct-style evaluator"
    ~count:300 QCheck.(pair arb_tree small_nat)
    (fun (tree, x) ->
       let img = mk () and ref_img = mk () in
       let outcome, steps = interp img (build tree x) in
       let ref_steps = ref 0 in
       let expected =
         try Value (reference ref_img ref_steps tree x)
         with Reference_fail -> Crashed "tree"
       in
       outcome = expected && steps = !ref_steps
       && Memimage.snapshot img = Memimage.snapshot ref_img)

let () =
  Alcotest.run "osiris_program"
    [ ( "monad",
        [ Alcotest.test_case "return/bind" `Quick test_return_bind;
          Alcotest.test_case "effect order" `Quick test_bind_sequences_effects;
          Alcotest.test_case "fail short-circuits" `Quick test_fail_short_circuits;
          Alcotest.test_case "map" `Quick test_map;
          QCheck_alcotest.to_alcotest prop_bind_associative ] );
      ( "helpers",
        [ Alcotest.test_case "iter_range order" `Quick test_iter_range_order;
          Alcotest.test_case "iter_range empty" `Quick test_iter_range_empty;
          Alcotest.test_case "repeat" `Quick test_repeat;
          Alcotest.test_case "iter_list" `Quick test_iter_list;
          Alcotest.test_case "when_" `Quick test_when;
          Alcotest.test_case "guard" `Quick test_guard;
          QCheck_alcotest.to_alcotest prop_repeat_count ] );
      ( "mem",
        [ Alcotest.test_case "table access" `Quick test_mem_table_access;
          Alcotest.test_case "cell access" `Quick test_mem_cell_access ] );
      ( "freer",
        [ Alcotest.test_case "deep left nesting through the kernel" `Quick
            test_deep_left_nesting_through_kernel;
          Alcotest.test_case "resume a parked kont twice" `Quick
            test_resume_parked_view_twice;
          Alcotest.test_case "scan words per load" `Quick
            test_scan_words_per_load;
          QCheck_alcotest.to_alcotest prop_matches_direct_style ] ) ]
