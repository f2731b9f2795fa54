let src = Logs.Src.create "osiris.kernel" ~doc:"OSIRIS simulated kernel"

module Log = (val Logs.src_log src : Logs.LOG)

(* Per-message IPC tracing is on when this source logs at debug level
   ([osiris suite --trace]); the guard keeps the message closures off
   the delivery path otherwise. *)
let[@inline] tracing () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

type arch = Microkernel | Monolithic

let costs_of_arch = function
  | Microkernel -> Costs.microkernel
  | Monolithic -> Costs.monolithic

type op_kind =
  | Op_compute
  | Op_load
  | Op_store
  | Op_send
  | Op_call
  | Op_reply
  | Op_receive
  | Op_kcall
  | Op_spawn
  | Op_yield

let op_kind_index = function
  | Op_compute -> 0
  | Op_load -> 1
  | Op_store -> 2
  | Op_send -> 3
  | Op_call -> 4
  | Op_reply -> 5
  | Op_receive -> 6
  | Op_kcall -> 7
  | Op_spawn -> 8
  | Op_yield -> 9

let n_op_kinds = 10

let op_kind_to_string = function
  | Op_compute -> "compute"
  | Op_load -> "load"
  | Op_store -> "store"
  | Op_send -> "send"
  | Op_call -> "call"
  | Op_reply -> "reply"
  | Op_receive -> "receive"
  | Op_kcall -> "kcall"
  | Op_spawn -> "spawn"
  | Op_yield -> "yield"

let all_op_kinds =
  [ Op_compute; Op_load; Op_store; Op_send; Op_call; Op_reply; Op_receive;
    Op_kcall; Op_spawn; Op_yield ]

(* Cycle-attribution phases: every advance of a process' virtual clock
   is charged to exactly one of these, so a profiler summing hook
   emissions reconstructs each clock exactly (conservation). *)
type phase =
  | Ph_user        (* executing the component's own instructions *)
  | Ph_instr       (* recovery-window instrumentation drag (c_instr_op) *)
  | Ph_log         (* undo-log writes riding on logged stores *)
  | Ph_checkpoint  (* window-open checkpoint / snapshot copy *)
  | Ph_rollback    (* rolling state back after an in-window crash *)
  | Ph_restart     (* restart machinery: clone transfer, clear, go *)
  | Ph_wait        (* blocked on IPC: clock jumps to a peer's time *)

let phase_index = function
  | Ph_user -> 0
  | Ph_instr -> 1
  | Ph_log -> 2
  | Ph_checkpoint -> 3
  | Ph_rollback -> 4
  | Ph_restart -> 5
  | Ph_wait -> 6

let n_phases = 7

let phase_to_string = function
  | Ph_user -> "user"
  | Ph_instr -> "instr"
  | Ph_log -> "undo_log"
  | Ph_checkpoint -> "checkpoint"
  | Ph_rollback -> "rollback"
  | Ph_restart -> "restart"
  | Ph_wait -> "ipc_wait"

let all_phases =
  [ Ph_user; Ph_instr; Ph_log; Ph_checkpoint; Ph_rollback; Ph_restart;
    Ph_wait ]

(* Attribution slots: every static emission point of the cycle hook is
   registered at module init as a (phase, detail) pair and identified
   by a dense integer id. The hook passes the id, not the pair, so a
   profiler can count cycles in flat arrays — no hashing, no string
   comparison on the hot path — which is what keeps the attached-
   profiler overhead inside its gate (bench/profiler_bench.ml). *)
type slot = int

(* The slot table is built by the [mk_slot] calls below, which run
   exactly once, at module initialization — before any domain can be
   spawned. [freeze_slots] (called right after the last registration)
   locks the builder and drops the accumulators, so the only state a
   concurrently running kernel can observe is the immutable arrays
   ([slot_info], [slot_drag]) derived from them. Registering a slot
   after the freeze is a programming error and raises. *)
let slot_defs : (phase * string) list ref = ref []
let n_slot_defs = ref 0
let drag_pairs : (int * int) list ref = ref []
let slots_frozen = ref false

let mk_slot phase detail : slot =
  if !slots_frozen then
    invalid_arg "Kernel.mk_slot: slot table is frozen (module init is over)";
  let id = !n_slot_defs in
  incr n_slot_defs;
  slot_defs := (phase, detail) :: !slot_defs;
  id

(* A slot charged through [charge] gets a [Ph_instr] twin carrying the
   same detail, so recovery-window instrumentation drag is attributed
   per operation. *)
let mk_charged phase detail : slot =
  let m = mk_slot phase detail in
  let d = mk_slot Ph_instr detail in
  drag_pairs := (m, d) :: !drag_pairs;
  m

(* Interpreter operations: busy work, charged with drag. *)
let sl_compute = mk_charged Ph_user "compute"
let sl_load = mk_charged Ph_user "load"
let sl_store = mk_charged Ph_user "store"
let sl_send = mk_charged Ph_user "send"
let sl_call = mk_charged Ph_user "call"
let sl_receive = mk_charged Ph_user "receive"
let sl_reply = mk_charged Ph_user "reply"
let sl_yield = mk_charged Ph_user "yield"
let sl_spawn = mk_charged Ph_user "spawn"
let sl_rand = mk_charged Ph_user "rand"
let sl_now = mk_charged Ph_user "now"

(* Kernel calls, one slot each: recovery-machinery kcalls are
   attributed to the recovery phases even though the Recovery Server
   issues them like any other operation. *)
let sl_kc_fork = mk_charged Ph_user "fork"
let sl_kc_exec = mk_charged Ph_user "exec"
let sl_kc_kill = mk_charged Ph_user "kill"
let sl_kc_crash_context = mk_charged Ph_user "crash_context"
let sl_kc_mk_clone = mk_charged Ph_restart "mk_clone"
let sl_kc_rollback = mk_charged Ph_rollback "rollback"
let sl_kc_clear_state = mk_charged Ph_restart "clear_state"
let sl_kc_go = mk_charged Ph_restart "go"
let sl_kc_reply_error = mk_charged Ph_restart "reply_error"
let sl_kc_shutdown = mk_charged Ph_user "shutdown"
let sl_kc_alarm = mk_charged Ph_user "alarm"
let sl_kc_mmu = mk_charged Ph_user "mmu"
let sl_kc_replay = mk_charged Ph_restart "replay"
let sl_kc_live_update = mk_charged Ph_user "live_update"
let sl_kc_kill_requester = mk_charged Ph_restart "kill_requester"

(* Dragless advances: undo-log rides, checkpoint copies, recovery
   transfers, and IPC-wait clock jumps. The mk_clone / clear_state
   image transfers share the kcall slots of the same name. *)
let sl_log_store = mk_slot Ph_log "store"
let sl_ckpt_snapshot = mk_slot Ph_checkpoint "snapshot"
let sl_ckpt_undo = mk_slot Ph_checkpoint "undo_log"
let sl_restart_downtime = mk_slot Ph_restart "downtime"
let sl_restart_live_update = mk_slot Ph_restart "live_update"
let sl_wait_resume = mk_slot Ph_wait "resume"
let sl_wait_reply = mk_slot Ph_wait "reply"
let sl_wait_spawn = mk_slot Ph_wait "spawn"
let sl_wait_fork = mk_slot Ph_wait "fork"
let sl_wait_exec = mk_slot Ph_wait "exec"
let sl_wait_kill = mk_slot Ph_wait "kill"
let sl_wait_inbox = mk_slot Ph_wait "inbox"

let n_slots = !n_slot_defs

let slot_info : (phase * string) array = Array.of_list (List.rev !slot_defs)

let slot_phase (s : slot) = fst slot_info.(s)
let slot_detail (s : slot) = snd slot_info.(s)

(* Main slot -> its Ph_instr drag twin; -1 for dragless slots. *)
let slot_drag =
  let a = Array.make n_slots (-1) in
  List.iter (fun (m, d) -> a.(m) <- d) !drag_pairs;
  a

(* Freeze: from here on the slot tables are the immutable arrays
   above; the builder refs are emptied so no mutable module state
   survives into the (possibly multi-domain) run. *)
let () =
  slots_frozen := true;
  slot_defs := [];
  n_slot_defs := n_slots;
  drag_pairs := []

let all_slots = List.init n_slots (fun s -> s)

(* slot -> phase index, precomputed so the attribution hot path can
   maintain the kernel-global per-phase cycle totals with two unsafe
   array ops instead of consumers re-scanning every slot row (the
   vtime sampler reads [total_phase_cycles] once per tick). *)
let slot_phase_idx = Array.init n_slots (fun s -> phase_index (slot_phase s))

type site = {
  site_ep : Endpoint.t;
  site_handler : Message.Tag.t option;
  site_kind : op_kind;
  site_occ : int;
}

let site_to_string s =
  Printf.sprintf "%s/%s/%s/%d"
    (Endpoint.server_name s.site_ep)
    (match s.site_handler with
     | None -> "-"
     | Some tag -> Message.Tag.to_string tag)
    (op_kind_to_string s.site_kind)
    s.site_occ

let compare_site a b = compare a b

type fault_action =
  | F_crash of string
  | F_hang
  | F_corrupt_store
  | F_drop_store
  | F_corrupt_msg
  | F_skip_handler
  | F_benign

type server = {
  srv_ep : Endpoint.t;
  srv_name : string;
  srv_image : Memimage.t;
  srv_clone_extra_kb : int;
  srv_init : unit Prog.t;
  srv_loop : unit Prog.t;
  srv_multithreaded : bool;
}

include Kernel_event

let halt_to_string = function
  | H_completed status -> Printf.sprintf "completed(%d)" status
  | H_shutdown reason -> Printf.sprintf "shutdown(%s)" reason
  | H_panic reason -> Printf.sprintf "panic(%s)" reason
  | H_hang -> "hang"

type config = {
  arch : arch;
  policy : Policy.t;
  policies : (Endpoint.t * Policy.t) list;
      (* per-compartment overrides, resolved once per process at
         creation; [policy] covers user processes and unlisted servers *)
  costs : Costs.t;
  seed : int;
  max_ops : int;
  max_vtime : int;
  hang_detect_cycles : int;
  max_crashes : int;
  lookup_program : string -> (int -> unit Prog.t) option;
  log_sink : (string -> unit) option;
}

let default_config ?(arch = Microkernel) ?(seed = 42) ?(policies = []) policy
    ~lookup_program () =
  { arch;
    policy;
    policies;
    costs = costs_of_arch arch;
    seed;
    max_ops = 400_000_000;
    max_vtime = 2_000_000_000;
    hang_detect_cycles = 2_000_000;
    max_crashes = 64;
    lookup_program;
    log_sink = None }

(* ------------------------------------------------------------------ *)
(* Processes and threads                                               *)
(* ------------------------------------------------------------------ *)

type req = {
  rq_src : Endpoint.t;
  rq_src_tid : int;
  rq_tag : Message.Tag.t;
  rq_call : bool;
  rq_msg : Message.t;
  rq_rid : int;  (* causal request id; preserved across K_replay *)
}

(* A parked thread parks on its view: [tview] still holds the [Call] or
   [Receive] it blocked in, with the continuation that takes its
   result. *)
type tstate =
  | T_ready
  | T_call_wait of Endpoint.t  (* the callee *)
  | T_recv_wait

type thread = {
  tid : int;
  mutable tstate : tstate;
  mutable tview : Prog.view;
  mutable treq : req option;
  mutable started : bool;
  mutable cause : int;    (* rid of the request this thread is handling; 0 = root *)
  mutable out_rid : int;  (* rid of this thread's outstanding Call, for reply matching *)
  occ : int array;
}

type inbox_entry = {
  ib_src : Endpoint.t;
  ib_src_tid : int;
  ib_msg : Message.t;
  ib_call : bool;
  ib_time : int;  (* sender's clock at send: receive cannot precede it *)
  ib_rid : int;
}

type crash_ctx = {
  cc_window_open : bool;
  cc_requester : (Endpoint.t * int) option;
  cc_reason : string;
  cc_request : req option;
  cc_rlocal : bool;  (* a requester-local SEEP was crossed in-window *)
}

type kind = Server_proc | User_proc

type proc = {
  ep : Endpoint.t;
  mutable pname : string;
  kind : kind;
  policy : Policy.t;  (* compartment policy, fixed at process creation *)
  image : Memimage.t option;
  window : Window.t option;
  mutable threads : thread list;
  runq : thread Queue.t;
  mutable active : thread option;
  mutable vtime : int;
  inbox : inbox_entry Queue.t;
  mutable alive : bool;
  mutable stalled : bool;
  mutable hung : bool;
  mutable in_heap : bool;
  mutable covering : bool;  (* booted server: coverage/site accounting applies *)
  mutable loop_prog : unit Prog.t option;
  mutable baseline_ready : bool;  (* boot image recorded in the Memimage baseline *)
  mutable restore_saved : int;    (* bytes dirty-region restarts did not blit *)
  clone_extra_kb : int;
  multithreaded : bool;
  mutable crash_ctx : crash_ctx option;
  mutable rlocal_crossed : bool;
  mutable window_seeps : int;
  mutable crashed_at : int;
  handler_tally : (Message.Tag.t, int) Hashtbl.t;
  mutable tid_counter : int;
  mutable ops_total : int;
  mutable ops_in_window : int;
  mutable busy_cycles : int;
  mutable restart_count : int;
  mutable exit_status : int;  (* user procs: status at exit, -1 while alive *)
  mutable exit_vtime : int;   (* user procs: own clock at the exit call *)
  (* Per-slot cycle/event counters, interleaved [2*slot] = cycles and
     [2*slot+1] = events; [||] until [enable_cycle_counts]. Kept on
     the proc so the hot path is a flat array bump with no closure
     call and no lookup — the proc record is already in hand at every
     emission point. *)
  mutable prof : int array;
}

(* Run-queue items are packed ints — [(endpoint lsl 2) lor tag] — so a
   push allocates nothing (see Sched).  Tags: *)
let tag_run = 0
let tag_alarm = 1
let tag_hangcheck = 2

type t = {
  cfg : config;
  rng : Osiris_util.Rng.t;
  procs : (int, proc) Hashtbl.t;
  mutable servers : Endpoint.t list;
  sched : Sched.t;
  mutable run_items : int;
  mutable booted : bool;
  mutable halted : halt option;
  mutable halt_on_exit : Endpoint.t option;
  mutable next_user_ep : int;
  mutable fault_hook : (site -> fault_action option) option;
  mutable capture : Capture.t option;  (* the one observer tap *)
  mutable cycle_hook : (Endpoint.t -> slot -> int -> unit) option;
  mutable profiling : bool;  (* procs carry per-slot counter rows *)
  (* Kernel-global cycles per phase, maintained on the attribution
     path while [profiling]; indexed by [phase_index]. Survives proc
     replacement across restarts, unlike summing per-proc rows. *)
  phase_prof : int array;
  mutable n_ops : int;
  mutable n_crashes : int;
  mutable n_restarts : int;
  mutable n_orphans : int;
  mutable n_machine_checks : int;
  mutable n_delivered : int;
  mutable n_users : int;
  mutable live_users : int;
  mutable halt_on_drain : bool;
  mutable global_now : int;
  mutable recovery_latencies : int list;
  (* Crash instants and (ep, crashed_at, recovered_at) recovery spans,
     newest first. Consing here is off the hot path: crashes are rare
     and bounded by [max_crashes]. *)
  mutable crash_log : int list;
  mutable episode_log : (Endpoint.t * int * int) list;
  (* Virtual-time sampler: fires at every multiple of
     [sample_interval] the global clock crosses. [next_sample] is
     [max_int] when no sampler is installed, so the untelemetered
     clock-advance path pays exactly one compare. *)
  mutable sample_interval : int;
  mutable next_sample : int;
  mutable sample_hook : (int -> unit) option;
  mutable next_rid : int;
  mutable n_shed : int;  (* user exits with EAGAIN shed status 75 *)
}

let create cfg =
  { cfg;
    rng = Osiris_util.Rng.create cfg.seed;
    procs = Hashtbl.create 64;
    servers = [];
    sched = Sched.create ();
    run_items = 0;
    booted = false;
    halted = None;
    halt_on_exit = None;
    next_user_ep = Endpoint.first_user;
    fault_hook = None;
    capture = None;
    cycle_hook = None;
    profiling = false;
    phase_prof = Array.make n_phases 0;
    n_ops = 0;
    n_crashes = 0;
    n_restarts = 0;
    n_orphans = 0;
    n_machine_checks = 0;
    n_delivered = 0;
    n_users = 0;
    live_users = 0;
    halt_on_drain = false;
    global_now = 0;
    recovery_latencies = [];
    crash_log = [];
    episode_log = [];
    sample_interval = 0;
    next_sample = max_int;
    sample_hook = None;
    next_rid = 0;
    n_shed = 0 }

let set_fault_hook t hook = t.fault_hook <- hook

let set_capture t c = t.capture <- c

let set_vtime_sampler t ~interval hook =
  match hook with
  | None ->
    t.sample_hook <- None;
    t.sample_interval <- 0;
    t.next_sample <- max_int
  | Some _ ->
    if interval <= 0 then
      invalid_arg "Kernel.set_vtime_sampler: interval must be positive";
    t.sample_hook <- hook;
    t.sample_interval <- interval;
    (* First boundary strictly ahead of the current clock, so sample
       timestamps are the fixed grid k*interval regardless of when the
       sampler was installed. *)
    t.next_sample <- ((t.global_now / interval) + 1) * interval

(* All global-clock advances funnel through here. The clock only moves
   forward; when it crosses one or more sample boundaries the hook
   fires once per boundary, with the boundary time — so a run's sample
   timestamps are a deterministic grid independent of scheduling
   detail. With no sampler installed [next_sample] is [max_int] and
   the cost is one compare. *)
let[@inline] bump_now t v =
  if v > t.global_now then begin
    t.global_now <- v;
    if v >= t.next_sample then
      match t.sample_hook with
      | None -> t.next_sample <- max_int
      | Some hook ->
        while t.global_now >= t.next_sample do
          let at = t.next_sample in
          t.next_sample <- t.next_sample + t.sample_interval;
          hook at
        done
  end

(* Every emission site must check this first: with no capture
   installed nothing is appended and the hot path pays one load and
   one compare. Each [emit_*] is then a single out-of-line append. *)
let[@inline] observed t =
  match t.capture with Some _ -> true | None -> false

let[@inline never] emit_msg t ~time ~src ~dst ~tag ~call ~rid ~parent ~cls =
  match t.capture with
  | Some c -> Capture.msg c ~time ~src ~dst ~tag ~call ~rid ~parent ~cls
  | None -> ()

let[@inline never] emit_reply t ~time ~src ~dst ~tag ~rid =
  match t.capture with
  | Some c -> Capture.reply c ~time ~src ~dst ~tag ~rid
  | None -> ()

let[@inline never] emit_window_open t ~time ~ep ~rid =
  match t.capture with
  | Some c -> Capture.window_open c ~time ~ep ~rid
  | None -> ()

let[@inline never] emit_window_close t ~time ~ep ~rid ~policy =
  match t.capture with
  | Some c -> Capture.window_close c ~time ~ep ~rid ~policy
  | None -> ()

let[@inline never] emit_checkpoint t ~time ~ep ~rid ~cycles =
  match t.capture with
  | Some c -> Capture.checkpoint c ~time ~ep ~rid ~cycles
  | None -> ()

let[@inline never] emit_store_logged t ~time ~ep ~rid ~bytes =
  match t.capture with
  | Some c -> Capture.store_logged c ~time ~ep ~rid ~bytes
  | None -> ()

let[@inline never] emit_kcall t ~time ~ep ~rid ~kc =
  match t.capture with
  | Some c -> Capture.kcall c ~time ~ep ~rid ~kc
  | None -> ()

let[@inline never] emit_crash t ~time ~ep ~reason ~window_open ~rid ~policy =
  match t.capture with
  | Some c -> Capture.crash c ~time ~ep ~reason ~window_open ~rid ~policy
  | None -> ()

let[@inline never] emit_hang_detected t ~time ~ep =
  match t.capture with
  | Some c -> Capture.hang_detected c ~time ~ep
  | None -> ()

let[@inline never] emit_rollback_begin t ~time ~ep ~rid =
  match t.capture with
  | Some c -> Capture.rollback_begin c ~time ~ep ~rid
  | None -> ()

let[@inline never] emit_rollback_end t ~time ~ep ~rid ~bytes =
  match t.capture with
  | Some c -> Capture.rollback_end c ~time ~ep ~rid ~bytes
  | None -> ()

let[@inline never] emit_restart t ~time ~ep ~rid ~policy =
  match t.capture with
  | Some c -> Capture.restart c ~time ~ep ~rid ~policy
  | None -> ()

let[@inline never] emit_halt t ~time ~halt =
  match t.capture with
  | Some c -> Capture.halt c ~time ~halt
  | None -> ()

let[@inline never] emit_spawn t ~time ~ep ~parent =
  match t.capture with
  | Some c -> Capture.spawn c ~time ~ep ~parent
  | None -> ()

let set_cycle_hook t hook = t.cycle_hook <- hook

(* Cycle attribution, two consumers:
   - per-process slot counters ([enable_cycle_counts]): a flat array
     bump with no closure call, cheap enough to stay inside the
     attached-profiler overhead gate of bench/profiler_bench.ml;
   - the optional closure hook, for consumers that need the event
     stream itself (e.g. the profiler's counter-track sampler). Its
     arguments are immediate ints, so an invocation allocates nothing.
   With neither enabled an emission point pays two branches. *)
let[@inline] cycles t p slot c =
  if c > 0 then begin
    (let a = p.prof in
     if Array.length a <> 0 then begin
       let i = 2 * slot in
       Array.unsafe_set a i (Array.unsafe_get a i + c);
       Array.unsafe_set a (i + 1) (Array.unsafe_get a (i + 1) + 1);
       let ph = Array.unsafe_get slot_phase_idx slot in
       let g = t.phase_prof in
       Array.unsafe_set g ph (Array.unsafe_get g ph + c)
     end);
    match t.cycle_hook with
    | Some f -> f p.ep slot c
    | None -> ()
  end

let prof_row () = Array.make (2 * n_slots) 0

let enable_cycle_counts t =
  t.profiling <- true;
  Hashtbl.iter
    (fun _ p -> if Array.length p.prof = 0 then p.prof <- prof_row ())
    t.procs

(* vtime-only advance (no busy_cycles): checkpoint costs and recovery
   image transfers model elapsed time during which the component is
   not executing its own instructions. *)
let[@inline] advance t p slot c =
  p.vtime <- p.vtime + c;
  cycles t p slot c

(* Max-jump resynchronisation: the process was blocked until [target]
   (a peer's clock, an inbox timestamp, the global clock). *)
let[@inline] sync_to t p slot target =
  if target > p.vtime then begin
    cycles t p slot (target - p.vtime);
    p.vtime <- target
  end

(* Causal request id allocation: every delivered message gets a fresh
   rid; its parent is the sender thread's current cause (the rid of the
   request that thread is itself handling, 0 at a root). Allocation is
   unconditional — an int increment — so attaching a hook mid-run never
   changes numbering. *)
let[@inline] alloc_rid t =
  t.next_rid <- t.next_rid + 1;
  t.next_rid

let shed_exits t = t.n_shed

let set_halt_on_exit t ep = t.halt_on_exit <- Some ep

let fresh_thread p ?(started = true) ?req view =
  let tid = p.tid_counter in
  p.tid_counter <- p.tid_counter + 1;
  let cause = match req with Some r -> r.rq_rid | None -> 0 in
  { tid; tstate = T_ready; tview = view; treq = req; started; cause;
    out_rid = 0; occ = Array.make n_op_kinds 0 }

(* A user thread's way out — a failure, a return without exit(), a
   machine check, a kill — is an exit through PM, so the process table
   stays consistent. *)
let exit_via_pm th status =
  th.tstate <- T_ready;
  th.tview <- Prog.start (Prog.map ignore
                            (Prog.call Endpoint.pm (Message.Exit { status })))

(* Resume a thread parked in [Call] with the reply. The view is
   immutable, so fork resumes the same one twice. A [T_call_wait]
   thread's view is always its [Call]; anything else is a kernel bug,
   not a machine check. *)
let resume_call th (msg : Message.t) =
  match th.tview with
  | Prog.Op (Prog.Call _, f, k) -> Prog.next f k msg
  | _ -> assert false

let proc_of t ep = Hashtbl.find_opt t.procs ep

let get_proc t ep =
  match proc_of t ep with
  | Some p -> p
  | None -> failwith (Printf.sprintf "kernel: unknown endpoint %d" ep)

let runnable p =
  p.alive && (not p.stalled) && (not p.hung)
  && (match p.active with
      | Some _ -> true
      | None -> not (Queue.is_empty p.runq))

let push_run t ep ~key =
  t.run_items <- t.run_items + 1;
  Sched.push t.sched ~key ((ep lsl 2) lor tag_run)

let push_alarm t ep ~key = Sched.push t.sched ~key ((ep lsl 2) lor tag_alarm)

let push_hangcheck t ep ~key =
  Sched.push t.sched ~key ((ep lsl 2) lor tag_hangcheck)

let schedule t p =
  if (not p.in_heap) && runnable p then begin
    p.in_heap <- true;
    push_run t p.ep ~key:p.vtime
  end

(* Wake a receive-parked thread if a message is available. *)
let wake_receiver t p =
  if p.alive && not p.stalled && not (Queue.is_empty p.inbox) then begin
    let rec find = function
      | [] -> None
      | th :: rest ->
        (match th.tstate with T_recv_wait -> Some th | _ -> find rest)
    in
    match find p.threads with
    | None -> ()
    | Some th ->
      th.tstate <- T_ready;
      Queue.push th p.runq;
      schedule t p
  end

let halt t h =
  if t.halted = None then begin
    t.halted <- Some h;
    if observed t then emit_halt t ~time:t.global_now ~halt:h
  end

let panic t reason =
  Log.err (fun m -> m "PANIC: %s" reason);
  halt t (H_panic reason)

(* ------------------------------------------------------------------ *)
(* Windows and coverage                                                *)
(* ------------------------------------------------------------------ *)

let close_window_if_open ?(policy = false) ?(rid = 0) t p =
  match p.window with
  | Some w when Window.is_open w ->
    if policy then Window.note_policy_close w;
    Window.close_window w;
    if observed t then
      emit_window_close t ~time:p.vtime ~ep:p.ep ~rid ~policy
  | _ -> ()

let policy_close ?tag ?(rid = 0) t p cls =
  (* The sender's recovery window closes when a policy-forbidden SEEP
     is crossed (paper Section IV-B). Requester-local SEEPs (extension,
     Section VII) keep the window open but are remembered: crossing one
     switches the reconciliation to kill-requester. *)
  let requester_local =
    match tag with
    | Some tag -> List.mem tag p.policy.Policy.requester_local
    | None -> false
  in
  match p.window with
  | Some w when Window.is_open w ->
    p.window_seeps <- p.window_seeps + 1;
    (* Graduated policies (extension): past the budget, the window
       hardens to pessimistic and any interaction closes it. *)
    let hardened =
      match p.policy.Policy.graduated with
      | Some k -> p.window_seeps > k
      | None -> false
    in
    if requester_local && not hardened then p.rlocal_crossed <- true
    else if hardened || p.policy.Policy.closes_window cls then
      close_window_if_open ~policy:true ~rid t p
  | _ -> ()

let open_handler_window ?(rid = 0) t p =
  if p.policy.Policy.window_on_receive then
    match p.window with
    | Some w ->
      if Window.is_open w then Window.close_window w;
      p.rlocal_crossed <- false;
      p.window_seeps <- 0;
      Window.open_window w;
      if observed t then
        emit_window_open t ~time:p.vtime ~ep:p.ep ~rid;
      (* Full-copy checkpointing pays for the image copy at every
         window open; the undo log pays per store instead. *)
      let snapshot = Window.instrumentation w = Window.Snapshot in
      let cost =
        if snapshot then
          max t.cfg.costs.Costs.c_checkpoint (Memimage.size (Window.image w) / 8)
        else t.cfg.costs.Costs.c_checkpoint
      in
      advance t p (if snapshot then sl_ckpt_snapshot else sl_ckpt_undo) cost;
      if observed t then
        emit_checkpoint t ~time:p.vtime ~ep:p.ep ~rid ~cycles:cost
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Crash handling                                                      *)
(* ------------------------------------------------------------------ *)

let requester_of p =
  (* The endpoint whose in-flight request was being handled by the
     active thread when the crash hit, if it is still awaiting a
     reply. *)
  match p.active with
  | None -> None
  | Some th ->
    (match th.treq with
     | Some r when r.rq_call -> Some (r.rq_src, r.rq_src_tid)
     | _ -> None)

let deliver_to_inbox t ?at ~src ~src_tid ~call ~rid ~parent dst msg =
  let at = match at with Some a -> a | None -> t.global_now in
  match proc_of t dst with
  | None ->
    t.n_orphans <- t.n_orphans + 1;
    Log.debug (fun m -> m "message to unknown endpoint %d dropped" dst)
  | Some p ->
    if not p.alive && not p.stalled then
      (* Retired process: request is lost; a calling sender stays
         blocked forever (visible as a hang). *)
      t.n_orphans <- t.n_orphans + 1
    else begin
      if tracing () then
        Log.debug (fun m ->
            m "t=%-10d %s -> %s  %s%s" at (Endpoint.server_name src)
              (Endpoint.server_name dst)
              (Message.Tag.to_string (Message.Tag.of_msg msg))
              (if call then " (call)" else ""));
      if observed t then begin
        let tag = Message.Tag.of_msg msg in
        emit_msg t ~time:at ~src ~dst ~tag ~call ~rid ~parent
          ~cls:(Seep.classify ~dst tag)
      end;
      Queue.push
        { ib_src = src; ib_src_tid = src_tid; ib_msg = msg; ib_call = call;
          ib_time = at; ib_rid = rid }
        p.inbox;
      t.n_delivered <- t.n_delivered + 1;
      wake_receiver t p;
      schedule t p
    end

let rec crash_proc t p reason =
  t.n_crashes <- t.n_crashes + 1;
  Log.info (fun m -> m "crash: %s (%s) at t=%d" p.pname reason p.vtime);
  if t.n_crashes > t.cfg.max_crashes then
    panic t (Printf.sprintf "crash storm (> %d crashes)" t.cfg.max_crashes)
  else begin
    let window_open =
      match p.window with Some w -> Window.is_open w | None -> false
    in
    let requester = requester_of p in
    let request = match p.active with Some th -> th.treq | None -> None in
    let cause = match p.active with Some th -> th.cause | None -> 0 in
    p.crash_ctx <-
      Some
        { cc_window_open = window_open;
          cc_requester = requester;
          cc_reason = reason;
          cc_request = request;
          cc_rlocal = p.rlocal_crossed };
    (* Inactive threads are part of the component state and survive
       recovery (paper Section IV-E): call-waiting threads and yielded
       ready threads persist. The crashing active thread dies, and the
       receive-parked main loop is replaced by a fresh one at K_go. *)
    let active_tid = match p.active with Some th -> th.tid | None -> -1 in
    p.threads <-
      List.filter
        (fun th ->
           match th.tstate with
           | T_call_wait _ -> true
           | T_ready -> th.tid <> active_tid
           | T_recv_wait -> false)
        p.threads;
    (* The run queue already contains exactly the non-active ready
       threads; leave it as the surviving schedule. *)
    p.active <- None;
    p.alive <- false;
    p.stalled <- true;
    p.hung <- false;
    p.crashed_at <- max p.vtime t.global_now;
    t.crash_log <- p.crashed_at :: t.crash_log;
    if observed t then
      emit_crash t ~time:p.crashed_at ~ep:p.ep ~reason ~window_open
        ~rid:cause ~policy:p.policy.Policy.name;
    match p.policy.Policy.recovery with
    | Policy.No_recovery -> panic t (Printf.sprintf "unrecovered crash in %s: %s" p.pname reason)
    | _ ->
      if p.ep = Endpoint.rs then kernel_recover_rs t p
      else
        (* The notification is parented under the crashed request, so
           RS' recovery handling nests causally beneath the user request
           that triggered the crash. *)
        deliver_to_inbox t ~src:Endpoint.kernel ~src_tid:0 ~call:false
          ~rid:(alloc_rid t) ~parent:cause Endpoint.rs
          (Message.Crash_notify { ep = p.ep; reason })
  end

(* Recovery primitives, shared between RS-driven recovery (kcalls) and
   the kernel's self-recovery path for RS itself. *)

and k_mk_clone t p =
  p.restart_count <- p.restart_count + 1;
  t.n_restarts <- t.n_restarts + 1;
  Log.info (fun m -> m "restart: clone of %s takes over endpoint %d" p.pname p.ep)

and k_clear_state t p =
  Queue.clear p.runq;
  (match p.image with
   | Some img when p.baseline_ready ->
     (* Stateless restart: back to the boot image. Only dirty granules
        are blitted — O(touched state), not O(image). *)
     let restored = Memimage.restore_baseline img in
     p.restore_saved <- p.restore_saved + (Memimage.size img - restored);
     (match p.window with
      | Some w -> Window.close_window w; Window.reinstall_hook w
      | None -> ())
   | _ -> ());
  p.threads <- [];
  Queue.clear p.inbox;
  ignore t

and k_rollback t p =
  match p.window, p.crash_ctx with
  | Some w, Some ctx when ctx.cc_window_open ->
    let rid = match ctx.cc_request with Some rq -> rq.rq_rid | None -> 0 in
    let at = max t.global_now p.vtime in
    if observed t then
      emit_rollback_begin t ~time:at ~ep:p.ep ~rid;
    let before = Undo_log.rollback_bytes (Window.log w) in
    Window.rollback w;
    if observed t then begin
      let bytes =
        if Window.instrumentation w = Window.Snapshot then
          Memimage.size (Window.image w)
        else Undo_log.rollback_bytes (Window.log w) - before
      in
      emit_rollback_end t ~time:at ~ep:p.ep ~rid ~bytes
    end;
    true
  | _ -> false

and k_go t p =
  if p.kind = Server_proc && observed t then begin
    let rid =
      match p.crash_ctx with
      | Some { cc_request = Some rq; _ } -> rq.rq_rid
      | _ -> 0
    in
    emit_restart t ~time:(max t.global_now p.vtime) ~ep:p.ep ~rid
      ~policy:p.policy.Policy.name
  end;
  let recovering = p.crashed_at > 0 in
  if p.kind = Server_proc && recovering then begin
    let recovered_at = max (max t.global_now p.vtime) p.crashed_at in
    t.recovery_latencies <-
      (recovered_at - p.crashed_at) :: t.recovery_latencies;
    t.episode_log <- (p.ep, p.crashed_at, recovered_at) :: t.episode_log;
    p.crashed_at <- 0
  end;
  (match p.kind with
   | Server_proc ->
     (match p.loop_prog with
      | Some loop ->
        let th = fresh_thread p (Prog.start loop) in
        p.threads <- p.threads @ [ th ];
        Queue.push th p.runq
      | None -> ())
   | User_proc -> ());
  p.alive <- true;
  p.stalled <- false;
  p.crash_ctx <- None;
  (* Jump to the global clock: crash downtime when recovering, plain
     wait when a freshly forked/stalled process is released. *)
  if recovering then sync_to t p sl_restart_downtime t.global_now
  else sync_to t p sl_wait_resume t.global_now;
  wake_receiver t p;
  schedule t p

and k_reply_error t ~target ~err =
  (* Error virtualization: resume the requester that will never get a
     real reply from the crashed component. *)
  match proc_of t target with
  | None -> false
  | Some rp ->
    let rec find = function
      | [] -> None
      | th :: rest ->
        (match th.tstate with
         | T_call_wait callee ->
           (match proc_of t callee with
            | Some cp when (not cp.alive) || cp.stalled -> Some (th, callee)
            | _ -> find rest)
         | _ -> find rest)
    in
    (match find rp.threads with
     | None -> false
     | Some (th, callee) ->
       (* The virtualized error closes the requester's in-flight call:
          report it as a reply so its span completes. *)
       if observed t then
         emit_reply t ~time:t.global_now ~src:callee ~dst:target
           ~tag:(Message.Tag.of_msg (Message.R_err err)) ~rid:th.out_rid;
       th.tview <- resume_call th (Message.R_err err);
       th.tstate <- T_ready;
       sync_to t rp sl_wait_reply t.global_now;
       Queue.push th rp.runq;
       schedule t rp;
       true)

and kernel_recover_rs t p =
  (* RS cannot recover itself through message passing; the kernel holds
     a prepared clone and applies the active policy directly (paper
     Section IV-C: "for core system servers, RS replaces the deceased
     component with a clone prepared ahead of time" — for RS the kernel
     plays that role). *)
  let ctx = match p.crash_ctx with Some c -> c | None -> assert false in
  match p.policy.Policy.recovery with
  | Policy.No_recovery -> ()
  | Policy.Restart_fresh ->
    k_mk_clone t p; k_clear_state t p; k_go t p
  | Policy.Restart_keep_state ->
    k_mk_clone t p;
    k_go t p
  | Policy.Rollback_or_shutdown | Policy.Rollback_replay ->
    (* RS recovers itself with error virtualization even under the
       replay extension: replaying into RS itself risks recursion. *)
    if ctx.cc_window_open then begin
      k_mk_clone t p;
      ignore (k_rollback t p);
      (match ctx.cc_requester with
       | Some (req_ep, _) -> ignore (k_reply_error t ~target:req_ep ~err:Errno.E_CRASH)
       | None -> ());
      k_go t p
    end
    else halt t (H_shutdown (Printf.sprintf "rs crashed outside recovery window (%s)" ctx.cc_reason))

(* ------------------------------------------------------------------ *)
(* Server / user creation                                              *)
(* ------------------------------------------------------------------ *)

let add_server t srv =
  (* Per-compartment resolution happens exactly once, here: everything
     downstream (window machinery, SEEP closing, recovery dispatch)
     reads the policy pinned on the process. *)
  let policy =
    match List.assoc_opt srv.srv_ep t.cfg.policies with
    | Some p -> p
    | None -> t.cfg.policy
  in
  let window =
    if policy.Policy.instrumentation <> Window.Never
       || policy.Policy.window_on_receive
    then
      Some
        (Window.create ~dedup:policy.Policy.dedup_log
           policy.Policy.instrumentation srv.srv_image)
    else None
  in
  let p =
    { ep = srv.srv_ep;
      pname = srv.srv_name;
      kind = Server_proc;
      policy;
      image = Some srv.srv_image;
      window;
      threads = [];
      runq = Queue.create ();
      active = None;
      vtime = 0;
      inbox = Queue.create ();
      alive = true;
      stalled = false;
      hung = false;
      in_heap = false;
      covering = false;
      loop_prog = Some srv.srv_loop;
      baseline_ready = false;
      restore_saved = 0;
      clone_extra_kb = srv.srv_clone_extra_kb;
      multithreaded = srv.srv_multithreaded;
      crash_ctx = None;
      rlocal_crossed = false;
      window_seeps = 0;
      crashed_at = 0;
      handler_tally = Hashtbl.create 32;
      tid_counter = 0;
      ops_total = 0;
      ops_in_window = 0;
      busy_cycles = 0;
      restart_count = 0;
      exit_status = -1;
      exit_vtime = -1;
      prof = (if t.profiling then prof_row () else [||]) }
  in
  let main =
    fresh_thread p
      (Prog.start (Prog.bind srv.srv_init (fun () -> srv.srv_loop)))
  in
  p.threads <- [ main ];
  Queue.push main p.runq;
  Hashtbl.replace t.procs srv.srv_ep p;
  t.servers <- t.servers @ [ srv.srv_ep ];
  schedule t p

let spawn_at t ~at ~name ~view ~parent =
  let start = if at > t.global_now then at else t.global_now in
  let ep = t.next_user_ep in
  t.next_user_ep <- t.next_user_ep + 1;
  t.n_users <- t.n_users + 1;
  t.live_users <- t.live_users + 1;
  let p =
    { ep;
      pname = name;
      kind = User_proc;
      policy = t.cfg.policy;
      image = None;
      window = None;
      threads = [];
      runq = Queue.create ();
      active = None;
      vtime = start;
      inbox = Queue.create ();
      alive = true;
      stalled = false;
      hung = false;
      in_heap = false;
      covering = false;
      loop_prog = None;
      baseline_ready = false;
      restore_saved = 0;
      clone_extra_kb = 0;
      multithreaded = false;
      crash_ctx = None;
      rlocal_crossed = false;
      window_seeps = 0;
      crashed_at = 0;
      handler_tally = Hashtbl.create 32;
      tid_counter = 0;
      ops_total = 0;
      ops_in_window = 0;
      busy_cycles = 0;
      restart_count = 0;
      exit_status = -1;
      exit_vtime = -1;
      prof = (if t.profiling then prof_row () else [||]) }
  in
  let th = fresh_thread p view in
  p.threads <- [ th ];
  Queue.push th p.runq;
  Hashtbl.replace t.procs ep p;
  (* Arrival record for the analysis layer: the process' birth instant
     enters the event stream, so latency attribution can anchor
     arrival -> exit without access to workload metadata. [parent] is
     the spawning endpoint; 0 marks harness-injected load. *)
  if observed t then emit_spawn t ~time:start ~ep ~parent;
  (* The clock starts at the global now (or the future arrival
     instant): attribute the pre-existence span so per-process
     attribution still sums to the final clock. *)
  cycles t p sl_wait_spawn start;
  schedule t p;
  ep

let spawn_user_at t ~at ~name ~prog ~parent =
  spawn_at t ~at ~name ~view:(Prog.start prog) ~parent

let spawn_user t ~name ~prog ~parent =
  spawn_user_at t ~at:min_int ~name ~prog ~parent

let destroy_user t p =
  if p.alive then t.live_users <- t.live_users - 1;
  p.alive <- false;
  p.stalled <- true;
  p.threads <- [];
  Queue.clear p.runq;
  Queue.clear p.inbox;
  p.active <- None

(* ------------------------------------------------------------------ *)
(* Live update (extension)                                             *)
(* ------------------------------------------------------------------ *)

let live_update_internal t ep loop =
  match proc_of t ep with
  | None -> Error "unknown endpoint"
  | Some p when p.kind <> Server_proc -> Error "not a server"
  | Some p when not p.alive || p.stalled -> Error "component is recovering"
  | Some p ->
    (* Quiescence: every thread parked in Receive, nothing scheduled,
       window closed. The same condition under which a checkpoint is a
       complete description of the component. *)
    let quiescent =
      p.active = None
      && Queue.is_empty p.runq
      && List.for_all
           (fun th -> match th.tstate with T_recv_wait -> true | _ -> false)
           p.threads
      && (match p.window with Some w -> not (Window.is_open w) | None -> true)
    in
    if not quiescent then Error "component is mid-request"
    else begin
      p.loop_prog <- Some loop;
      (* Retire the old loop thread(s) and start the new code over the
         preserved state, exactly like a recovered clone. *)
      p.threads <- [];
      let th = fresh_thread p (Prog.start loop) in
      p.threads <- [ th ];
      Queue.push th p.runq;
      sync_to t p sl_wait_resume t.global_now;
      (* A real update would also transfer the image into the new
         version's layout; versions here share the layout, so the
         state carries over as-is. Charge the state-transfer cost. *)
      (match p.image with
       | Some img ->
         advance t p sl_restart_live_update (Memimage.size img / 8)
       | None -> ());
      wake_receiver t p;
      schedule t p;
      Ok ()
    end

(* ------------------------------------------------------------------ *)
(* Kcall execution                                                     *)
(* ------------------------------------------------------------------ *)

let exec_kcall t p kc : Prog.kresult =
  match kc with
  | Prog.K_fork { parent } ->
    (match proc_of t parent with
     | None -> Prog.Kr_err Errno.ESRCH
     | Some pp ->
       let rec find = function
         | [] -> None
         | th :: rest ->
           (match th.tstate with
            | T_call_wait callee when callee = p.ep -> Some th
            | _ -> find rest)
       in
       (match find pp.threads with
        | None -> Prog.Kr_err Errno.EINVAL
        | Some th ->
          let child = resume_call th (Message.R_fork { child = 0 }) in
          let cep =
            spawn_at t ~at:min_int ~name:(pp.pname ^ "+") ~view:child ~parent
          in
          let cp = get_proc t cep in
          (* The child starts running only after PM finishes the fork
             bookkeeping and issues K_go. *)
          cp.stalled <- true;
          sync_to t cp sl_wait_fork p.vtime;
          Prog.Kr_ep cep))
  | Prog.K_exec { proc; path; arg } ->
    (match proc_of t proc with
     | None -> Prog.Kr_err Errno.ESRCH
     | Some pp ->
       (match t.cfg.lookup_program path with
        | None -> Prog.Kr_err Errno.ENOENT
        | Some f ->
          let th = fresh_thread pp (Prog.start (f arg)) in
          pp.threads <- [ th ];
          Queue.clear pp.runq;
          pp.active <- None;
          Queue.push th pp.runq;
          pp.pname <- Filename.basename path;
          sync_to t pp sl_wait_exec p.vtime;
          schedule t pp;
          Prog.Kr_ok))
  | Prog.K_kill { proc; status } ->
    (match proc_of t proc with
     | None -> Prog.Kr_err Errno.ESRCH
     | Some pp ->
       (* Completion record for the load engine: the dying process'
          own clock at its exit call — PM teardown excluded. *)
       pp.exit_status <- status;
       pp.exit_vtime <- pp.vtime;
       (* EAGAIN-shed storm requests exit with status 75; count them
          so saturation sweeps can plot shedding alongside goodput. *)
       if status = 75 then t.n_shed <- t.n_shed + 1;
       destroy_user t pp;
       (match t.halt_on_exit with
        | Some root when root = proc -> halt t (H_completed status)
        | _ -> ());
       if t.halt_on_drain && t.live_users = 0 && t.halted = None then
         halt t (H_completed 0);
       Prog.Kr_ok)
  | Prog.K_crash_context ep ->
    (match proc_of t ep with
     | Some { crash_ctx = Some c; _ } ->
       Prog.Kr_context
         { window_open = c.cc_window_open;
           requester = Option.map fst c.cc_requester;
           reason = c.cc_reason;
           rlocal = c.cc_rlocal }
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_mk_clone ep ->
    (match proc_of t ep with
     | Some cp when cp.crash_ctx <> None ->
       k_mk_clone t cp;
       (* The restart phase copies the dead component's data sections
          into the clone; the Recovery Server pays for the transfer
          (~8 bytes/cycle). *)
       (match cp.image with
        | Some img -> advance t p sl_kc_mk_clone (Memimage.size img / 8)
        | None -> ());
       Prog.Kr_ok
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_rollback ep ->
    (match proc_of t ep with
     | Some cp when cp.crash_ctx <> None ->
       if k_rollback t cp then Prog.Kr_ok else Prog.Kr_err Errno.EINVAL
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_clear_state ep ->
    (match proc_of t ep with
     | Some cp ->
       k_clear_state t cp;
       (match cp.image with
        | Some img ->
          advance t p sl_kc_clear_state (Memimage.size img / 8)
        | None -> ());
       Prog.Kr_ok
     | None -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_go ep ->
    (match proc_of t ep with
     | Some cp -> k_go t cp; Prog.Kr_ok
     | None -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_reply_error { proc; err } ->
    if k_reply_error t ~target:proc ~err then Prog.Kr_ok
    else Prog.Kr_err Errno.ESRCH
  | Prog.K_shutdown reason ->
    halt t (H_shutdown reason);
    Prog.Kr_ok
  | Prog.K_alarm { ticks } ->
    push_alarm t p.ep ~key:(p.vtime + ticks);
    Prog.Kr_ok
  | Prog.K_mmu { proc = _ } ->
    (* Page-table manipulation: observable cost only. *)
    Prog.Kr_ok
  | Prog.K_replay ep ->
    (match proc_of t ep with
     | Some ({ crash_ctx = Some { cc_request = Some rq; _ }; _ } as cp) ->
       (* Re-delivery keeps the original rid: the replayed handling is
          the same causal request, not a new one. *)
       Queue.push
         { ib_src = rq.rq_src; ib_src_tid = rq.rq_src_tid; ib_msg = rq.rq_msg;
           ib_call = rq.rq_call; ib_time = p.vtime; ib_rid = rq.rq_rid }
         cp.inbox;
       Prog.Kr_ok
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_live_update { proc; loop } ->
    (match live_update_internal t proc loop with
     | Ok () -> Prog.Kr_ok
     | Error _ -> Prog.Kr_err Errno.EAGAIN)
  | Prog.K_kill_requester { proc } ->
    (match proc_of t proc with
     | Some rp when rp.kind = User_proc && rp.alive ->
       (* Terminate through the normal exit path so PM/VM/VFS clean up
          every trace of the requester. *)
       List.iter (fun th -> exit_via_pm th 137) rp.threads;
       Queue.clear rp.runq;
       (match rp.threads with
        | th :: _ ->
          Queue.push th rp.runq;
          rp.active <- None;
          sync_to t rp sl_wait_kill p.vtime;
          schedule t rp
        | [] -> ());
       Prog.Kr_ok
     | _ -> Prog.Kr_err Errno.ESRCH)

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)
(* ------------------------------------------------------------------ *)

let charge t p slot c =
  (* Instrumentation drag: while stores are being logged, every
     operation of the component carries the undo-log cost of the
     machine-level stores it stands for. The drag is attributed
     separately (the slot's Ph_instr twin) so the profiler can isolate
     window cost from the operation's own phase. *)
  let drag =
    match p.window with
    | Some w when Window.would_log w -> t.cfg.costs.Costs.c_instr_op
    | _ -> 0
  in
  p.vtime <- p.vtime + c + drag;
  p.busy_cycles <- p.busy_cycles + c + drag;
  cycles t p slot c;
  cycles t p (Array.unsafe_get slot_drag slot) drag

(* Like [charge] but without instrumentation drag: the undo-log part
   of a logged store already rides on the same operation, which paid
   the drag once via its base [charge]. *)
let charge_flat t p slot c =
  p.vtime <- p.vtime + c;
  p.busy_cycles <- p.busy_cycles + c;
  cycles t p slot c

let coverage _t p =
  if p.covering then begin
    p.ops_total <- p.ops_total + 1;
    match p.window with
    | Some w when Window.is_open w -> p.ops_in_window <- p.ops_in_window + 1
    | _ -> ()
  end

(* Build the site for this op and consult the fault hook. *)
let op_site t p th kind =
  match t.fault_hook with
  | Some hook when p.covering ->
    let idx = op_kind_index kind in
    (* Cap the occurrence index: a fault site models a *static* program
       location, and loop iterations re-execute the same location. The
       cap collapses spins and long scans into one trailing site. *)
    let occ = min th.occ.(idx) 16 in
    th.occ.(idx) <- th.occ.(idx) + 1;
    let site =
      { site_ep = p.ep;
        site_handler = Option.map (fun r -> r.rq_tag) th.treq;
        site_kind = kind;
        site_occ = occ }
    in
    hook site
  | _ -> None

exception Thread_parked
exception Thread_finished

(* Constant strings: naming a kcall for the event stream allocates
   nothing. *)
let kcall_name : Prog.kcall -> string = function
  | Prog.K_fork _ -> "fork"
  | Prog.K_exec _ -> "exec"
  | Prog.K_kill _ -> "kill"
  | Prog.K_crash_context _ -> "crash_context"
  | Prog.K_mk_clone _ -> "mk_clone"
  | Prog.K_rollback _ -> "rollback"
  | Prog.K_clear_state _ -> "clear_state"
  | Prog.K_go _ -> "go"
  | Prog.K_reply_error _ -> "reply_error"
  | Prog.K_shutdown _ -> "shutdown"
  | Prog.K_alarm _ -> "alarm"
  | Prog.K_mmu _ -> "mmu"
  | Prog.K_replay _ -> "replay"
  | Prog.K_live_update _ -> "live_update"
  | Prog.K_kill_requester _ -> "kill_requester"

(* Attribution slot of a kcall's interpretation cost (see the slot
   registry at the top of this file). *)
let kcall_slot : Prog.kcall -> slot = function
  | Prog.K_fork _ -> sl_kc_fork
  | Prog.K_exec _ -> sl_kc_exec
  | Prog.K_kill _ -> sl_kc_kill
  | Prog.K_crash_context _ -> sl_kc_crash_context
  | Prog.K_mk_clone _ -> sl_kc_mk_clone
  | Prog.K_rollback _ -> sl_kc_rollback
  | Prog.K_clear_state _ -> sl_kc_clear_state
  | Prog.K_go _ -> sl_kc_go
  | Prog.K_reply_error _ -> sl_kc_reply_error
  | Prog.K_shutdown _ -> sl_kc_shutdown
  | Prog.K_alarm _ -> sl_kc_alarm
  | Prog.K_mmu _ -> sl_kc_mmu
  | Prog.K_replay _ -> sl_kc_replay
  | Prog.K_live_update _ -> sl_kc_live_update
  | Prog.K_kill_requester _ -> sl_kc_kill_requester

let deactivate t p =
  (* The active thread stops running: in a multithreaded component the
     next thread's writes would interleave, so the window must close
     (paper Section IV-E). *)
  if p.multithreaded && List.length p.threads > 1 then begin
    let rid = match p.active with Some th -> th.cause | None -> 0 in
    close_window_if_open ~rid t p
  end;
  p.active <- None

let finish_thread t p th =
  (match p.kind with
   | Server_proc ->
     if p.multithreaded then close_window_if_open ~rid:th.cause t p;
     p.threads <- List.filter (fun x -> x.tid <> th.tid) p.threads;
     p.active <- None
   | User_proc ->
     (* A user program that returns without calling exit() is given an
        implicit exit(0) through PM, keeping the process table sound. *)
     exit_via_pm th 0;
     ignore t)

(* An injected hang: the process stops, and only the heartbeat check
   due [hang_detect_cycles] later can notice it. *)
let park_hung t p =
  p.hung <- true;
  push_hangcheck t p.ep ~key:(p.vtime + t.cfg.hang_detect_cycles);
  raise Thread_parked

(* The thread a reply from [callee] wakes: among [threads] parked in a
   [Call] to [callee], the one with tid [pref], else the first in thread
   order. One pass; [first] is the first such caller seen so far. *)
let rec reply_target ~callee ~pref first = function
  | [] -> first
  | th :: rest ->
    (match th.tstate with
     | T_call_wait c when c = callee ->
       if th.tid = pref then Some th
       else
         let first = match first with None -> Some th | Some _ -> first in
         reply_target ~callee ~pref first rest
     | _ -> reply_target ~callee ~pref first rest)

(* Execute exactly one operation of the active thread. Raises
   Thread_parked / Thread_finished to signal scheduling changes. *)
let step t p th =
  let costs = t.cfg.costs in
  t.n_ops <- t.n_ops + 1;
  if t.n_ops > t.cfg.max_ops then halt t H_hang;
  match th.tview with
  | Prog.Finished -> finish_thread t p th; raise Thread_finished
  | Prog.Failed reason ->
    (match p.kind with
     | Server_proc -> crash_proc t p reason; raise Thread_finished
     | User_proc ->
       (* Abnormal user termination: routed through PM as exit(255) so
          the process table stays consistent. *)
       Log.debug (fun m -> m "user %s fail-stop: %s" p.pname reason);
       exit_via_pm th 255)
  | Prog.Op (op, f, k) ->
  match op with
  | Prog.Done _ | Prog.Fail _ | Prog.Bind _ -> assert false
  | Prog.Compute c ->
    coverage t p;
    (match op_site t p th Op_compute with
     | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
     | Some F_hang -> park_hung t p
     | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
     | _ -> ());
    charge t p sl_compute (max c 1);
    th.tview <- Prog.next f k ()
  | Prog.Load off ->
    coverage t p;
    (match p.image with
     | None -> panic t (p.pname ^ ": memory op in user process"); raise Thread_finished
     | Some img ->
       (match op_site t p th Op_load with
        | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
        | Some F_hang -> park_hung t p
        | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
        | _ -> ());
       charge t p sl_load costs.Costs.c_load;
       th.tview <- Prog.next f k (Memimage.get_word img off))
  | Prog.Store (off, v) ->
    coverage t p;
    (match p.image with
     | None -> panic t (p.pname ^ ": memory op in user process"); raise Thread_finished
     | Some img ->
       let action = op_site t p th Op_store in
       (match action with
        | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
        | Some F_hang -> park_hung t p
        | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
        | _ -> ());
       let logged =
         match p.window with Some w -> Window.would_log w | None -> false
       in
       charge t p sl_store costs.Costs.c_store;
       if logged then charge_flat t p sl_log_store costs.Costs.c_log;
       if logged && observed t then
         emit_store_logged t ~time:p.vtime ~ep:p.ep ~rid:th.cause ~bytes:8;
       (match action with
        | Some F_drop_store -> ()
        | Some F_corrupt_store ->
          Memimage.set_word img off (v lxor (1 lsl Osiris_util.Rng.int t.rng 16))
        | _ -> Memimage.set_word img off v);
       th.tview <- Prog.next f k ())
  | Prog.Load_str { off; len } ->
    coverage t p;
    (match p.image with
     | None -> panic t (p.pname ^ ": memory op in user process"); raise Thread_finished
     | Some img ->
       (match op_site t p th Op_load with
        | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
        | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
        | _ -> ());
       charge t p sl_load (costs.Costs.c_load + (len / 8));
       th.tview <- Prog.next f k (Memimage.get_string img ~off ~len))
  | Prog.Store_str { off; len; v } ->
    coverage t p;
    (match p.image with
     | None -> panic t (p.pname ^ ": memory op in user process"); raise Thread_finished
     | Some img ->
       let action = op_site t p th Op_store in
       (match action with
        | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
        | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
        | _ -> ());
       let logged =
         match p.window with Some w -> Window.would_log w | None -> false
       in
       charge t p sl_store
         (costs.Costs.c_store + (len * costs.Costs.c_store_per_byte));
       if logged then
         charge_flat t p sl_log_store
           (costs.Costs.c_log + (len * costs.Costs.c_log_per_byte));
       if logged && observed t then
         emit_store_logged t ~time:p.vtime ~ep:p.ep ~rid:th.cause ~bytes:len;
       (match action with
        | Some F_drop_store -> ()
        | Some F_corrupt_store ->
          Memimage.set_string img ~off ~len
            (Message.(match corrupt t.rng (Diag { line = v }) with
                 | Diag { line } -> line
                 | _ -> v))
        | _ -> Memimage.set_string img ~off ~len v);
       th.tview <- Prog.next f k ())
  | Prog.Send (dst, msg) ->
    coverage t p;
    let action = op_site t p th Op_send in
    (match action with
     | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
     | Some F_hang -> park_hung t p
     | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
     | _ -> ());
    let msg =
      match action with
      | Some F_corrupt_msg -> Message.corrupt t.rng msg
      | _ -> msg
    in
    charge t p sl_send costs.Costs.c_send;
    if p.kind = Server_proc then
      policy_close ~tag:(Message.Tag.of_msg msg) ~rid:th.cause t p
        (Seep.classify_msg ~dst msg);
    (if dst = Endpoint.kernel then
       match msg, t.cfg.log_sink with
       | Message.Diag { line }, Some sink -> sink line
       | _ -> ()
     else
       deliver_to_inbox t ~src:p.ep ~src_tid:th.tid ~call:false
         ~rid:(alloc_rid t) ~parent:th.cause dst msg);
    th.tview <- Prog.next f k ()
  | Prog.Call (dst, msg) ->
    coverage t p;
    let action = op_site t p th Op_call in
    (match action with
     | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
     | Some F_hang -> park_hung t p
     | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
     | _ -> ());
    let msg =
      match action with
      | Some F_corrupt_msg -> Message.corrupt t.rng msg
      | _ -> msg
    in
    charge t p sl_call costs.Costs.c_call;
    if p.kind = Server_proc then
      policy_close ~tag:(Message.Tag.of_msg msg) ~rid:th.cause t p
        (Seep.classify_msg ~dst msg);
    if dst = Endpoint.kernel then begin
      (match msg, t.cfg.log_sink with
       | Message.Diag { line }, Some sink -> sink line
       | _ -> ());
      th.tview <- Prog.next f k (Message.R_ok 0)
    end
    else begin
      let rid = alloc_rid t in
      th.out_rid <- rid;
      th.tstate <- T_call_wait dst;
      deliver_to_inbox t ~at:p.vtime ~src:p.ep ~src_tid:th.tid ~call:true
        ~rid ~parent:th.cause dst msg;
      deactivate t p;
      raise Thread_parked
    end
  | Prog.Receive ->
    coverage t p;
    (* Back at the top of the loop: the previous request is done and its
       effects are committed — even when the handler sent no reply (a
       deferred waitpid, a notification). Rolling back past this point
       would silently undo state other components rely on, so the
       window must close here, not at the next checkpoint. *)
    if p.kind = Server_proc then close_window_if_open ~rid:th.cause t p;
    th.treq <- None;
    th.cause <- 0;
    (match op_site t p th Op_receive with
     | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
     | Some F_hang -> park_hung t p
     | _ -> ());
    charge t p sl_receive costs.Costs.c_receive;
    if p.kind = User_proc then begin
      panic t (p.pname ^ ": receive in user process");
      raise Thread_finished
    end;
    if Queue.is_empty p.inbox then begin
      th.tstate <- T_recv_wait;
      deactivate t p;
      raise Thread_parked
    end
    else begin
      let entry = Queue.pop p.inbox in
      sync_to t p sl_wait_inbox entry.ib_time;
      th.treq <-
        Some { rq_src = entry.ib_src;
               rq_src_tid = entry.ib_src_tid;
               rq_tag = Message.Tag.of_msg entry.ib_msg;
               rq_call = entry.ib_call;
               rq_msg = entry.ib_msg;
               rq_rid = entry.ib_rid };
      th.cause <- entry.ib_rid;
      if t.booted then begin
        let tag = Message.Tag.of_msg entry.ib_msg in
        Hashtbl.replace p.handler_tally tag
          (1 + Option.value ~default:0 (Hashtbl.find_opt p.handler_tally tag))
      end;
      Array.fill th.occ 0 n_op_kinds 0;
      open_handler_window ~rid:entry.ib_rid t p;
      th.tview <- Prog.next f k (entry.ib_src, entry.ib_msg)
    end
  | Prog.Reply (dst, msg) ->
    coverage t p;
    let action = op_site t p th Op_reply in
    (match action with
     | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
     | Some F_hang -> park_hung t p
     | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
     | _ -> ());
    let msg =
      match action with
      | Some F_corrupt_msg -> Message.corrupt t.rng msg
      | _ -> msg
    in
    charge t p sl_reply costs.Costs.c_reply;
    if p.kind = Server_proc then policy_close ~rid:th.cause t p Seep.Reply;
    (match proc_of t dst with
     | None -> t.n_orphans <- t.n_orphans + 1
     | Some rp ->
       let pref =
         match th.treq with
         | Some r when r.rq_src = dst -> r.rq_src_tid
         | _ -> -1
       in
       (match reply_target ~callee:p.ep ~pref None rp.threads with
        | None -> t.n_orphans <- t.n_orphans + 1
        | Some th' ->
          if tracing () then
            Log.debug (fun m ->
                m "t=%-10d %s => %s  reply %s" p.vtime
                  (Endpoint.server_name p.ep) (Endpoint.server_name dst)
                  (Message.Tag.to_string (Message.Tag.of_msg msg)));
          if observed t then
            emit_reply t ~time:p.vtime ~src:p.ep ~dst
              ~tag:(Message.Tag.of_msg msg) ~rid:th'.out_rid;
          th'.tview <- resume_call th' msg;
          th'.tstate <- T_ready;
          sync_to t rp sl_wait_reply p.vtime;
          Queue.push th' rp.runq;
          schedule t rp));
    th.tview <- Prog.next f k ()
  | Prog.Yield ->
    coverage t p;
    charge t p sl_yield costs.Costs.c_yield;
    th.tview <- Prog.next f k ();
    Queue.push th p.runq;
    deactivate t p;
    raise Thread_parked
  | Prog.Spawn prog ->
    coverage t p;
    (match op_site t p th Op_spawn with
     | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
     | _ -> ());
    charge t p sl_spawn costs.Costs.c_spawn;
    let nth = fresh_thread p ~started:false ?req:th.treq (Prog.start prog) in
    p.threads <- p.threads @ [ nth ];
    Queue.push nth p.runq;
    th.tview <- Prog.next f k ()
  | Prog.Kcall kc ->
    coverage t p;
    (match op_site t p th Op_kcall with
     | Some (F_crash r) -> crash_proc t p r; raise Thread_finished
     | Some F_hang -> park_hung t p
     | Some F_skip_handler -> finish_thread t p th; raise Thread_finished
     | _ -> ());
    charge t p (kcall_slot kc) costs.Costs.c_kcall;
    if observed t then
      emit_kcall t ~time:p.vtime ~ep:p.ep ~rid:th.cause ~kc:(kcall_name kc);
    if p.kind = Server_proc then begin
      let cls =
        match kc with
        | Prog.K_crash_context _ -> Seep.Read_only
        | _ -> Seep.State_modifying
      in
      policy_close ~rid:th.cause t p cls
    end;
    let r = exec_kcall t p kc in
    th.tview <- Prog.next f k r
  | Prog.Rand bound ->
    coverage t p;
    charge t p sl_rand 1;
    th.tview <- Prog.next f k (Osiris_util.Rng.int t.rng (max bound 1))
  | Prog.Now ->
    coverage t p;
    charge t p sl_now 1;
    th.tview <- Prog.next f k p.vtime

(* Activate the next ready thread of [p], handling window bookkeeping
   for handler threads that start running for the first time. *)
let activate_next t p =
  match p.active with
  | Some _ -> true
  | None ->
    if Queue.is_empty p.runq then false
    else begin
      let th = Queue.pop p.runq in
      p.active <- Some th;
      if not th.started then begin
        th.started <- true;
        Array.fill th.occ 0 n_op_kinds 0;
        if p.kind = Server_proc then open_handler_window t p
      end;
      true
    end

(* A simulated program tripped a host-level exception: a corrupted
   table row driving an out-of-bounds [Layout] access, offset
   arithmetic walking off an image, division by corrupted data. On
   real hardware this is an MMU fault or machine check delivered to
   the kernel — the offending process dies and the recovery policy
   decides what happens next; it must never take down the simulation
   harness (injected corruption is the only way here on a healthy
   tree). Only the exception constructors corrupted data can provoke
   are absorbed; anything else (Assert_failure, Out_of_memory, ...)
   still propagates as a harness bug. *)
let machine_check t p th exn =
  t.n_machine_checks <- t.n_machine_checks + 1;
  let reason =
    Printf.sprintf "machine check: %s" (Printexc.to_string exn)
  in
  match p.kind with
  | Server_proc -> crash_proc t p reason
  | User_proc ->
    Log.debug (fun m -> m "user %s %s" p.pname reason);
    exit_via_pm th 255

let exec_proc t p =
  let continue = ref true in
  while !continue && t.halted = None do
    if not (p.alive && (not p.stalled) && not p.hung) then continue := false
    else if not (activate_next t p) then continue := false
    else begin
      match p.active with
      | None -> continue := false
      | Some th ->
        (match th.tstate with
         | T_ready ->
           (try step t p th with
            | Thread_parked -> ()
            | Thread_finished -> ()
            | (Invalid_argument _ | Failure _ | Not_found
              | Division_by_zero) as exn ->
              machine_check t p th exn)
         | T_call_wait _ | T_recv_wait ->
           (* Parked while marked active: clear and pick next. *)
           p.active <- None);
        (* Preemption check: if another item in the queue is due
           before this process' clock, give it the CPU.  [next_key]
           is a cached int read ([max_int] when empty) — no boxing on
           this per-op path. *)
        if Sched.next_key t.sched < p.vtime then begin
          continue := false;
          schedule t p
        end
    end
  done;
  bump_now t p.vtime

(* ------------------------------------------------------------------ *)
(* Main loops                                                          *)
(* ------------------------------------------------------------------ *)

let dispatch t item =
  let ep = item lsr 2 in
  let tag = item land 3 in
  if tag = tag_run then begin
    t.run_items <- t.run_items - 1;
    match proc_of t ep with
    | None -> ()
    | Some p ->
      p.in_heap <- false;
      if runnable p then exec_proc t p
  end
  else if tag = tag_alarm then
    deliver_to_inbox t ~src:Endpoint.kernel ~src_tid:0 ~call:false
      ~rid:(alloc_rid t) ~parent:0 ep Message.Alarm
  else
    match proc_of t ep with
    | Some p when p.hung && p.alive ->
      p.hung <- false;
      if observed t then
        emit_hang_detected t ~time:t.global_now ~ep:p.ep;
      crash_proc t p "hang detected by heartbeat"
    | _ -> ()

let pump t ~until_quiescent =
  let continue = ref true in
  while !continue && t.halted = None do
    if until_quiescent && t.run_items = 0 then continue := false
    else begin
      let item = Sched.pop t.sched in
      if item < 0 then continue := false
      else begin
        let key = Sched.popped_key t.sched in
        bump_now t key;
        (* Virtual-time cutoff: a system that is past the deadline is
           hung (deadlocked processes, spinning readers, or an idle
           timer chain with no forward progress). *)
        if (not until_quiescent) && key > t.cfg.max_vtime then
          halt t H_hang
        else dispatch t item
      end
    end
  done;
  (* Hand the consumer everything emitted so far, so its view is
     complete whenever [boot] or [run] returns. *)
  match t.capture with Some c -> Capture.drain c | None -> ()

let boot t =
  pump t ~until_quiescent:true;
  (match t.halted with
   | Some h -> failwith ("kernel: boot failed: " ^ halt_to_string h)
   | None -> ());
  Hashtbl.iter
    (fun _ p ->
       (* Flattened fast-path flag: coverage/site accounting applies
          to servers from boot on (see [coverage] / [op_site]). *)
       if p.kind = Server_proc then p.covering <- true;
       match p.image with
       | Some img when p.kind = Server_proc ->
         (* The booted image is the pristine clone state: record it as
            the dirty-tracking baseline so stateless restarts blit only
            the granules touched since boot. *)
         Memimage.set_baseline img;
         p.baseline_ready <- true
       | _ -> ())
    t.procs;
  t.booted <- true

let run t =
  pump t ~until_quiescent:false;
  match t.halted with
  | Some h -> h
  | None -> H_hang

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let now t = t.global_now

let total_ops t = t.n_ops

type server_stats = {
  ss_name : string;
  ss_policy : string;
  ss_ops_total : int;
  ss_ops_in_window : int;
  ss_busy_cycles : int;
  ss_logged_stores : int;
  ss_skipped_stores : int;
  ss_deduped_stores : int;
  ss_undo_peak_bytes : int;
  ss_undo_entries_lifetime : int;
  ss_rollback_bytes : int;
  ss_restore_bytes_saved : int;
  ss_image_bytes : int;
  ss_image_used_bytes : int;
  ss_clone_extra_kb : int;
  ss_window_opens : int;
  ss_policy_closes : int;
  ss_restarts : int;
}

let server_stats t ep =
  let p = get_proc t ep in
  let logged, skipped, deduped, peak, lifetime, rollback_b, opens, closes =
    match p.window with
    | Some w ->
      ( Window.logged_stores w,
        Window.skipped_stores w,
        Window.deduped_stores w,
        Undo_log.peak_bytes (Window.log w),
        Undo_log.total_records (Window.log w),
        Undo_log.rollback_bytes (Window.log w),
        Window.opens w,
        Window.closes_by_policy w )
    | None -> (0, 0, 0, 0, 0, 0, 0, 0)
  in
  { ss_name = p.pname;
    ss_policy = p.policy.Policy.name;
    ss_ops_total = p.ops_total;
    ss_ops_in_window = p.ops_in_window;
    ss_busy_cycles = p.busy_cycles;
    ss_logged_stores = logged;
    ss_skipped_stores = skipped;
    ss_deduped_stores = deduped;
    ss_undo_peak_bytes = peak;
    ss_undo_entries_lifetime = lifetime;
    ss_rollback_bytes = rollback_b;
    ss_restore_bytes_saved = p.restore_saved;
    ss_image_bytes = (match p.image with Some i -> Memimage.size i | None -> 0);
    ss_image_used_bytes =
      (match p.image with Some i -> Memimage.allocated i | None -> 0);
    ss_clone_extra_kb = p.clone_extra_kb;
    ss_window_opens = opens;
    ss_policy_closes = closes;
    ss_restarts = p.restart_count }

let server_image t ep =
  match proc_of t ep with
  | Some { image = Some img; _ } -> Some (Memimage.snapshot img)
  | _ -> None

let server_endpoints t = t.servers

let handler_counts t ep =
  match proc_of t ep with
  | None -> []
  | Some p -> Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) p.handler_tally []

let recovery_latencies t = t.recovery_latencies
let crash_times t = t.crash_log
let recovery_episodes t = t.episode_log

let crashes t = t.n_crashes
let restarts t = t.n_restarts
let orphaned_replies t = t.n_orphans
let machine_checks t = t.n_machine_checks
let messages_delivered t = t.n_delivered

let run_queue_depth t = t.run_items

(* The per-proc readers below use [Hashtbl.find] + exception instead
   of [proc_of]: [Hashtbl.find_opt] allocates the [Some], and the
   vtime sampler reads dozens of these per tick under a zero-alloc
   gate (bench/timeseries_bench.ml). *)

let proc_alive t ep =
  match Hashtbl.find t.procs ep with
  | p -> p.alive
  | exception Not_found -> false

let proc_policy_name t ep =
  match proc_of t ep with Some p -> Some p.policy.Policy.name | None -> None

let proc_vtime t ep =
  match Hashtbl.find t.procs ep with
  | p -> p.vtime
  | exception Not_found -> 0

let inbox_depth t ep =
  match Hashtbl.find t.procs ep with
  | p -> Queue.length p.inbox
  | exception Not_found -> 0

(* Server proc handles: server records are installed once by
   [add_server] and mutated in place across crash/recovery (only
   [spawn_user] ever replaces a procs entry), so a handle captured at
   telemetry registration stays valid for the kernel's lifetime and
   turns the per-tick inbox/alive reads into direct field loads. *)
type proc_handle = proc

let server_handle t ep =
  match Hashtbl.find t.procs ep with
  | p -> Some p
  | exception Not_found -> None

let handle_alive (p : proc_handle) = p.alive
let handle_inbox_depth (p : proc_handle) = Queue.length p.inbox

let slot_cycles t ep slot =
  match Hashtbl.find t.procs ep with
  | p -> if Array.length p.prof <> 0 then p.prof.(2 * slot) else 0
  | exception Not_found -> 0

let slot_events t ep slot =
  match Hashtbl.find t.procs ep with
  | p -> if Array.length p.prof <> 0 then p.prof.((2 * slot) + 1) else 0
  | exception Not_found -> 0

(* Top-level tail recursion over immediates (like [Histogram.bits]):
   a local [ref] or closure would allocate, and this runs inside the
   zero-alloc vtime sampler. *)
let rec sum_phase_slots prof ph s acc =
  if s >= n_slots then acc
  else
    sum_phase_slots prof ph (s + 1)
      (if slot_phase s = ph then acc + prof.(2 * s) else acc)

let phase_cycles t ep ph =
  match Hashtbl.find t.procs ep with
  | p -> if Array.length p.prof = 0 then 0 else sum_phase_slots p.prof ph 0 0
  | exception Not_found -> 0

let total_phase_cycles t ph = t.phase_prof.(phase_index ph)

let profiled_procs t =
  Hashtbl.fold
    (fun _ p acc -> if Array.length p.prof <> 0 then acc + 1 else acc)
    t.procs 0

let window_is_open t ep =
  match Hashtbl.find t.procs ep with
  | { window = Some w; _ } -> Window.is_open w
  | _ -> false
  | exception Not_found -> false

let user_count t = t.n_users

let set_halt_on_drain t = t.halt_on_drain <- true

let user_exit t ep =
  match proc_of t ep with
  | Some p when p.exit_status >= 0 -> Some (p.exit_status, p.exit_vtime)
  | _ -> None

let live_update = live_update_internal
