open Prog.Syntax

(* libc-level error-virtualization awareness: an E_CRASH reply means
   the serving component crashed inside an open recovery window and was
   rolled back; no state changed, so one transparent retry is safe and
   is what a well-written MINIX libc would do (cf. EINTR restart
   semantics). A second E_CRASH is surfaced to the caller. *)
let sys_call dst msg =
  let* r = Prog.call dst msg in
  match r with
  | Message.R_err Errno.E_CRASH -> Prog.call dst msg
  | other -> Prog.return other

let code_of_reply = function
  | Message.R_ok v -> v
  | Message.R_err e -> Errno.to_code e
  | _ -> Errno.to_code Errno.EIO

let fork =
  let* r = sys_call Endpoint.pm Message.Fork in
  match r with
  | Message.R_fork { child } -> Prog.return child
  | other -> Prog.return (code_of_reply other)

let exec path arg =
  let* r = sys_call Endpoint.pm (Message.Exec { path; arg }) in
  (* Only reachable on failure: success replaces this program. *)
  Prog.return (code_of_reply r)

let exit : type a. int -> a Prog.t =
  fun status ->
  (* Normally unreachable beyond the call: the kernel destroys the
     process before a reply could arrive. A reply can only mean PM
     crashed inside its recovery window while handling the exit — the
     rollback guarantees no side effects, so retrying is safe. *)
  let rec go () : a Prog.t =
    Prog.bind (Prog.call Endpoint.pm (Message.Exit { status })) (fun _ -> go ())
  in
  go ()

let waitpid pid =
  let* r = sys_call Endpoint.pm (Message.Waitpid { pid }) in
  match r with
  | Message.R_wait { pid; status } -> Prog.return (pid, status)
  | other -> Prog.return (code_of_reply other, 0)

let wait = waitpid (-1)

let getpid =
  let* r = sys_call Endpoint.pm Message.Getpid in
  Prog.return (code_of_reply r)

let getppid =
  let* r = sys_call Endpoint.pm Message.Getppid in
  Prog.return (code_of_reply r)

let kill ~pid ~signal =
  let* r = sys_call Endpoint.pm (Message.Kill { pid; signal }) in
  Prog.return (code_of_reply r)

let signal_ignore ~signal ignore =
  let* r = sys_call Endpoint.pm (Message.Signal_set { signal; ignore }) in
  Prog.return (code_of_reply r)

let adopt =
  let* r = sys_call Endpoint.pm Message.Adopt in
  Prog.return (code_of_reply r)

let open_ path flags =
  let* r = sys_call Endpoint.vfs (Message.Open { path; flags }) in
  Prog.return (code_of_reply r)

let close fd =
  let* r = sys_call Endpoint.vfs (Message.Close { fd }) in
  Prog.return (code_of_reply r)

let read ~fd ~len =
  let* r = sys_call Endpoint.vfs (Message.Read { fd; len }) in
  match r with
  | Message.R_read { data } -> Prog.return (Ok data)
  | Message.R_err e -> Prog.return (Error e)
  | _ -> Prog.return (Error Errno.EIO)

let write ~fd data =
  let* r = sys_call Endpoint.vfs (Message.Write { fd; data }) in
  Prog.return (code_of_reply r)

let lseek ~fd ~off whence =
  let* r = sys_call Endpoint.vfs (Message.Lseek { fd; off; whence }) in
  Prog.return (code_of_reply r)

let pipe =
  let* r = sys_call Endpoint.vfs Message.Pipe in
  match r with
  | Message.R_pipe { rfd; wfd } -> Prog.return (Ok (rfd, wfd))
  | Message.R_err e -> Prog.return (Error e)
  | _ -> Prog.return (Error Errno.EIO)

let dup fd =
  let* r = sys_call Endpoint.vfs (Message.Dup { fd }) in
  Prog.return (code_of_reply r)

let dup2 ~fd ~tofd =
  let* r = sys_call Endpoint.vfs (Message.Dup2 { fd; tofd }) in
  Prog.return (code_of_reply r)

let readdir path =
  let* r = sys_call Endpoint.vfs (Message.Readdir { path }) in
  match r with
  | Message.R_names { names } -> Prog.return (Ok names)
  | Message.R_err e -> Prog.return (Error e)
  | _ -> Prog.return (Error Errno.EIO)

let unlink path =
  let* r = sys_call Endpoint.vfs (Message.Unlink { path }) in
  Prog.return (code_of_reply r)

let mkdir path =
  let* r = sys_call Endpoint.vfs (Message.Mkdir { path }) in
  Prog.return (code_of_reply r)

let rmdir path =
  let* r = sys_call Endpoint.vfs (Message.Rmdir { path }) in
  Prog.return (code_of_reply r)

let rename ~src ~dst =
  let* r = sys_call Endpoint.vfs (Message.Rename { src; dst }) in
  Prog.return (code_of_reply r)

let stat path =
  let* r = sys_call Endpoint.vfs (Message.Stat { path }) in
  match r with
  | Message.R_stat info -> Prog.return (Ok info)
  | Message.R_err e -> Prog.return (Error e)
  | _ -> Prog.return (Error Errno.EIO)

let fstat fd =
  let* r = sys_call Endpoint.vfs (Message.Fstat { fd }) in
  match r with
  | Message.R_stat info -> Prog.return (Ok info)
  | Message.R_err e -> Prog.return (Error e)
  | _ -> Prog.return (Error Errno.EIO)

let chdir path =
  let* r = sys_call Endpoint.vfs (Message.Chdir { path }) in
  Prog.return (code_of_reply r)

let sync =
  let* r = sys_call Endpoint.vfs Message.Sync in
  Prog.return (code_of_reply r)

let sbrk delta =
  let* r = sys_call Endpoint.vm (Message.Brk { delta }) in
  match r with
  | Message.R_brk { break } -> Prog.return break
  | other -> Prog.return (code_of_reply other)

let brk_current =
  let* r = sys_call Endpoint.vm Message.Brk_query in
  match r with
  | Message.R_brk { break } -> Prog.return break
  | other -> Prog.return (code_of_reply other)

let mmap ~len =
  let* r = sys_call Endpoint.vm (Message.Mmap { len }) in
  match r with
  | Message.R_mmap { id } -> Prog.return id
  | other -> Prog.return (code_of_reply other)

let munmap ~id =
  let* r = sys_call Endpoint.vm (Message.Munmap { id }) in
  Prog.return (code_of_reply r)

let vm_info =
  let* r = sys_call Endpoint.vm Message.Vm_info in
  match r with
  | Message.R_vm_info { pages_used; pages_free } ->
    Prog.return (pages_used, pages_free)
  | other -> Prog.return (code_of_reply other, 0)

let ds_publish ~key ~value =
  let* r = sys_call Endpoint.ds (Message.Ds_publish { key; value }) in
  Prog.return (code_of_reply r)

let ds_retrieve ~key =
  let* r = sys_call Endpoint.ds (Message.Ds_retrieve { key }) in
  match r with
  | Message.R_ds_value { value } -> Prog.return (Ok value)
  | Message.R_err e -> Prog.return (Error e)
  | _ -> Prog.return (Error Errno.EIO)

let ds_delete ~key =
  let* r = sys_call Endpoint.ds (Message.Ds_delete { key }) in
  Prog.return (code_of_reply r)

let ds_subscribe ~prefix =
  let* r = sys_call Endpoint.ds (Message.Ds_subscribe { prefix }) in
  Prog.return (code_of_reply r)

let rs_status =
  let* r = sys_call Endpoint.rs Message.Rs_status in
  match r with
  | Message.R_rs_status { restarts; shutdowns; services } ->
    Prog.return (Ok (restarts, shutdowns, services))
  | Message.R_err e -> Prog.return (Error e)
  | _ -> Prog.return (Error Errno.EIO)

let print line = Prog.send Endpoint.kernel (Message.Diag { line })
