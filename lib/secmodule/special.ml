module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Sysno = Smod_kern.Sysno

let fork smod conn (p : Proc.t) ~name ~child_main =
  let machine = Smod.machine smod in
  let session =
    match Smod.session_of_client smod ~client_pid:p.Proc.pid with
    | Some s -> s
    | None -> Errno.raise_errno Errno.EPERM "smod fork: caller has no session"
  in
  ignore conn;
  let module_name = session.Smod.entry.Registry.image.Smod_modfmt.Smof.mod_name in
  let version = session.Smod.entry.Registry.image.Smod_modfmt.Smof.mod_version in
  let credential = session.Smod.credential in
  Machine.sys_fork machine p ~name ~child_body:(fun child ->
      (* The heavy lifting for fork sits outside the kernel (§4.3): the
         child re-runs the crt0 sequence, which forcibly forks its own
         private handle. *)
      let child_conn =
        Stub.connect smod child ~module_name ~version ~credential
      in
      Fun.protect ~finally:(fun () -> Stub.close child_conn) (fun () -> child_main child_conn))

let execve smod (p : Proc.t) ~image = Machine.sys_execve (Smod.machine smod) p ~image

let kill smod (p : Proc.t) ~pid ~signal =
  let machine = Smod.machine smod in
  let target_pid =
    match Smod.session_of_handle smod ~handle_pid:pid with
    | Some session -> session.Smod.client_pid
    | None -> pid
  in
  ignore (Machine.syscall machine p Sysno.kill [| target_pid; signal |])

let getpid smod (p : Proc.t) = Machine.sys_getpid (Smod.machine smod) p

let wait smod (p : Proc.t) = Machine.sys_wait (Smod.machine smod) p
