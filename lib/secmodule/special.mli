(** The §4.3 special functions.

    Calls that "involve scheduling, signals or processes" need dedicated
    treatment when a library is converted: process identity must follow
    the client, forking a client must produce a fresh handle for the
    child, exec must tear the session down first, and signals aimed at a
    handle must land on its client instead. *)

val fork :
  Smod.t ->
  Stub.conn ->
  Smod_kern.Proc.t ->
  name:string ->
  child_main:(Stub.conn -> unit) ->
  Smod_kern.Proc.t
(** SecModule fork: duplicate the client, then "duplicate the child
    process twice, and force the first child to be the handle for the
    second" — realised as a fresh session (new handle) established in the
    child before [child_main] runs.  Returns the child proc. *)

val execve : Smod.t -> Smod_kern.Proc.t -> image:string -> unit
(** Detaches any session and kills its handle before the exec proceeds
    (done by the exec hook {!Smod.install} registers), then resets the
    image. *)

val kill : Smod.t -> Smod_kern.Proc.t -> pid:int -> signal:int -> unit
(** Like [sys_kill], but a signal aimed at a handle process is redirected
    to its client — "signals ... must be modified such that they effect
    the client, not the handle". *)

val getpid : Smod.t -> Smod_kern.Proc.t -> int
(** The kernel getpid (already client-correct for handles, see
    {!Smod_kern.Machine.sys_getpid}); provided here for symmetry. *)

val wait : Smod.t -> Smod_kern.Proc.t -> Smod_kern.Sched.exit_status * int
(** Waits for a child of the {e client}.  Handles never show up: the
    kernel reaps a forced-fork handle itself when it exits, and never
    lists it among the client's children. *)
