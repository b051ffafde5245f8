(** Event tracing for the simulated machine.

    Used to reproduce the paper's sequence diagrams (Figure 1's
    initialization handshake, Figure 3's stack choreography) as observable,
    testable event streams. *)

type event = { timestamp_us : float; actor : string; label : string }

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** A preallocated ring of [capacity] slots (default 4096) that keeps the
    newest [capacity] events: once it is full, each [emit] overwrites the
    oldest one in O(1). [~capacity:0] records nothing.
    @raise Invalid_argument if [capacity] is negative. *)

val enable : t -> unit
val disable : t -> unit
val emit : t -> clock:Clock.t -> actor:string -> string -> unit
(** Records one event stamped with [clock]'s current time, unless the trace
    is disabled. *)

val emitf : t -> clock:Clock.t -> actor:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [emit] with a formatted label. The label is formatted at the call when
    the trace is enabled, and not at all when it is disabled. *)

val events : t -> event list
(** Oldest first. *)

val labels : t -> string list
(** The labels of [events], oldest first. *)

val clear : t -> unit
(** Drops every recorded event; the capacity and the enabled flag stay. *)

val pp : Format.formatter -> t -> unit
