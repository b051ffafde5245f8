(** E25: batch-major residue execution on the lane executor
    (lib/keynote/vexec, chosen by eligibility once compilation is on).

    The ladder varies on [function] (all-residue: fusion hoists
    nothing), served by a private 128-function "vecmod" module so every
    slot of a batch carries a distinct funcID — which defeats the
    batch-major pre-pass dedup, so a batch runs at full lane width.  A divergence ladder
    measures the lane-mask ceil(live/W) charge as 0/25/50/100% of lanes
    deny on the matching rung's first test.  Ring and poller transports
    only: the msgq path admits one call per trap and has no batch. *)

type config = {
  cells : (int * int) list;  (** (batch size, ladder assertions) *)
  rounds : int;  (** measured batches per trial *)
  trials : int;
  divergence : int list;  (** percent of lanes denying early *)
}

val default_config : config

val run :
  ?runner:Runner.t -> ?config:config -> unit -> Ablations.entry list
(** Mean/p99 rows per (transport, batch, kn) cell and divergence rows at
    ring b64 kn-16.  Deterministic for any runner job count: each (cell,
    trial) builds a private world from coordinate-derived seeds. *)

val task_count : config -> int
val dispatch_count : config -> int
