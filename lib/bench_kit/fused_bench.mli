(** E24: fused batch policy evaluation.

    Measures the {!Smod_keynote.Fuse} engine across batch size, assertion
    count and all three admission transports (msgq scalar, ring batch,
    kernel poller), the structural-sharing compile-memory curve, and the
    origin-predicate ladder with its deny-by-origin path. *)

type config = {
  cells : (int * int) list;  (** (batch, assertions) measurement cells *)
  rounds : int;  (** measured batches per trial *)
  trials : int;
  mem_sizes : int list;  (** registry sizes for the compile-memory curve *)
  origin_terms : int list;  (** origin-predicate ladder rungs (0..3) *)
}

val default_config : config

val run :
  ?runner:Runner.t -> ?config:config -> unit -> Ablations.entry list
(** Deterministic for any job count: every (cell, trial) task builds a
    private world from coordinate-derived seeds, and the memory curve
    resets the calling domain's arena before measuring. *)

val task_count : config -> int
val dispatch_count : config -> int
