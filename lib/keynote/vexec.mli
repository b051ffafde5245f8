(** The lane executor: the one interpreter for fused plans.

    Every fused evaluation runs here, over N >= 1 lanes: arming a batch's
    invariant prefix ({!begin_batch}, one lane), a scalar call or one slot
    of a batch ({!run_residue} at N = 1), and a whole batch executed
    batch-major ({!run_residue} at N >= 2).  The per-lane state is
    gathered into struct-of-arrays columns (a node column, a stack
    column, an accumulator and a program counter per lane) and each
    segment executes {e one pass per opcode over all N lanes}.  Lanes
    that diverge through a fused [test+jf] sleep until the walk reaches
    their landing point — they are mask-skipped, never branched around —
    and the walk position itself is the minimum program counter over
    live lanes, so a stretch no lane needs is skipped entirely.
    Forward-only jumps (a [Compile.compile] invariant the lowering
    preserves) make the walk monotone and single-pass.

    Verdict parity: for every lane, [vr_indices.(k)] equals the index
    [Compile.run] returns for that lane's attribute list — asserted by
    the differential in test/test_compile.ml, which also checks that a
    batch of N lanes agrees lane for lane with N one-lane runs.

    Cost accounting is the caller's job: charge
    {!Smod_sim.Cost_model.Policy_fused_setup} plus [s_setup_ops]
    compiled-op units when a snapshot is armed, and
    {!Smod_sim.Cost_model.Policy_vector_op} times [vr_units] per residue
    run, where each pass over L live lanes contributes [ceil(L/W)] units
    — the SIMD-style lane-width discount.  At N = 1 the walk visits
    exactly the opcodes a scalar interpreter would and charges one unit
    each. *)

type lane = {
  l_origin : Fuse.origin;
      (** kernel-resolved provenance for this lane's slot — the origin
          column stays unforgeable because it never passes through
          client-writable memory *)
  l_attrs : (string * string) list;
      (** the slot's full attribute list (varying attributes such as
          ["function"] included) *)
}

type snapshot = {
  s_nodes : int array;
      (** value-node results; invariant entries are final, variant entries
          are scratch space the residue rewrites every slot *)
  s_setup_ops : int;  (** prefix opcodes executed building the snapshot *)
}

type result = {
  vr_indices : int array;  (** per-lane compliance index, clamped to levels *)
  vr_passes : int;  (** opcode passes walked across all residue segments *)
  vr_units : int;
      (** Σ per-pass [ceil(live/W)] — the {!Smod_sim.Cost_model.Policy_vector_op}
          charge *)
}

val width : int
(** 8 — the lane width W the cost model discounts by. *)

val begin_batch : Fuse.t -> origin:Fuse.origin -> attrs:(string * string) list -> snapshot
(** Evaluate the batch-invariant prefix once, as one lane.  [attrs] here
    are the batch-invariant attributes (module, phase, static policy
    attributes, origin pairs); varying attributes are absent by
    construction — no prefix opcode reads them. *)

val run_residue : Fuse.t -> snapshot -> lanes:lane array -> result
(** Execute the plan's residue over [lanes] against the batch-invariant
    [snapshot].  One lane reuses the snapshot's node array in place
    (invariant entries are never written); N >= 2 lanes each get a
    private copy.  The snapshot may be reused across any number of runs
    until the program it came from is invalidated.  An empty array
    returns an empty result at zero cost.  A one-lane run counts as a
    [keynote.fused_slots] slot, a wider one as a
    [keynote.vector_batches] batch. *)

val level_of : Fuse.t -> int -> string
(** The compliance-level name for a clamped index from [vr_indices]. *)
