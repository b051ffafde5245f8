(* The lane executor: the one interpreter for fused programs.

   A fused plan ([Fuse.plan]) is a list of segments; this module runs
   them over N lanes at once against struct-of-arrays columns of the
   per-lane state: a node column, a stack column, an accumulator and a
   program counter per lane.  Every caller goes through the same walker —
   arming a batch's invariant prefix ([begin_batch], one lane), a scalar
   call or one slot of a batch (the residue at N = 1), and a whole batch
   executed batch-major (the residue at N >= 2).

   The walk is a *min-pc uniform walk*.  [Compile.compile] only ever
   emits forward jumps (targets are patched to a later emission index),
   a property the lowering preserves, so per-lane program counters are
   monotone.  The walk position is always the minimum pc over live
   lanes: the opcode there executes for exactly the lanes whose pc sits
   on it, lanes that jumped ahead sleep (they are mask-skipped, not
   branched around), and when every lane has jumped past a stretch the
   walk skips it entirely.  A lane leaves the live set only by running
   off the end of the segment — the per-lane divergence a fused
   [test+jf] causes never branches the walk itself.

   Cost accounting mirrors the SIMD pricing of the accelerator guides:
   each pass over L live lanes costs [ceil(L/W)] units of
   {!Smod_sim.Cost_model.Policy_vector_op} (the caller charges
   [vr_units]).  At one lane the walk visits exactly the positions a
   scalar interpreter would and charges one unit each. *)

type lane = { l_origin : Fuse.origin; l_attrs : (string * string) list }
type snapshot = { s_nodes : int array; s_setup_ops : int }

type result = {
  vr_indices : int array;
  vr_passes : int;
  vr_units : int;
}

let width = 8

let m_scope = Smod_metrics.scope "keynote"
let m_fused_batches = Smod_metrics.Scope.counter m_scope "fused_batches"
let m_fused_slots = Smod_metrics.Scope.counter m_scope "fused_slots"
let m_fused_ops = Smod_metrics.Scope.counter m_scope "fused_ops"
let m_vector_batches = Smod_metrics.Scope.counter m_scope "vector_batches"
let m_vector_lanes = Smod_metrics.Scope.counter m_scope "vector_lanes"
let m_vector_passes = Smod_metrics.Scope.counter m_scope "vector_passes"
let m_vector_units = Smod_metrics.Scope.counter m_scope "vector_units"

let origin_value origin = function
  | Fuse.OF_module -> origin.Fuse.o_module
  | Fuse.OF_ring -> string_of_int origin.Fuse.o_ring
  | Fuse.OF_transport -> origin.Fuse.o_transport

let holds op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

(* Run the segments [seg_ids] of [plan] over [lanes], lane k reading and
   writing node column [nodes.(k)].  Returns the value each lane left on
   its stack in the last segment that left one (only the [Root] segment
   does), the opcode passes walked, and the [ceil(live/W)] units. *)
let walk plan seg_ids ~nodes ~lanes =
  let n = Array.length lanes in
  let segs = Fuse.segments plan in
  let stacks = Array.init n (fun _ -> Array.make (Fuse.max_seg plan + 1) 0) in
  let sp = Array.make n 0 in
  let acc = Array.make n 0 in
  let pc = Array.make n 0 in
  let result = Array.make n 0 in
  let passes = ref 0 and units = ref 0 in
  let operand_value k = function
    | Compile.O_str s -> s
    | Compile.O_attr a -> Eval.attr_value a lanes.(k).l_attrs
  in
  let test k a op b =
    holds op (Eval.compare_values (operand_value k a) (operand_value k b))
  in
  let otest k f op b =
    holds op (Eval.compare_values (origin_value lanes.(k).l_origin f) (operand_value k b))
  in
  (* One opcode for one lane over lane [k]'s columns.  Updates [pc.(k)]. *)
  let exec_one op k =
    let st = stacks.(k) and nd = nodes.(k) in
    let push v =
      st.(sp.(k)) <- v;
      sp.(k) <- sp.(k) + 1
    in
    let pop () =
      sp.(k) <- sp.(k) - 1;
      st.(sp.(k))
    in
    let advance () = pc.(k) <- pc.(k) + 1 in
    match op with
    | Fuse.F_test (a, op, b) ->
        push (if test k a op b then 1 else 0);
        advance ()
    | Fuse.F_push_bool b ->
        push (if b then 1 else 0);
        advance ()
    | Fuse.F_not ->
        st.(sp.(k) - 1) <- (if st.(sp.(k) - 1) = 0 then 1 else 0);
        advance ()
    | Fuse.F_jfalse target ->
        if st.(sp.(k) - 1) = 0 then pc.(k) <- target
        else begin
          ignore (pop ());
          advance ()
        end
    | Fuse.F_jtrue target ->
        if st.(sp.(k) - 1) <> 0 then pc.(k) <- target
        else begin
          ignore (pop ());
          advance ()
        end
    | Fuse.F_node_begin ->
        acc.(k) <- 0;
        advance ()
    | Fuse.F_clause level ->
        if pop () <> 0 then acc.(k) <- max acc.(k) level;
        advance ()
    | Fuse.F_push_level v ->
        push v;
        advance ()
    | Fuse.F_load_node i ->
        push nd.(i);
        advance ()
    | Fuse.F_min2 ->
        let b = pop () in
        let a = pop () in
        push (min a b);
        advance ()
    | Fuse.F_max2 ->
        let b = pop () in
        let a = pop () in
        push (max a b);
        advance ()
    | Fuse.F_kof (kk, count) ->
        let members = ref [] in
        for _ = 1 to count do
          members := pop () :: !members
        done;
        push (Compile.kth_largest kk !members);
        advance ()
    | Fuse.F_node_end i ->
        let lic = pop () in
        nd.(i) <- min acc.(k) lic;
        advance ()
    | Fuse.F_node_end_const (i, lic) ->
        nd.(i) <- min acc.(k) lic;
        advance ()
    | Fuse.F_store_node i ->
        nd.(i) <- pop ();
        advance ()
    | Fuse.F_root (base, roots) ->
        push (Array.fold_left (fun m i -> max m nd.(i)) base roots);
        advance ()
    (* superoperators: exact composition of the two base opcodes *)
    | Fuse.F_test_jf (a, op, b, target) ->
        if test k a op b then advance ()
        else begin
          push 0;
          pc.(k) <- target
        end
    | Fuse.F_test_jt (a, op, b, target) ->
        if test k a op b then begin
          push 1;
          pc.(k) <- target
        end
        else advance ()
    | Fuse.F_test_clause (a, op, b, level) ->
        if test k a op b then acc.(k) <- max acc.(k) level;
        advance ()
    | Fuse.F_load_max i ->
        st.(sp.(k) - 1) <- max st.(sp.(k) - 1) nd.(i);
        advance ()
    | Fuse.F_const_max c ->
        st.(sp.(k) - 1) <- max st.(sp.(k) - 1) c;
        advance ()
    | Fuse.F_const_min c ->
        st.(sp.(k) - 1) <- min st.(sp.(k) - 1) c;
        advance ()
    | Fuse.F_origin (f, op, b) ->
        push (if otest k f op b then 1 else 0);
        advance ()
    | Fuse.F_origin_jf (f, op, b, target) ->
        if otest k f op b then advance ()
        else begin
          push 0;
          pc.(k) <- target
        end
    | Fuse.F_origin_jt (f, op, b, target) ->
        if otest k f op b then begin
          push 1;
          pc.(k) <- target
        end
        else advance ()
    | Fuse.F_origin_clause (f, op, b, level) ->
        if otest k f op b then acc.(k) <- max acc.(k) level;
        advance ()
  in
  Array.iter
    (fun si ->
      let ops = segs.(si).Fuse.ops in
      let len = Array.length ops in
      Array.fill pc 0 n 0;
      Array.fill sp 0 n 0;
      Array.fill acc 0 n 0;
      (* Walk position = min pc over live lanes; jumps are forward, so
         it is monotone and every live lane's pc is >= it. *)
      let w = ref 0 in
      while !w < len do
        let live = ref 0 in
        for k = 0 to n - 1 do
          if pc.(k) < len then incr live
        done;
        incr passes;
        units := !units + ((!live + width - 1) / width);
        let op = ops.(!w) in
        for k = 0 to n - 1 do
          if pc.(k) = !w then exec_one op k
        done;
        (* Advance to the next position any live lane needs. *)
        let next = ref max_int in
        for k = 0 to n - 1 do
          if pc.(k) < len && pc.(k) < !next then next := pc.(k)
        done;
        w := !next
      done;
      for k = 0 to n - 1 do
        if sp.(k) > 0 then result.(k) <- stacks.(k).(sp.(k) - 1)
      done)
    seg_ids;
  (result, !passes, !units)

let begin_batch plan ~origin ~attrs =
  let nodes = Array.make (max (Fuse.node_count plan) 1) 0 in
  let _, passes, _ =
    walk plan (Fuse.prefix_segments plan) ~nodes:[| nodes |]
      ~lanes:[| { l_origin = origin; l_attrs = attrs } |]
  in
  Smod_metrics.Counter.incr m_fused_batches;
  Smod_metrics.Counter.add m_fused_ops passes;
  { s_nodes = nodes; s_setup_ops = passes }

(* Residue segments only ever write nodes that residue segments
   themselves define (a reader of a variant node is itself variant by
   construction), and each is rewritten before it is read within a lane.
   So one lane may use the snapshot's node array in place — invariant
   entries are never touched — and only a batch of N >= 2 lanes pays for
   private copies. *)
let run_residue plan snapshot ~lanes =
  let n = Array.length lanes in
  if n = 0 then { vr_indices = [||]; vr_passes = 0; vr_units = 0 }
  else begin
    let nodes =
      if n = 1 then [| snapshot.s_nodes |]
      else Array.init n (fun _ -> Array.copy snapshot.s_nodes)
    in
    let result, passes, units = walk plan (Fuse.residue_segments plan) ~nodes ~lanes in
    let top = Array.length (Fuse.levels plan) - 1 in
    let indices = Array.map (fun r -> max 0 (min top r)) result in
    if n = 1 then begin
      Smod_metrics.Counter.incr m_fused_slots;
      Smod_metrics.Counter.add m_fused_ops passes
    end
    else begin
      Smod_metrics.Counter.incr m_vector_batches;
      Smod_metrics.Counter.add m_vector_lanes n;
      Smod_metrics.Counter.add m_vector_passes passes;
      Smod_metrics.Counter.add m_vector_units units
    end;
    { vr_indices = indices; vr_passes = passes; vr_units = units }
  end

let level_of plan index = (Fuse.levels plan).(index)
