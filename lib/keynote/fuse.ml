(* Fused batch plans for compiled decision programs.

   [Compile.run] executes one full program per admission query.  Under a
   64-slot ring batch that is 64 complete interpreter passes even though
   every opcode that depends only on the credential chain, the module
   identity, and the call origin computes the same value in every slot.
   This module re-lowers a compiled program into *segments* and
   classifies each segment as batch-invariant or per-slot; the lane
   executor ([Vexec]) runs the invariant part once per batch into a
   snapshot and then only the residue per slot (or per batch of lanes).

   The re-lowering leans on a structural property of [Compile.compile]:
   because nested emissions (licensee principals, shared-principal merges)
   complete before the enclosing assertion emits its own opcodes, the flat
   program is a concatenation of contiguous, self-contained segments —
   assertion bodies ([Node_begin] … [Node_end]/[Node_end_const]),
   principal merges ([Push_level] … [Store_node]), and the final [Root] —
   whose jumps are segment-local and which communicate only through the
   value-node array.  [segment_bounds] checks that property instead of
   assuming it; a program that ever violates it degrades to one all-residue
   segment, which is just per-slot execution under another name. *)

type origin = { o_module : string; o_ring : int; o_transport : string }

let no_origin = { o_module = "user"; o_ring = 3; o_transport = "msgq" }

type ofield = OF_module | OF_ring | OF_transport

type fop =
  (* base opcodes, unchanged semantics (jumps segment-relative) *)
  | F_test of Compile.operand * Ast.cmp * Compile.operand
  | F_push_bool of bool
  | F_not
  | F_jfalse of int
  | F_jtrue of int
  | F_node_begin
  | F_clause of int
  | F_push_level of int
  | F_load_node of int
  | F_min2
  | F_max2
  | F_kof of int * int
  | F_node_end of int
  | F_node_end_const of int * int
  | F_store_node of int
  | F_root of int * int array
  (* superoperators: two base opcodes, one dispatch, one op charged *)
  | F_test_jf of Compile.operand * Ast.cmp * Compile.operand * int
  | F_test_jt of Compile.operand * Ast.cmp * Compile.operand * int
  | F_test_clause of Compile.operand * Ast.cmp * Compile.operand * int
  | F_load_max of int  (* top := max top nodes.(i) *)
  | F_const_max of int  (* top := max top c *)
  | F_const_min of int  (* top := min top c *)
  (* origin predicates: resolved from the kernel-held origin record, not
     from the (client-influencable in principle) attribute list *)
  | F_origin of ofield * Ast.cmp * Compile.operand
  | F_origin_jf of ofield * Ast.cmp * Compile.operand * int
  | F_origin_jt of ofield * Ast.cmp * Compile.operand * int
  | F_origin_clause of ofield * Ast.cmp * Compile.operand * int

let fop_mnemonic = function
  | F_test _ -> "test"
  | F_push_bool _ -> "push-bool"
  | F_not -> "not"
  | F_jfalse _ -> "jfalse"
  | F_jtrue _ -> "jtrue"
  | F_node_begin -> "node-begin"
  | F_clause _ -> "clause"
  | F_push_level _ -> "push-level"
  | F_load_node _ -> "load-node"
  | F_min2 -> "min"
  | F_max2 -> "max"
  | F_kof _ -> "k-of"
  | F_node_end _ -> "node-end"
  | F_node_end_const _ -> "node-end-const"
  | F_store_node _ -> "store-node"
  | F_root _ -> "root"
  | F_test_jf _ -> "test+jf"
  | F_test_jt _ -> "test+jt"
  | F_test_clause _ -> "test+clause"
  | F_load_max _ -> "load+max"
  | F_const_max _ -> "const+max"
  | F_const_min _ -> "const+min"
  | F_origin _ -> "origin"
  | F_origin_jf _ -> "origin+jf"
  | F_origin_jt _ -> "origin+jt"
  | F_origin_clause _ -> "origin+clause"

let is_superop = function
  | F_test_jf _ | F_test_jt _ | F_test_clause _ | F_load_max _ | F_const_max _
  | F_const_min _ | F_origin_jf _ | F_origin_jt _ | F_origin_clause _ ->
      true
  | _ -> false

let is_origin_op = function
  | F_origin _ | F_origin_jf _ | F_origin_jt _ | F_origin_clause _ -> true
  | _ -> false

type seg = { ops : fop array; invariant : bool }

type t = {
  f_segs : seg array;
  f_prefix : int array;  (* invariant segment indices, program order *)
  f_residue : int array;  (* per-slot segment indices + root, program order *)
  f_nnodes : int;
  f_levels : string array;
  f_max_seg : int;  (* longest segment, bounds the evaluation stack *)
}

(* ------------------------------------------------------------------ *)
(* Structural-sharing arena                                            *)
(* ------------------------------------------------------------------ *)

(* Registry-wide hash-consing of lowered segment arrays.  Two compiled
   programs that end in the same assertion suffix (the common case in a
   large registry grown from templates) lower to structurally equal
   segment arrays — same opcodes, same node indices, same local jump
   targets — so the arena stores one copy.  The arena is domain-local
   (bench workers plan concurrently; a shared table would need locking
   and would make per-task stats racy) and purely an interning cache:
   plans from different arenas are still semantically identical. *)

type arena = {
  tbl : (fop array, fop array) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_saved : int;
}

type arena_stats = {
  a_segments : int;  (* distinct segment arrays held *)
  a_hits : int;
  a_misses : int;
  a_bytes_saved : int;
}

let arena_key : arena Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 256; hits = 0; misses = 0; bytes_saved = 0 })

(* Boxed-size estimate of one lowered opcode: constructor block + operand
   blocks, ~4 words.  Only used for the bytes-saved statistic. *)
let fop_bytes ops = 32 * Array.length ops

let intern ops =
  let a = Domain.DLS.get arena_key in
  match Hashtbl.find_opt a.tbl ops with
  | Some shared ->
      a.hits <- a.hits + 1;
      a.bytes_saved <- a.bytes_saved + fop_bytes ops;
      shared
  | None ->
      a.misses <- a.misses + 1;
      Hashtbl.replace a.tbl ops ops;
      ops

let arena_stats () =
  let a = Domain.DLS.get arena_key in
  {
    a_segments = Hashtbl.length a.tbl;
    a_hits = a.hits;
    a_misses = a.misses;
    a_bytes_saved = a.bytes_saved;
  }

let arena_reset () =
  let a = Domain.DLS.get arena_key in
  Hashtbl.reset a.tbl;
  a.hits <- 0;
  a.misses <- 0;
  a.bytes_saved <- 0

let arena_hit_rate_pct () =
  let a = Domain.DLS.get arena_key in
  let total = a.hits + a.misses in
  if total = 0 then None else Some (100.0 *. float_of_int a.hits /. float_of_int total)

(* ------------------------------------------------------------------ *)
(* Planning: segment, lower, fuse, classify                            *)
(* ------------------------------------------------------------------ *)

(* [Some bounds] iff the program splits into contiguous runs each closed
   by a node-writing terminator (or [Root]) with all jumps local. *)
let segment_bounds instrs =
  let n = Array.length instrs in
  let bounds = ref [] in
  let jumps = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    match instrs.(i) with
    | Compile.Jfalse t | Compile.Jtrue t -> jumps := (i, t) :: !jumps
    | Compile.Node_end _ | Compile.Node_end_const _ | Compile.Store_node _
    | Compile.Root _ ->
        bounds := (!start, i) :: !bounds;
        start := i + 1
    | _ -> ()
  done;
  if !start <> n || !bounds = [] then None
  else begin
    let bounds = Array.of_list (List.rev !bounds) in
    (* Every jump must stay inside its own segment (strictly before the
       terminator) — that is what makes segments independently runnable. *)
    let local (pos, target) =
      Array.exists (fun (s, e) -> s <= pos && pos <= e && s <= target && target < e) bounds
    in
    if List.for_all local !jumps then Some bounds else None
  end

let origin_field_of_attr = function
  | "origin_module" -> Some OF_module
  | "origin_ring" -> Some OF_ring
  | "origin_transport" -> Some OF_transport
  | _ -> None

(* Mirror a comparison so the origin value can sit on the left. *)
let flip_cmp = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

(* Base lowering: one fop per instr, jumps rebased to the segment, origin
   tests against literals turned into origin opcodes.  Origin-vs-attribute
   comparisons stay [F_test] — the dispatcher appends the origin pairs to
   the attribute list, so they still resolve (to the same values). *)
let lower_instr ~start = function
  | Compile.Test (a, op, b) -> (
      let lower_one side op other =
        match side with
        | Compile.O_attr name -> (
            match origin_field_of_attr name with
            | Some f -> (
                match other with
                | Compile.O_str _ -> Some (F_origin (f, op, other))
                | Compile.O_attr o when origin_field_of_attr o = None ->
                    Some (F_origin (f, op, other))
                | Compile.O_attr _ -> None (* origin vs origin: keep F_test *))
            | None -> None)
        | Compile.O_str _ -> None
      in
      match lower_one a op b with
      | Some f -> f
      | None -> (
          match lower_one b (flip_cmp op) a with
          | Some f -> f
          | None -> F_test (a, op, b)))
  | Compile.Push_bool b -> F_push_bool b
  | Compile.Not_top -> F_not
  | Compile.Jfalse t -> F_jfalse (t - start)
  | Compile.Jtrue t -> F_jtrue (t - start)
  | Compile.Node_begin -> F_node_begin
  | Compile.Clause l -> F_clause l
  | Compile.Push_level v -> F_push_level v
  | Compile.Load_node i -> F_load_node i
  | Compile.Min2 -> F_min2
  | Compile.Max2 -> F_max2
  | Compile.Kof (k, n) -> F_kof (k, n)
  | Compile.Node_end i -> F_node_end i
  | Compile.Node_end_const (i, c) -> F_node_end_const (i, c)
  | Compile.Store_node i -> F_store_node i
  | Compile.Root (base, nodes) -> F_root (base, nodes)

let jump_target = function
  | F_jfalse t | F_jtrue t
  | F_test_jf (_, _, _, t)
  | F_test_jt (_, _, _, t)
  | F_origin_jf (_, _, _, t)
  | F_origin_jt (_, _, _, t) ->
      Some t
  | _ -> None

let remap_jump newpos = function
  | F_jfalse t -> F_jfalse newpos.(t)
  | F_jtrue t -> F_jtrue newpos.(t)
  | F_test_jf (a, c, b, t) -> F_test_jf (a, c, b, newpos.(t))
  | F_test_jt (a, c, b, t) -> F_test_jt (a, c, b, newpos.(t))
  | F_origin_jf (f, c, b, t) -> F_origin_jf (f, c, b, newpos.(t))
  | F_origin_jt (f, c, b, t) -> F_origin_jt (f, c, b, newpos.(t))
  | op -> op

(* Peephole superoperator fusion over one segment.  A pair [(i, i+1)] may
   fuse only when [i + 1] is not a jump target — otherwise the jump would
   land in the middle of the superoperator.  Jump targets survive fusion
   through an old-position -> new-position map (a target is never the
   second element of a fused pair, so its mapping is always exact). *)
let fuse_segment ops =
  let n = Array.length ops in
  let is_target = Array.make (n + 1) false in
  Array.iter
    (fun op -> match jump_target op with Some t -> is_target.(t) <- true | None -> ())
    ops;
  let out = ref [] in
  let newpos = Array.make (n + 1) 0 in
  let i = ref 0 in
  let m = ref 0 in
  while !i < n do
    newpos.(!i) <- !m;
    let next = if !i + 1 < n && not is_target.(!i + 1) then Some ops.(!i + 1) else None in
    let fused =
      match (ops.(!i), next) with
      | F_test (a, c, b), Some (F_jfalse t) -> Some (F_test_jf (a, c, b, t))
      | F_test (a, c, b), Some (F_jtrue t) -> Some (F_test_jt (a, c, b, t))
      | F_test (a, c, b), Some (F_clause l) -> Some (F_test_clause (a, c, b, l))
      | F_origin (f, c, b), Some (F_jfalse t) -> Some (F_origin_jf (f, c, b, t))
      | F_origin (f, c, b), Some (F_jtrue t) -> Some (F_origin_jt (f, c, b, t))
      | F_origin (f, c, b), Some (F_clause l) -> Some (F_origin_clause (f, c, b, l))
      | F_load_node k, Some F_max2 -> Some (F_load_max k)
      | F_push_level v, Some F_max2 -> Some (F_const_max v)
      | F_push_level v, Some F_min2 -> Some (F_const_min v)
      | _ -> None
    in
    (match fused with
    | Some f ->
        out := f :: !out;
        newpos.(!i + 1) <- !m;
        i := !i + 2
    | None ->
        out := ops.(!i) :: !out;
        incr i);
    incr m
  done;
  newpos.(n) <- !m;
  Array.map (remap_jump newpos) (Array.of_list (List.rev !out))

let reads_varying ~varying op =
  let attr_varying = function
    | Compile.O_attr a -> List.mem a varying
    | Compile.O_str _ -> false
  in
  match op with
  | F_test (a, _, b) | F_test_jf (a, _, b, _) | F_test_jt (a, _, b, _)
  | F_test_clause (a, _, b, _) ->
      attr_varying a || attr_varying b
  | F_origin (_, _, b) | F_origin_jf (_, _, b, _) | F_origin_jt (_, _, b, _)
  | F_origin_clause (_, _, b, _) ->
      attr_varying b
  | _ -> false

let node_loads op =
  match op with F_load_node k | F_load_max k -> Some k | _ -> None

let node_writes op =
  match op with
  | F_node_end i | F_node_end_const (i, _) | F_store_node i -> Some i
  | _ -> None

let plan program ~varying =
  let instrs = Compile.instrs program in
  let nnodes = Compile.node_count program in
  let levels = Compile.levels program in
  let lowered_of start stop =
    intern (fuse_segment (Array.init (stop - start + 1) (fun k -> lower_instr ~start instrs.(start + k))))
  in
  let segs, prefix, residue =
    match segment_bounds instrs with
    | None ->
        (* Shape violation (cannot happen for programs [Compile.compile]
           emits, but stay total): everything is residue — plain per-slot
           execution, still fused within the single segment. *)
        let all = lowered_of 0 (Array.length instrs - 1) in
        ([| { ops = all; invariant = false } |], [||], [| 0 |])
    | Some bounds ->
        let node_inv = Array.make (max nnodes 1) false in
        let segs =
          Array.map
            (fun (start, stop) ->
              let ops = lowered_of start stop in
              let is_root = match instrs.(stop) with Compile.Root _ -> true | _ -> false in
              let invariant =
                (not is_root)
                && Array.for_all
                     (fun op ->
                       (not (reads_varying ~varying op))
                       &&
                       match node_loads op with
                       | Some k -> node_inv.(k)
                       | None -> true)
                     ops
              in
              Array.iter
                (fun op ->
                  match node_writes op with
                  | Some i -> node_inv.(i) <- invariant
                  | None -> ())
                ops;
              { ops; invariant })
            bounds
        in
        let idx p = Array.to_list segs |> List.mapi (fun i s -> (i, s))
                    |> List.filter_map (fun (i, s) -> if p s then Some i else None)
                    |> Array.of_list in
        (segs, idx (fun s -> s.invariant), idx (fun s -> not s.invariant))
  in
  let max_seg = Array.fold_left (fun m s -> max m (Array.length s.ops)) 1 segs in
  { f_segs = segs; f_prefix = prefix; f_residue = residue; f_nnodes = nnodes;
    f_levels = levels; f_max_seg = max_seg }

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  segments : int;
  invariant_segments : int;
  total_fops : int;
  invariant_fops : int;
  superops : (string * int) list;
  origin_fops : int;
}

let stats t =
  let total = ref 0 and inv = ref 0 and orig = ref 0 in
  let inv_segs = ref 0 in
  let supers = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      if s.invariant then incr inv_segs;
      Array.iter
        (fun op ->
          incr total;
          if s.invariant then incr inv;
          if is_origin_op op then incr orig;
          if is_superop op then begin
            let m = fop_mnemonic op in
            Hashtbl.replace supers m (1 + Option.value ~default:0 (Hashtbl.find_opt supers m))
          end)
        s.ops)
    t.f_segs;
  let superops =
    Hashtbl.fold (fun m n acc -> (m, n) :: acc) supers []
    |> List.sort (fun (ma, na) (mb, nb) ->
           if na <> nb then compare nb na else compare ma mb)
  in
  {
    segments = Array.length t.f_segs;
    invariant_segments = !inv_segs;
    total_fops = !total;
    invariant_fops = !inv;
    superops;
    origin_fops = !orig;
  }

let prefix_fraction t =
  let s = stats t in
  if s.total_fops = 0 then 0.0
  else float_of_int s.invariant_fops /. float_of_int s.total_fops

(* Plan internals for the lane executor (Vexec), which runs the raw
   lowered segments. *)
let segments t = t.f_segs
let prefix_segments t = t.f_prefix
let residue_segments t = t.f_residue
let levels t = t.f_levels
let node_count t = t.f_nnodes
let max_seg t = t.f_max_seg

let residue_reads t attrs =
  Array.exists
    (fun si -> Array.exists (reads_varying ~varying:attrs) t.f_segs.(si).ops)
    t.f_residue
