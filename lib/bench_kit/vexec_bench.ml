(* E25: batch-major residue execution — the lane executor running one
   pass per opcode over all N lanes — across batch size, assertion count
   and both batched admission transports (ring trap, E22 kernel poller;
   msgq admits one call per trap and has no batch row).

   The "vectorized" rows are simply compile on: every compiled
   evaluation runs on the lane executor, batch-major whenever the batch
   is eligible (Policy.vector_eligible, at least two lanes, at least two
   distinct functions for a cacheable policy).  Batch 1 is therefore the
   one-lane path.

   The E24 ladder is useless here: its matching rung reads calls_so_far,
   which makes lane k's input depend on how many earlier lanes were
   allowed — exactly the volatile shape that stays one lane per slot.
   So this ladder keeps the same invariant conjuncts but varies on
   [function] instead: every rung opens with a function term, which drags
   the whole segment into the per-slot residue (a segment reading any
   varying attribute is residue wholesale).  Fusion hoists nothing; the
   lane executor walks the full ladder once per batch at ceil(live/W)
   units per pass — the lane-width discount is the measured claim.

   The ladder is a pure function of [function] (cacheable), so the
   batch-major pre-pass evaluates once per distinct function, and a
   single-function batch would fall back to the decider's per-batch memo
   (one lane).  The bench registers its own 128-function module
   ("vecmod": 64 allow-family vf_nn, 64 deny-family xf_nn) and gives
   every slot a distinct function via {!Stub.call_batch_funcs}, so a
   batch of 64 is one batch-major run over 64 lanes.

   The divergence ladder rides along: X% of a 64-slot batch calls
   deny-family functions (function < "x" fails), which fail the matching
   rung's first test and jump to segment end after one pass — the live
   count the ceil(live/W) charge sees shrinks, without branching the
   walk.  0/25/50/100% denying lanes measure how the cost degrades (or
   doesn't) under divergence.

   Each (cell, trial) task builds a private world from coordinate-derived
   seeds, so the document is bit-identical for any job count. *)

module Machine = Smod_kern.Machine
module Parse = Smod_keynote.Parse
open Secmodule

type transport = Ring | Poller

let transport_name = function Ring -> "ring" | Poller -> "poller"

type config = {
  cells : (int * int) list;  (* (batch, assertions) *)
  rounds : int;  (* measured batches per trial *)
  trials : int;
  divergence : int list;  (* percent of lanes denying early *)
}

let default_config =
  {
    cells = [ (1, 16); (4, 16); (16, 16); (64, 16); (64, 1); (64, 4); (64, 64) ];
    rounds = 60;
    trials = 3;
    divergence = [ 0; 25; 50; 100 ];
  }

(* ------------------------------------------------------------------ *)
(* The vecmod module                                                   *)
(* ------------------------------------------------------------------ *)

let vec_module_name = "vecmod"
let family_size = 64

let allow_func i = Printf.sprintf "vf_%02d" (i mod family_size)
let deny_func i = Printf.sprintf "xf_%02d" (i mod family_size)

(* 128 tiny bytecode members: enough distinct funcIDs that every slot of
   a 64-batch carries its own function column entry.  The bodies differ
   (each adds its own constant) so the symbol table can't collapse. *)
let image () =
  Toolchain.assemble_module ~name:vec_module_name ~version:1
    (List.init family_size (fun i ->
         (allow_func i, Printf.sprintf "loadarg 0\npush %d\nadd\nret\n" i))
    @ List.init family_size (fun i ->
          (deny_func i, Printf.sprintf "loadarg 0\npush %d\nadd\nret\n" (1000 + i))))

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

(* [n]-assertion ladder, all-residue: every rung opens with a function
   term ahead of the same invariant conjuncts, so no segment is
   batch-invariant and the whole ladder runs per slot (or per batch of
   lanes).  The matching rung's guard is a parameter: the main ladder
   uses a tautology (every function allowed); the divergence ladder uses
   [function < "x"], which admits vf_* and refuses xf_* on the first
   test of the segment. *)
let ladder_policy ?(matching_guard = "function != \"__none\"") n =
  let invariant_tail =
    "module == \"vecmod\" && origin_ring <= 3 && tier == \"gold\" && region == \"us\""
  in
  let matching =
    Parse.assertion_of_string
      (Printf.sprintf
         "keynote-version: 2\n\
          authorizer: \"POLICY\"\n\
          licensees: \"client\"\n\
          conditions: %s && %s -> \"allow\";\n"
         matching_guard invariant_tail)
  in
  let non_matching =
    List.init (n - 1) (fun i ->
        Parse.assertion_of_string
          (Printf.sprintf
             "keynote-version: 2\n\
              authorizer: \"POLICY\"\n\
              licensees: \"client\"\n\
              conditions: function == \"__clause_%d\" && %s -> \"allow\";\n"
             i invariant_tail))
  in
  Policy.Keynote
    {
      policy = matching :: non_matching;
      levels = [| "deny"; "allow" |];
      min_level = "allow";
      attrs = [ ("tier", "gold"); ("region", "us") ];
    }

(* ------------------------------------------------------------------ *)
(* One (cell, trial) measurement                                       *)
(* ------------------------------------------------------------------ *)

(* [deny_pct] of the batch calls deny-family functions, interleaved
   (i mod 4 spread) so divergence is within every ring chunk rather than
   a prefix. *)
let batch_calls conn ~batch ~deny_pct =
  List.init batch (fun i ->
      let denied = deny_pct > 0 && i mod 4 < deny_pct / 25 in
      let name = if denied then deny_func i else allow_func i in
      match Stub.func_id conn name with
      | Some id -> (id, [| i |])
      | None -> invalid_arg ("vexec_bench: no symbol " ^ name))

let cell_trial ~policy ~transport ~batch ~deny_pct ~rounds ~seed =
  let world = World.create ~seed:(Int64.of_int seed) ~with_rpc:false () in
  let smod = world.World.smod in
  Smod.set_policy_compile smod true;
  (match transport with
  | Poller ->
      Smod.set_kernel_poller smod true;
      Smod.set_session_mux smod true
  | Ring -> ());
  ignore
    (Toolchain.package smod ~image:(image ()) ~protection:Registry.Encrypted ~policy ());
  let clock = Machine.clock world.World.machine in
  let credential = World.credential world in
  let timing = ref (Float.nan, Float.nan) in
  ignore
    (Machine.spawn world.World.machine ~name:"e25-client" (fun p ->
         Crt0.run_client smod p ~module_name:vec_module_name ~version:1 ~credential
           (fun conn ->
             ignore (Stub.arm_ring ~nslots:(max batch 16) conn);
             let calls = batch_calls conn ~batch ~deny_pct in
             let do_batch () = ignore (Stub.call_batch_funcs conn calls) in
             timing := Trial.time_batches ~clock ~batch ~rounds do_batch)));
  World.run world;
  !timing

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

(* Seed offset of the vectorized rows, kept from when other engines were
   measured beside them so the rows measure the same worlds. *)
let vector_seed_offset = 14

let run ?(runner = Runner.sequential) ?(config = default_config) () =
  let main_configs =
    List.concat_map
      (fun (batch, kn) ->
        List.map (fun transport -> `Main (batch, kn, transport)) [ Ring; Poller ])
      config.cells
  in
  let div_configs = List.map (fun pct -> `Div pct) config.divergence in
  let measure cfg ~trial =
    match cfg with
    | `Main (batch, kn, transport) ->
        let seed =
          25_000 + (1009 * trial) + (17 * batch) + (3 * kn)
          + (match transport with Ring -> 0 | Poller -> 1)
          + vector_seed_offset
        in
        cell_trial ~policy:(ladder_policy kn) ~transport ~batch ~deny_pct:0
          ~rounds:config.rounds ~seed
    | `Div pct ->
        let seed = 25_800 + (1009 * trial) + pct + vector_seed_offset in
        cell_trial
          ~policy:(ladder_policy ~matching_guard:"function < \"x\"" 16)
          ~transport:Ring ~batch:64 ~deny_pct:pct ~rounds:config.rounds ~seed
  in
  let results =
    Ablations.map_trials runner ~trials:config.trials (main_configs @ div_configs) measure
  in
  let label_of = function
    | `Main (batch, kn, transport) ->
        Printf.sprintf "%s b%d kn-%d vectorized" (transport_name transport) batch kn
    | `Div pct -> Printf.sprintf "div-%d ring b64 kn-16 vectorized" pct
  in
  List.concat_map
    (fun (cfg, pairs) ->
      let label = label_of cfg in
      [
        Ablations.entry_of_means (label ^ " (mean)") (Array.map fst pairs);
        Ablations.entry_of_means (label ^ " (p99)") (Array.map snd pairs);
      ])
    results

let task_count config =
  ((2 * List.length config.cells) + List.length config.divergence) * config.trials

let dispatch_count config =
  let main_per_round = List.fold_left (fun acc (b, _) -> acc + b) 0 config.cells * 2 in
  let div_per_round = 64 * List.length config.divergence in
  (main_per_round + div_per_round) * (config.rounds + 1) * config.trials
