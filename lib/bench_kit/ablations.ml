module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Clock = Smod_sim.Clock
module Stats = Smod_util.Stats
module Ast = Smod_keynote.Ast
module Parse = Smod_keynote.Parse
open Secmodule

type entry = { label : string; mean_us : float; stdev_us : float }

let render ~title ?(unit_header = "microsec") entries =
  Trial.generic_table ~title ~header:[ "configuration"; unit_header; "stdev" ]
    (List.map
       (fun e -> [ e.label; Printf.sprintf "%.3f" e.mean_us; Printf.sprintf "%.4f" e.stdev_us ])
       entries)

let entry_of_means label samples =
  { label; mean_us = Stats.mean samples; stdev_us = Stats.stdev samples }

(* Decompose "[trials] trials of each configuration" into a flat list of
   independent (configuration, trial) tasks, run them over [runner], and
   hand back each configuration's per-trial samples in configuration
   order.  Every task builds a private world from a seed derived from its
   own coordinates, so results are identical for any job count. *)
let map_trials runner ~trials configs measure =
  let configs = Array.of_list configs in
  let tasks =
    List.concat
      (List.init (Array.length configs) (fun ci -> List.init trials (fun t -> (ci, t))))
  in
  let results =
    Array.of_list (Runner.map runner tasks (fun (ci, t) -> measure configs.(ci) ~trial:t))
  in
  List.init (Array.length configs) (fun ci ->
      (configs.(ci), Array.init trials (fun t -> results.((ci * trials) + t))))

(* One trial of the standard test-incr workload in a fresh world. *)
let test_incr_trial ?(setup = fun (_ : World.t) -> ()) ?policy ~label ~calls ~trials ~seed
    ~trial () =
  let world = World.create ~seed:(Int64.of_int seed) ?policy ~with_rpc:false () in
  setup world;
  let clock = Machine.clock world.World.machine in
  let result = ref Float.nan in
  World.spawn_seclibc_client world ~name:"ablation-client" (fun _p conn ->
      let spec = { Trial.name = label; calls_per_trial = calls; trials; warmup = 10 } in
      result :=
        Trial.run_one ~clock ~trial spec (fun i ->
            ignore (Smod_libc.Seclibc.Client.test_incr conn i)));
  World.run world;
  !result

(* ------------------------------------------------------------------ *)
(* E9: policy complexity                                               *)
(* ------------------------------------------------------------------ *)

let keynote_policy_with n =
  let assertions =
    List.init n (fun i ->
        Parse.assertion_of_string
          (Printf.sprintf
             "keynote-version: 2\n\
              authorizer: \"POLICY\"\n\
              licensees: \"client\"\n\
              conditions: module == \"seclibc\" && clause == %d -> \"allow\";\n"
             i))
  in
  (* Make the first clause actually match so access is granted. *)
  let assertions =
    Parse.assertion_of_string
      "keynote-version: 2\n\
       authorizer: \"POLICY\"\n\
       licensees: \"client\"\n\
       conditions: module == \"seclibc\" -> \"allow\";\n"
    :: assertions
  in
  Policy.Keynote
    { policy = assertions; levels = [| "deny"; "allow" |]; min_level = "allow"; attrs = [] }

let policy_ladder ~budget =
  [
    ("always-allow", Policy.Always_allow);
    ("session-lifetime", Policy.Session_lifetime);
    ("call-quota", Policy.Call_quota budget);
    ("rate-limit", Policy.Rate_limit { max_calls = budget; window_us = 1e12 });
    ("keynote-1", keynote_policy_with 0);
    ("keynote-4", keynote_policy_with 3);
    ("keynote-16", keynote_policy_with 15);
  ]

(* The interpreted ladder first (row order unchanged from earlier
   baselines), then the keynote rungs again with the compiled engine
   (PR 4): same policies, same world seeds, only [Smod.set_policy_compile]
   flipped, so any difference is the engine. *)
let policy_ablation ?(runner = Runner.sequential) ?(calls = 2_000) ?(trials = 5) () =
  let budget = (calls * trials) + 100 in
  let ladder = policy_ladder ~budget in
  let configs =
    List.map (fun (label, policy) -> (label, policy, false)) ladder
    @ List.filter_map
        (fun (label, policy) ->
          match policy with
          | Policy.Keynote _ -> Some (label ^ " compiled", policy, true)
          | _ -> None)
        ladder
  in
  map_trials runner ~trials configs (fun (label, policy, compile) ~trial ->
      test_incr_trial
        ~setup:(fun w -> if compile then Smod.set_policy_compile w.World.smod true)
        ~policy ~label ~calls ~trials ~seed:(7000 + trial) ~trial ())
  |> List.map (fun ((label, _, _), samples) -> entry_of_means label samples)

(* ------------------------------------------------------------------ *)
(* E10: shared stack vs copy-based marshaling                          *)
(* ------------------------------------------------------------------ *)

(* One trial measuring both designs in the same world: pointer-passing
   through SecModule, then the payload copied through the queue in both
   directions, chunked through the fixed message-size window as any
   explicit shared-memory design must (§3). *)
let marshal_trial ~calls ~trials ~size ~trial =
  let world = World.create ~seed:(Int64.of_int (7100 + (17 * trial))) ~with_rpc:false () in
  let machine = world.World.machine in
  let clock = Machine.clock machine in
  let shared = ref Float.nan and copying = ref Float.nan in
  (* Copying dispatcher: an echo worker that returns the payload, the way
     an explicit-shared-window design must move argument data. *)
  let req_q = ref 0 and rep_q = ref 0 in
  ignore
    (Machine.spawn machine ~daemon:true ~name:"copy-echo" (fun p ->
         req_q := Machine.msgget machine p ~key:7001;
         rep_q := Machine.msgget machine p ~key:7002;
         let rec loop () =
           let _, payload = Machine.msgrcv machine p ~qid:!req_q ~mtype:1 in
           Machine.msgsnd machine p ~qid:!rep_q ~mtype:1 payload;
           loop ()
         in
         loop ()));
  World.spawn_seclibc_client world ~name:"marshal-client" (fun p conn ->
      (* Pointer-passing through SecModule: cost independent of size. *)
      let buf = Smod_libc.Seclibc.Client.malloc conn size in
      let spec name = { Trial.name; calls_per_trial = calls; trials; warmup = 10 } in
      shared :=
        Trial.run_one ~clock ~trial (spec "shared") (fun _ ->
            ignore (Stub.call conn ~func:"test_incr" [| buf |]));
      let chunk = 4096 in
      let chunks =
        List.init ((size + chunk - 1) / chunk) (fun i ->
            Bytes.make (min chunk (size - (i * chunk))) 'x')
      in
      copying :=
        Trial.run_one ~clock ~trial (spec "copying") (fun _ ->
            (* A copy-based SecModule still pays the per-call trap,
               credential check and stub work — charge the same fixed
               costs so the two designs differ only in how argument data
               travels. *)
            Clock.charge clock Smod_sim.Cost_model.Trap_enter;
            Clock.charge clock Smod_sim.Cost_model.Cred_check;
            Clock.charge clock Smod_sim.Cost_model.Policy_always_allow;
            Clock.charge clock (Smod_sim.Cost_model.Stub_push_args 1);
            Clock.charge clock Smod_sim.Cost_model.Stub_receive;
            Clock.charge clock Smod_sim.Cost_model.Stub_return;
            List.iter
              (fun piece ->
                Machine.msgsnd machine p ~qid:!req_q ~mtype:1 piece;
                ignore (Machine.msgrcv machine p ~qid:!rep_q ~mtype:1))
              chunks;
            Clock.charge clock Smod_sim.Cost_model.Trap_exit));
  World.run world;
  (!shared, !copying)

let marshal_ablation ?(runner = Runner.sequential) ?(calls = 1_000)
    ?(payload_sizes = [ 16; 256; 4096; 65536 ]) () =
  let trials = 5 in
  map_trials runner ~trials payload_sizes (fun size ~trial ->
      marshal_trial ~calls ~trials ~size ~trial)
  |> List.concat_map (fun (size, pairs) ->
         [
           entry_of_means (Printf.sprintf "shared-stack %6d B" size) (Array.map fst pairs);
           entry_of_means (Printf.sprintf "copy-marshal %6d B" size) (Array.map snd pairs);
         ])

(* ------------------------------------------------------------------ *)
(* E11: encrypted vs unmap-only protection                             *)
(* ------------------------------------------------------------------ *)

let padded_module ~text_size =
  let b = Smod_modfmt.Smof.Builder.create ~name:"padded" ~version:1 in
  ignore
    (Smod_modfmt.Smof.Builder.add_function b ~name:"test_incr"
       ~code:(Smod_svm.Asm.assemble "loadarg 0\npush 1\nadd\nret\n")
       ());
  ignore
    (Smod_modfmt.Smof.Builder.add_native_function b ~name:"bulk" ~native:"bulk"
       ~size_hint:text_size ());
  Smod_modfmt.Smof.Builder.finish b

let establishment_trial ~protection ~text_size ~trial =
  let machine = Machine.create ~seed:(Int64.of_int (1000 + trial)) () in
  let smod = Smod.install machine () in
  let entry = Toolchain.package smod ~image:(padded_module ~text_size) ~protection () in
  ignore entry;
  let clock = Machine.clock machine in
  let elapsed = ref 0.0 in
  ignore
    (Machine.spawn machine ~name:"estab-client" (fun p ->
         let t0 = Clock.now_cycles clock in
         let conn =
           Stub.connect smod p ~module_name:"padded" ~version:1
             ~credential:(Credential.make ~principal:"client" ())
         in
         elapsed := Clock.elapsed_us clock ~since:t0;
         Stub.close conn));
  Machine.run machine;
  !elapsed

let protection_label protection text_size =
  Printf.sprintf "%s %7d B text"
    (match protection with
    | Registry.Encrypted -> "encrypted"
    | Registry.Unmap_only -> "unmap-only")
    text_size

let protection_ablation ?(runner = Runner.sequential) ?(text_sizes = [ 4096; 65536; 262144 ])
    ?(trials = 5) () =
  let configs =
    List.concat_map
      (fun text_size -> [ (Registry.Unmap_only, text_size); (Registry.Encrypted, text_size) ])
      text_sizes
  in
  map_trials runner ~trials configs (fun (protection, text_size) ~trial ->
      establishment_trial ~protection ~text_size ~trial)
  |> List.map (fun ((protection, text_size), samples) ->
         entry_of_means (protection_label protection text_size) samples)

(* ------------------------------------------------------------------ *)
(* E12: shared handle bottleneck                                       *)
(* ------------------------------------------------------------------ *)

let service_charge machine =
  (* Stand-in for the handle executing the function: stub receive, a few
     VM instructions, stub return. *)
  let clock = Machine.clock machine in
  Clock.charge clock Smod_sim.Cost_model.Stub_receive;
  Clock.charge_n clock Smod_sim.Cost_model.Svm_instr 4;
  Clock.charge clock Smod_sim.Cost_model.Stub_return

(* A single simulated CPU serialises all service work, so per-call latency
   cannot distinguish the two designs; what can is the request queue a
   shared handle accumulates.  We record, at every service, how many
   requests are still waiting behind the one being served: a private
   handle's queue is empty, a shared handle's grows with the client
   count — the many-to-one bottleneck of §4.3. *)
let run_queueing ~machine ~shared ~k ~calls_per_client =
  let depths = ref [] in
  (* Request payload carries the reply qid in its first 4 bytes. *)
  let workers = if shared then 1 else k in
  let req_qids = Array.make workers 0 in
  for w = 0 to workers - 1 do
    ignore
      (Machine.spawn machine ~daemon:true ~name:(Printf.sprintf "worker-%d" w) (fun p ->
           req_qids.(w) <- Machine.msgget machine p ~key:(8000 + w);
           let rec loop () =
             let _, payload = Machine.msgrcv machine p ~qid:req_qids.(w) ~mtype:1 in
             depths := float_of_int (Machine.msgq_depth machine ~qid:req_qids.(w)) :: !depths;
             service_charge machine;
             let rep_qid = Wire.reply_of_bytes payload in
             Machine.msgsnd machine p ~qid:rep_qid.Wire.status ~mtype:1 (Bytes.create 8);
             loop ()
           in
           loop ()))
  done;
  for c = 0 to k - 1 do
    ignore
      (Machine.spawn machine ~name:(Printf.sprintf "qclient-%d" c) (fun p ->
           let rep_qid = Machine.msgget machine p ~key:(9000 + c) in
           let worker = if shared then 0 else c in
           let req = Wire.reply_to_bytes { Wire.status = rep_qid; retval = 0 } in
           for _ = 1 to calls_per_client do
             Machine.msgsnd machine p ~qid:req_qids.(worker) ~mtype:1 req;
             ignore (Machine.msgrcv machine p ~qid:rep_qid ~mtype:1)
           done))
  done;
  Machine.run machine;
  Array.of_list !depths

let handle_sharing ?(runner = Runner.sequential) ?(clients = [ 1; 2; 4; 8 ])
    ?(calls_per_client = 300) () =
  let configs = List.concat_map (fun k -> [ (k, false); (k, true) ]) clients in
  map_trials runner ~trials:1 configs (fun (k, shared) ~trial:_ ->
      let machine = Machine.create () in
      run_queueing ~machine ~shared ~k ~calls_per_client)
  |> List.map (fun ((k, shared), depth_runs) ->
         let depths = depth_runs.(0) in
         {
           label =
             Printf.sprintf "%d clients, %s" k
               (if shared then "shared handle" else "own handles");
           mean_us = Stats.mean depths;
           stdev_us = Stats.stdev depths;
         })

(* ------------------------------------------------------------------ *)
(* E14: the §5 "reduce redundant checks" future-work fast path          *)
(* ------------------------------------------------------------------ *)

let fast_path ?(runner = Runner.sequential) ?(calls = 2_000) ?(trials = 5) () =
  let configs =
    [ ("prototype (per-call recheck)", false); ("fast path (checks hoisted)", true) ]
  in
  map_trials runner ~trials configs (fun (label, enabled) ~trial ->
      test_incr_trial
        ~setup:(fun w -> Smod.set_call_fast_path w.World.smod enabled)
        ~label ~calls ~trials ~seed:(7300 + trial) ~trial ())
  |> List.map (fun ((label, _), samples) -> entry_of_means label samples)

(* ------------------------------------------------------------------ *)
(* E15: syscall-interposition overhead (section 2 comparison)           *)
(* ------------------------------------------------------------------ *)

module Systrace = Smod_systrace.Systrace

let systrace_policy =
  "policy: p\n\
   native-msgsnd: permit\n\
   native-msgrcv: permit\n\
   native-obreak: permit\n\
   native-getpid: permit\n\
   default: deny\n"

let systrace_trial ~attach ~calls ~trial =
  let machine = Machine.create ~seed:(Int64.of_int (2000 + trial)) ~jitter:0.0 () in
  let tracer = Systrace.install machine in
  let cost = ref 0.0 in
  ignore
    (Machine.spawn machine ~name:"systrace-app" (fun p ->
         if attach then
           Systrace.attach tracer ~pid:p.Proc.pid (Systrace.parse_policy systrace_policy);
         let clock = Machine.clock machine in
         let t0 = Clock.now_cycles clock in
         for _ = 1 to calls do
           ignore (Machine.sys_getpid machine p)
         done;
         cost := Clock.elapsed_us clock ~since:t0 /. float_of_int calls));
  Machine.run machine;
  !cost

(* The paper's section-2 alternative: a syscall-level monitor pays a
   linear rule scan on every trap.  Time getpid() bare and under a
   systrace policy whose getpid rule sits last in a 4-rule list, per
   trial, so the entries carry a real stdev like every other table. *)
let systrace_overhead ?(runner = Runner.sequential) ?(calls = 1_000) ?(trials = 5) () =
  let configs = [ ("getpid bare", false); ("getpid under systrace (4-rule scan)", true) ] in
  map_trials runner ~trials configs (fun (_, attach) ~trial -> systrace_trial ~attach ~calls ~trial)
  |> List.map (fun ((label, _), samples) -> entry_of_means label samples)

(* ------------------------------------------------------------------ *)
(* E16: smodd session pooling (lib/pool)                               *)
(* ------------------------------------------------------------------ *)

(* One module, so the per-module cap is the global cap; queue deep enough
   that 64 steady-state clients never see EAGAIN. *)
let pool_config =
  {
    Smod_pool.Smodd.default_config with
    max_handles_per_module = 16;
    max_total_handles = 16;
    max_queue_depth = 128;
  }

(* Establishment latency, cold fork vs warm pooled attach.  The pooled
   world gets exactly one handle so every timed session reuses it; the
   warmup connect pays the one-off fork. *)
let start_session_trial ~pooled ~sessions ~trial =
  let pool =
    if pooled then Some { pool_config with max_handles_per_module = 1; max_total_handles = 1 }
    else None
  in
  let world = World.create ~seed:(Int64.of_int (3000 + trial)) ?pool ~with_rpc:false () in
  let clock = Machine.clock world.World.machine in
  let mean = ref 0.0 in
  ignore
    (Machine.spawn world.World.machine ~name:"pool-estab-client" (fun p ->
         let credential = Credential.make ~principal:"client" () in
         let connect () =
           Stub.connect world.World.smod p ~module_name:Smod_libc.Seclibc.module_name
             ~version:Smod_libc.Seclibc.version ~credential
         in
         Stub.close (connect ());
         let total = ref 0.0 in
         for _ = 1 to sessions do
           let t0 = Clock.now_cycles clock in
           let conn = connect () in
           total := !total +. Clock.elapsed_us clock ~since:t0;
           Stub.close conn
         done;
         mean := !total /. float_of_int sessions));
  World.run world;
  !mean

(* Steady state: K clients each run a connect / calls / close lifetime;
   kcalls/s over the whole run.  Beyond 16 clients smodd multiplexes the
   population through the admission queue. *)
let throughput_trial ~pooled ~k ~calls ~trial =
  let pool = if pooled then Some pool_config else None in
  let world =
    World.create ~seed:(Int64.of_int (4000 + (17 * trial))) ?pool ~with_rpc:false ()
  in
  let clock = Machine.clock world.World.machine in
  for c = 0 to k - 1 do
    World.spawn_seclibc_client world
      ~name:(Printf.sprintf "pool-tp-%d" c)
      (fun _p conn ->
        for j = 1 to calls do
          ignore (Smod_libc.Seclibc.Client.test_incr conn j)
        done)
  done;
  World.run world;
  float_of_int (k * calls) *. 1_000.0 /. Clock.now_us clock

let pooling ?(runner = Runner.sequential) ?(sessions = 20) ?(calls = 150)
    ?(clients = [ 1; 8; 64 ]) ?(trials = 3) () =
  let configs =
    [ `Start false; `Start true ]
    @ List.concat_map (fun k -> [ `Tp (false, k); `Tp (true, k) ]) clients
  in
  map_trials runner ~trials configs (fun cfg ~trial ->
      match cfg with
      | `Start pooled -> start_session_trial ~pooled ~sessions ~trial
      | `Tp (pooled, k) -> throughput_trial ~pooled ~k ~calls ~trial)
  |> List.map (fun (cfg, samples) ->
         let label =
           match cfg with
           | `Start true -> "pooled attach (smodd, warm)"
           | `Start false -> "cold fork per session"
           | `Tp (pooled, k) ->
               Printf.sprintf "%s %2d clients (kcalls/s)"
                 (if pooled then "pooled" else "cold  ")
                 k
         in
         entry_of_means label samples)

(* ------------------------------------------------------------------ *)
(* E18: shared-memory dispatch rings vs msgq transport                 *)
(* ------------------------------------------------------------------ *)

(* One trial: [rounds] batches over one transport, per-call latency
   sampled per round.  The msgq rows issue the batch as back-to-back
   legacy calls (each paying its own trap, two message-queue crossings
   and a policy evaluation); the ring rows submit the batch through the
   shared-memory ring (one trap, one policy evaluation and at most one
   handle wakeup per batch).  At batch 1 the ring still pays its own
   round trip, so it must merely not lose; the amortisation shows from
   batch 4 up.  Mean and p99 are both recorded — the ring's tail is what
   the doorbell fallback and spin budget are for. *)
let ring_trial ~use_ring ~batch ~rounds ~trial =
  let world = World.create ~seed:(Int64.of_int (5000 + (13 * trial))) ~with_rpc:false () in
  let clock = Machine.clock world.World.machine in
  let timing = ref (Float.nan, Float.nan) in
  World.spawn_seclibc_client world ~name:"ring-bench" (fun _p conn ->
      if use_ring then ignore (Stub.arm_ring conn);
      let argss = List.init batch (fun i -> [| i |]) in
      let do_batch () =
        if use_ring then ignore (Stub.call_batch conn ~func:"test_incr" argss)
        else List.iter (fun args -> ignore (Stub.call conn ~func:"test_incr" args)) argss
      in
      timing := Trial.time_batches ~clock ~batch ~rounds do_batch);
  World.run world;
  !timing

let ring_dispatch ?(runner = Runner.sequential) ?(batches = [ 1; 4; 16; 64 ]) ?(rounds = 200)
    ?(trials = 5) () =
  let configs =
    List.concat_map
      (fun batch -> [ (batch, "msgq", false); (batch, "ring", true) ])
      batches
  in
  map_trials runner ~trials configs (fun (batch, _, use_ring) ~trial ->
      ring_trial ~use_ring ~batch ~rounds ~trial)
  |> List.concat_map (fun ((batch, transport, _), pairs) ->
         [
           entry_of_means
             (Printf.sprintf "%s batch %2d (mean)" transport batch)
             (Array.map fst pairs);
           entry_of_means
             (Printf.sprintf "%s batch %2d (p99)" transport batch)
             (Array.map snd pairs);
         ])

(* ------------------------------------------------------------------ *)
(* E19: compiled decision programs vs interpreted KeyNote              *)
(* ------------------------------------------------------------------ *)

(* The E9 ladder again, but with the matching rung reading a volatile
   attribute (calls_so_far), so the verdict is not a pure function of its
   inputs: smodd's decision cache cannot memoise it and the batch path
   must evaluate policy per slot.  This is the worst case for the
   interpreter — a full assertion walk per call — and exactly where the
   compiled engine's flat opcode program earns its keep.  The bound is
   effectively infinite, so every call is allowed and the establishment
   check (where calls_so_far is unset and compares lexicographically)
   passes too. *)
let volatile_keynote_policy_with n =
  let assertions =
    List.init n (fun i ->
        Parse.assertion_of_string
          (Printf.sprintf
             "keynote-version: 2\n\
              authorizer: \"POLICY\"\n\
              licensees: \"client\"\n\
              conditions: module == \"seclibc\" && clause == %d -> \"allow\";\n"
             i))
  in
  let assertions =
    Parse.assertion_of_string
      "keynote-version: 2\n\
       authorizer: \"POLICY\"\n\
       licensees: \"client\"\n\
       conditions: module == \"seclibc\" && calls_so_far < 1000000000 -> \"allow\";\n"
    :: assertions
  in
  Policy.Keynote
    { policy = assertions; levels = [| "deny"; "allow" |]; min_level = "allow"; attrs = [] }

let compile_trial ~use_ring ~compile ~n ~batch ~rounds ~trial =
  let world =
    World.create
      ~seed:(Int64.of_int (6000 + (13 * trial)))
      ~policy:(volatile_keynote_policy_with (n - 1))
      ~with_rpc:false ()
  in
  Smod.set_policy_compile world.World.smod compile;
  let clock = Machine.clock world.World.machine in
  let timing = ref (Float.nan, Float.nan) in
  World.spawn_seclibc_client world ~name:"compile-bench" (fun _p conn ->
      if use_ring then ignore (Stub.arm_ring conn);
      let argss = List.init batch (fun i -> [| i |]) in
      let do_batch () =
        if use_ring then ignore (Stub.call_batch conn ~func:"test_incr" argss)
        else List.iter (fun args -> ignore (Stub.call conn ~func:"test_incr" args)) argss
      in
      timing := Trial.time_batches ~clock ~batch ~rounds do_batch);
  World.run world;
  !timing

(* Per-call latency by assertion count, over both transports and both
   engines.  The msgq rows issue plain calls; the ring rows submit
   [batch]-slot batches (amortising trap and wakeup, but still one policy
   evaluation per slot — the volatile guard forbids anything less).
   Interpreted rows pay the full KeyNote walk per slot; compiled rows pay
   the session-memo check plus the fused residue on the lane executor
   (the invariant rungs run once, when the session's context is armed).
   Mean and p99 per configuration, like E18. *)
let policy_compile_dispatch ?(runner = Runner.sequential) ?(assertions = [ 1; 4; 16; 64 ])
    ?(batch = 16) ?(rounds = 100) ?(trials = 5) () =
  let configs =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun (transport, use_ring) ->
            List.map
              (fun (engine, compile) -> (n, transport, use_ring, engine, compile))
              [ ("interp", false); ("compiled", true) ])
          [ ("msgq", false); ("ring", true) ])
      assertions
  in
  map_trials runner ~trials configs (fun (n, _, use_ring, _, compile) ~trial ->
      compile_trial ~use_ring ~compile ~n ~batch ~rounds ~trial)
  |> List.concat_map (fun ((n, transport, _, engine, _), pairs) ->
         [
           entry_of_means
             (Printf.sprintf "%s kn-%2d %-8s (mean)" transport n engine)
             (Array.map fst pairs);
           entry_of_means
             (Printf.sprintf "%s kn-%2d %-8s (p99)" transport n engine)
             (Array.map snd pairs);
         ])

(* ------------------------------------------------------------------ *)
(* E13 cost: TOCTOU mitigations (implementation)                       *)
(* ------------------------------------------------------------------ *)

let toctou_cost ?(runner = Runner.sequential) ?(calls = 1_000) ?(trials = 5) () =
  let configs =
    [
      ("no mitigation", Smod.No_mitigation);
      ("unmap during call", Smod.Unmap_during_call);
      ("dequeue client threads", Smod.Dequeue_client_threads);
    ]
  in
  map_trials runner ~trials configs (fun (label, mitigation) ~trial ->
      test_incr_trial
        ~setup:(fun w -> Smod.set_toctou_mitigation w.World.smod mitigation)
        ~label ~calls ~trials ~seed:(7200 + trial) ~trial ())
  |> List.map (fun ((label, _), samples) -> entry_of_means label samples)
