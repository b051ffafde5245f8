(* The four workloads.  Each builds a world through the library's public
   API, establishes its sessions, warms up, and hands every simulated
   client to [Harness.drive].  No [Smod.set_*] performance switch is
   turned on, except the kernel poller and session mux in
   [poller_fanout], which are deployment choices rather than
   optimisations.

   Load is closed-loop: each simulated client is a coroutine that waits
   for its reply before sending the next request.  Every input (call
   arguments, function choice, key material) is drawn from the seed. *)

module Machine = Smod_kern.Machine
module Proc = Smod_kern.Proc
module Errno = Smod_kern.Errno
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Rng = Smod_util.Rng
module Parse = Smod_keynote.Parse
module Keystore = Smod_keynote.Keystore
module World = Smod_bench_kit.World
module Seclibc = Smod_libc.Seclibc
open Secmodule

(* What the probes of a traced run need from the workload: the policy,
   credential and call attributes its admission path evaluates, and the
   encrypted module entry its sessions decrypt. *)
type probe_inputs = {
  policy : Policy.t;
  credential : Credential.t;
  attrs : (string * string) list;
  entry : Registry.entry;
}

type built = {
  world : World.t;
  ctl : Harness.world_ctl;
  probe : probe_inputs;
  anchors : unit -> (string * float) list;
      (** workload-specific simulated figures of the sim pass *)
}

type spec = {
  name : string;
  build : Harness.env -> seed:int -> host_phases:(Harness.phase * float) list -> built;
}

let rng_of ~seed salt = Rng.create (Int64.of_int ((seed * 1_000_003) + salt))

let levels = [| "deny"; "allow" |]

let keynote_policy ?(attrs = []) assertions =
  Policy.Keynote
    {
      policy = List.map Parse.assertion_of_string assertions;
      levels;
      min_level = "allow";
      attrs;
    }

let assertion ~licensees conditions =
  Printf.sprintf
    "keynote-version: 2\nauthorizer: \"POLICY\"\nlicensees: %S\nconditions: %s -> \"allow\";\n"
    licensees conditions

let call_attrs ~module_name ~func =
  [ ("phase", "call"); ("function", func); ("module", module_name); ("calls_so_far", "0") ]

let spawn_client (b : built) env ~tid ~name body =
  ignore
    (Machine.spawn b.world.World.machine ~name (fun p ->
         let client = body p in
         Harness.drive env b.ctl p ~tid client))

(* Set-up connections carry op and parent -1. *)
let connect env smod p ?(op = -1) ?(parent = -1) ~tid ?(module_name = Seclibc.module_name)
    ?(version = Seclibc.version) credential =
  Harness.timed_connect env ~parent ~op ~tid (fun () ->
      Stub.connect smod p ~module_name ~version ~credential)

let close_conn conn env ~op ~tid =
  Harness.timed_close env ~parent:(-1) ~op ~tid (fun () -> Stub.close conn)

(* ------------------------------------------------------------------ *)
(* fig8_msgq                                                           *)
(* ------------------------------------------------------------------ *)

(* The paper's Figure 8 path: one long-lived seclibc session (encrypted
   text, default Session_lifetime policy) alternating SMOD test_incr(i)
   and SMOD getpid.  Trap, scheduler, msgq, stub and dispatch do all the
   work on every op; policy is trivial and neither the ring nor crypto
   runs after set-up. *)
let fig8_msgq env ~seed ~host_phases =
  let world = World.create ~seed:(Int64.of_int seed) ~with_rpc:false () in
  let smod = world.World.smod in
  let ctl =
    Harness.world_ctl world.World.machine ~nclients:1 ~ops_per_request:1 ~sim_requests:20_000
      ~host_phases
  in
  let rng = rng_of ~seed 1 in
  let args = Array.init 4096 (fun _ -> Rng.int rng (1 lsl 30)) in
  let incr_cycles = ref 0.0 and incr_n = ref 0 in
  let getpid_cycles = ref 0.0 and getpid_n = ref 0 in
  let credential = World.credential world in
  let b =
    {
      world;
      ctl;
      probe =
        {
          policy = world.World.libc_entry.Registry.policy;
          credential;
          attrs = call_attrs ~module_name:Seclibc.module_name ~func:"test_incr";
          entry = world.World.libc_entry;
        };
      anchors =
        (fun () ->
          [
            ("smod_test_incr", !incr_cycles /. float_of_int (max 1 !incr_n));
            ("smod_getpid", !getpid_cycles /. float_of_int (max 1 !getpid_n));
          ]);
    }
  in
  spawn_client b env ~tid:0 ~name:"fig8-client" (fun p ->
      let conn = connect env smod p ~tid:0 credential in
      let call op =
        if op land 1 = 0 then begin
          let arg = args.(op land 4095) in
          if Seclibc.Client.test_incr conn arg = arg + 1 then 0 else 1
        end
        else if Seclibc.Client.getpid conn = p.Proc.pid then 0
        else 1
      in
      for op = 0 to 255 do
        ignore (call op)
      done;
      let request (env : Harness.env) ~op ~tid ~parent =
        let c0 = Clock.now_cycles env.Harness.clock in
        let bad = Harness.span env Harness.Call ~parent ~op ~tid (fun _ -> call op) in
        if env.Harness.phase = Harness.Sim then begin
          let dc = Clock.now_cycles env.Harness.clock -. c0 in
          if op land 1 = 0 then begin
            incr_cycles := !incr_cycles +. Cost.us_of_cycles dc;
            incr incr_n
          end
          else begin
            getpid_cycles := !getpid_cycles +. Cost.us_of_cycles dc;
            incr getpid_n
          end
        end;
        bad
      in
      { Harness.request; close = close_conn conn });
  b

(* ------------------------------------------------------------------ *)
(* policy_ring                                                         *)
(* ------------------------------------------------------------------ *)

let ring_module = "ringmod"
let ring_family = 64
let ring_batch = 64
let allow_func i = Printf.sprintf "vf_%02d" i
let deny_func i = Printf.sprintf "xf_%02d" i
let allow_const i = (7 * i) + 3

(* 128 bytecode functions, each adding its own constant: 64 the policy
   allows (vf_nn) and 64 it denies (xf_nn). *)
let ring_image () =
  Toolchain.assemble_module ~name:ring_module ~version:1
    (List.init ring_family (fun i ->
         (allow_func i, Printf.sprintf "loadarg 0\npush %d\nadd\nret\n" (allow_const i)))
    @ List.init ring_family (fun i ->
          (deny_func i, Printf.sprintf "loadarg 0\npush %d\nadd\nret\n" (1000 + i))))

(* 16 assertions: one rung admits session establishment and every vf_*
   function ("vf_" < "x" < "xf_"), fifteen never match. *)
let ring_policy =
  keynote_policy ~attrs:[ ("tier", "gold") ]
    (assertion ~licensees:"client"
       (Printf.sprintf
          "(phase == \"session\" || function < \"x\") && module == %S && tier == \"gold\""
          ring_module)
    :: List.init 15 (fun i ->
           assertion ~licensees:"client"
             (Printf.sprintf "function == \"__clause_%d\" && module == %S" i ring_module)))

(* One client on its own module submitting 64-slot mixed-function batches:
   every slot names a distinct function (defeating the per-batch decision
   memo), and every 4th slot names one the policy denies.  Admission and
   the ring do the work, at one trap per 64 calls. *)
let policy_ring env ~seed ~host_phases =
  let world = World.create ~seed:(Int64.of_int seed) ~with_rpc:false () in
  let smod = world.World.smod in
  let entry =
    Toolchain.package smod ~image:(ring_image ()) ~protection:Registry.Encrypted
      ~policy:ring_policy ()
  in
  let ctl =
    Harness.world_ctl world.World.machine ~nclients:1 ~ops_per_request:ring_batch
      ~sim_requests:200 ~host_phases
  in
  let credential = World.credential world in
  let rng = rng_of ~seed 2 in
  (* 64 pre-drawn batches of (function index, denied, argument). *)
  let plans =
    Array.init 64 (fun _ ->
        let perm = Array.init ring_family Fun.id in
        Rng.shuffle rng perm;
        Array.init ring_batch (fun j -> (perm.(j), j mod 4 = 3, Rng.int rng (1 lsl 30))))
  in
  let b =
    {
      world;
      ctl;
      probe =
        {
          policy = ring_policy;
          credential;
          attrs = call_attrs ~module_name:ring_module ~func:(allow_func 0);
          entry;
        };
      anchors = (fun () -> []);
    }
  in
  spawn_client b env ~tid:0 ~name:"ring-client" (fun p ->
      let conn = connect env smod p ~tid:0 ~module_name:ring_module ~version:1 credential in
      ignore (Stub.arm_ring ~nslots:ring_batch conn);
      let fid name =
        match Stub.func_id conn name with
        | Some id -> id
        | None -> invalid_arg ("policy_ring: no symbol " ^ name)
      in
      let batch_lists =
        Array.map
          (fun plan ->
            List.map
              (fun (i, denied, arg) ->
                (fid (if denied then deny_func i else allow_func i), [| arg |]))
              (Array.to_list plan))
          plans
      in
      let run_batch op =
        let plan = plans.(op land 63) in
        let bad = ref 0 in
        List.iteri
          (fun j result ->
            let i, denied, arg = plan.(j) in
            let ok =
              match result with
              | Ok v -> (not denied) && v = arg + allow_const i
              | Error (Errno.EACCES, _) -> denied
              | Error _ -> false
            in
            if not ok then incr bad)
          (Stub.call_batch_funcs conn batch_lists.(op land 63));
        !bad
      in
      for op = 0 to 3 do
        ignore (run_batch op)
      done;
      let request env ~op ~tid ~parent =
        Harness.span env Harness.Batch ~parent ~op ~tid (fun _ -> run_batch op)
      in
      { Harness.request; close = close_conn conn });
  b

(* ------------------------------------------------------------------ *)
(* session_churn                                                       *)
(* ------------------------------------------------------------------ *)

let churn_calls = 8

(* Four assertions trusting the "vendor" principal, which delegates to the
   client through a signed credential.  [rev] only renames the three
   non-matching rungs, so every replacement grants exactly what the
   previous policy granted. *)
let churn_policy rev =
  keynote_policy
    (assertion ~licensees:"vendor"
       "module == \"seclibc\" && (phase == \"session\" || function == \"test_incr\")"
    :: List.init 3 (fun i ->
           assertion ~licensees:"vendor"
             (Printf.sprintf "module == \"seclibc\" && function == \"__rev%d_%d\"" rev i)))

let vendor_license ks =
  Keystore.sign ks
    (Parse.assertion_of_string
       "keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"client\"\n\
        conditions: true -> \"allow\";\n")

(* Sequential short cold sessions under a KeyNote policy: connect,
   8 test_incr calls, close.  Every 4th session the admin replaces the
   policy mid-session; every 16th, before connecting, the admin rotates
   the vendor key and re-issues the client's credential.  Session
   life-cycle (forced fork, text decryption, force-share, teardown)
   dominates; the control-plane writes sit beside the reads. *)
let session_churn env ~seed ~host_phases =
  let world =
    World.create ~seed:(Int64.of_int seed) ~with_rpc:false ~policy:(churn_policy 0) ()
  in
  let smod = world.World.smod in
  let entry = world.World.libc_entry in
  let ks = Smod.keystore smod in
  let rng = rng_of ~seed 3 in
  let secret () = Printf.sprintf "vendor-%016x" (Rng.int rng (1 lsl 60)) in
  Keystore.add_principal ks ~name:"vendor" ~secret:(secret ());
  let issue () = Credential.make ~principal:"client" ~assertions:[ vendor_license ks ] () in
  let credential = ref (issue ()) in
  let args = Array.init 4096 (fun _ -> Rng.int rng (1 lsl 30)) in
  let ctl =
    Harness.world_ctl world.World.machine ~nclients:1 ~ops_per_request:1 ~sim_requests:64
      ~host_phases
  in
  let b =
    {
      world;
      ctl;
      probe =
        {
          policy = churn_policy 0;
          credential = !credential;
          attrs = call_attrs ~module_name:Seclibc.module_name ~func:"test_incr";
          entry;
        };
      anchors = (fun () -> []);
    }
  in
  spawn_client b env ~tid:0 ~name:"churn-client" (fun p ->
      let session env ~op ~tid ~parent =
        let control = op >= 0 in
        if control && op mod 16 = 0 then begin
          Harness.span env Harness.Rotate ~parent ~op ~tid (fun _ ->
              Keystore.rotate_principal ks ~name:"vendor" ~secret:(secret ()));
          credential := issue ();
          env.Harness.control_writes <- env.Harness.control_writes + 1
        end;
        let conn = connect env smod p ~op ~parent ~tid !credential in
        let bad = ref 0 in
        (match
           for i = 0 to churn_calls - 1 do
             let arg = args.(((op land 511) * churn_calls) + i) in
             let r =
               Harness.span env Harness.Call ~parent ~op ~tid (fun _ ->
                   Seclibc.Client.test_incr conn arg)
             in
             if r <> arg + 1 then incr bad;
             if control && op mod 4 = 1 && i = 3 then begin
               Harness.span env Harness.Set_policy ~parent ~op ~tid (fun _ ->
                   Registry.set_policy entry (churn_policy op));
               env.Harness.control_writes <- env.Harness.control_writes + 1
             end
           done
         with
        | () -> ()
        | exception e ->
            Stub.close conn;
            raise e);
        close_conn conn env ~op ~tid;
        if !bad > 0 then 1 else 0
      in
      for _ = 1 to 2 do
        ignore (session env ~op:(-1) ~tid:0 ~parent:(-1))
      done;
      { Harness.request = session; close = (fun _ ~op:_ ~tid:_ -> ()) });
  b

(* ------------------------------------------------------------------ *)
(* poller_fanout                                                       *)
(* ------------------------------------------------------------------ *)

let fanout_sessions = 64
let fanout_batch = 16

(* 64 tenant sessions served by the kernel poller and the effects mux,
   each a closed loop of 16-slot test_incr ring batches.  The steady path
   needs no traps: work moves into poller sweeps and fiber switches, and
   sweep cost grows with the session count. *)
let poller_fanout env ~seed ~host_phases =
  let world = World.create ~seed:(Int64.of_int seed) ~with_rpc:false () in
  let smod = world.World.smod in
  Smod.set_kernel_poller smod true;
  Smod.set_session_mux smod true;
  let ctl =
    Harness.world_ctl world.World.machine ~nclients:fanout_sessions
      ~ops_per_request:fanout_batch ~sim_requests:8 ~host_phases
  in
  let credential = World.credential world in
  let rng = rng_of ~seed 4 in
  let b =
    {
      world;
      ctl;
      probe =
        {
          policy = world.World.libc_entry.Registry.policy;
          credential;
          attrs = call_attrs ~module_name:Seclibc.module_name ~func:"test_incr";
          entry = world.World.libc_entry;
        };
      anchors = (fun () -> []);
    }
  in
  for tid = 0 to fanout_sessions - 1 do
    let batches =
      Array.init 8 (fun _ -> Array.init fanout_batch (fun _ -> Rng.int rng (1 lsl 30)))
    in
    let arg_lists =
      Array.map (fun a -> Array.to_list (Array.map (fun v -> [| v |]) a)) batches
    in
    spawn_client b env ~tid ~name:(Printf.sprintf "tenant-%02d" tid) (fun p ->
        let conn = connect env smod p ~tid credential in
        ignore (Stub.arm_ring ~nslots:fanout_batch conn);
        let run_batch k =
          let expected = batches.(k land 7) in
          let bad = ref 0 in
          List.iteri
            (fun j r -> match r with Ok v when v = expected.(j) + 1 -> () | _ -> incr bad)
            (Stub.call_batch conn ~func:"test_incr" arg_lists.(k land 7));
          !bad
        in
        let round = ref 0 in
        for _ = 1 to 2 do
          ignore (run_batch !round);
          incr round
        done;
        let request env ~op ~tid ~parent =
          let k = !round in
          incr round;
          Harness.span env Harness.Batch ~parent ~op ~tid (fun _ -> run_batch k)
        in
        { Harness.request; close = close_conn conn })
  done;
  b

let all =
  [
    { name = "fig8_msgq"; build = fig8_msgq };
    { name = "policy_ring"; build = policy_ring };
    { name = "session_churn"; build = session_churn };
    { name = "poller_fanout"; build = poller_fanout };
  ]
