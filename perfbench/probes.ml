(* Host-time probes of single layers, fed the workload's own inputs.  Each
   probe times one public function in a tight loop outside any simulated
   session, so a change to that layer shows here even when the end-to-end
   loop hides it. *)

module Machine = Smod_kern.Machine
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Aspace = Smod_vmem.Aspace
module Layout = Smod_vmem.Layout
module Ring = Smod_ring.Ring
module Eval = Smod_keynote.Eval
open Secmodule

let now_ns = Harness.now_ns

(* Median over 5 rounds of the per-iteration time, each round sized to
   take about [round_ms]. *)
let per_iter_ns ?(round_ms = 20.0) f =
  let time n =
    let t0 = now_ns () in
    for _ = 1 to n do
      f ()
    done;
    float_of_int (now_ns () - t0)
  in
  let rec calibrate n =
    let dt = time n in
    if dt < round_ms *. 1e5 then calibrate (2 * n) else (n, dt)
  in
  let n, dt = calibrate 1 in
  let iters = max 1 (int_of_float (float_of_int n *. round_ms *. 1e6 /. dt)) in
  Smod_util.Stats.median (Array.init 5 (fun _ -> time iters /. float_of_int iters))

(* Median of [n] individually timed calls, for probes that need fresh
   state per call or take milliseconds. *)
let each_ns n setup f =
  let samples =
    Array.init n (fun i ->
        let x = setup i in
        let t0 = now_ns () in
        f x;
        float_of_int (now_ns () - t0))
  in
  Smod_util.Stats.median samples

let msgq_pair_ns ~seed =
  let m = Machine.create ~seed:(Int64.of_int seed) () in
  let result = ref 0.0 in
  ignore
    (Machine.spawn m ~name:"msgq-probe" (fun p ->
         let qid = Machine.msgget m p ~key:0x5eed in
         let payload = Bytes.make 32 'x' in
         result :=
           per_iter_ns (fun () ->
               Machine.msgsnd m p ~qid ~mtype:1 payload;
               ignore (Machine.msgrcv m p ~qid ~mtype:1));
         Machine.msgctl_remove m p ~qid));
  Machine.run m;
  !result

let policy_check_ns ~seed (inputs : Workloads.probe_inputs) =
  let clock = Clock.create ~seed:(Int64.of_int seed) () in
  let state = Policy.initial_state inputs.policy in
  per_iter_ns (fun () ->
      ignore
        (Policy.check ~clock ~now_us:0.0 ~credential:inputs.credential ~attrs:inputs.attrs
           inputs.policy state))

(* Zero for workloads whose policy is not KeyNote: there is nothing to
   evaluate. *)
let keynote_eval_ns (inputs : Workloads.probe_inputs) =
  match inputs.policy with
  | Policy.Keynote { policy; levels; attrs = static_attrs; _ } ->
      let credential = inputs.credential in
      let attrs = inputs.attrs @ static_attrs in
      per_iter_ns (fun () ->
          ignore
            (Eval.query ~policy ~credentials:credential.Credential.assertions ~attrs
               ~requesters:[ credential.Credential.principal ] ~levels))
  | _ -> 0.0

let ring_cycle_ns () =
  let m = Machine.create () in
  let a = Machine.standard_aspace m ~name:"ring-probe" in
  let nslots = 64 in
  let base = (Aspace.brk a + 63) land lnot 63 in
  Aspace.obreak a (base + Ring.size_bytes ~nslots);
  let r = Ring.init a ~base ~nslots in
  let args = [| 41 |] in
  per_iter_ns (fun () ->
      match Ring.try_submit r ~m_id:1 ~func_id:0 ~client_sp:0 ~client_fp:0 ~args with
      | None -> failwith "ring probe: ring full"
      | Some seq ->
          Ring.stamp r ~seq ~allow:true;
          let slot = Ring.claim_stamped r ~seq ~m_id:1 ~func_id:0 in
          Ring.complete r ~seq:slot.Ring.seq ~status:0 ~retval:42;
          ignore (Ring.reap r))

let force_share_us () =
  let m = Machine.create () in
  each_ns 64
    (fun i ->
      ( Machine.standard_aspace m ~name:(Printf.sprintf "client-%d" i),
        Machine.standard_aspace m ~name:(Printf.sprintf "handle-%d" i) ))
    (fun (client, handle) ->
      Aspace.force_share ~client ~handle ~lo:Layout.share_lo ~hi:Layout.share_hi)
  /. 1e3

let text_decrypt_us (inputs : Workloads.probe_inputs) =
  each_ns 15 ignore (fun () -> ignore (Registry.plaintext_image inputs.entry)) /. 1e3

let clock_charge_ns ~seed =
  let clock = Clock.create ~seed:(Int64.of_int seed) () in
  per_iter_ns (fun () -> Clock.charge clock Cost.Trap_enter)

let counter_incr_ns () =
  let c = Smod_metrics.counter "perfbench.probe" in
  per_iter_ns (fun () -> Smod_metrics.Counter.incr c)

let all ~seed inputs =
  [
    ("kern.msgq_pair_probe_ns", msgq_pair_ns ~seed);
    ("secmodule.policy_check_probe_ns", policy_check_ns ~seed inputs);
    ("keynote.eval_probe_ns", keynote_eval_ns inputs);
    ("ring.cycle_probe_ns", ring_cycle_ns ());
    ("vmem.force_share_probe_us", force_share_us ());
    ("crypto.text_decrypt_probe_us", text_decrypt_us inputs);
    ("sim.clock_charge_probe_ns", clock_charge_ns ~seed);
    ("metrics.counter_incr_probe_ns", counter_incr_ns ());
  ]
