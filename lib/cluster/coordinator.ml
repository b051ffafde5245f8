(* The cluster coordinator: one control plane over K shard kernels.

   E20 proved near-linear scale-out over K *fully independent* kernels;
   what a real deployment shares is exactly what this module owns — the
   keystore generation and per-module policy revisions that every shard's
   caches are keyed by.  A control-plane write ([publish]) bumps the
   cluster epoch and reaches each shard in one of two coherence modes:

   - Eager broadcast: the op is applied to every shard at publish time
     (so correctness is immediate) and each shard accrues the handling
     cost of the invalidation message — {!Smod_sim.Cost_model.Coord_ctrl_recv}
     cycles — as debt charged on that shard's next dispatch, where the
     control message would be drained in a real event loop.  Dispatches
     between publishes pay nothing.

   - Lazy epoch check: the op is queued per shard with a publish-time
     stamp; every dispatch pays a {!Cost_model.Coord_epoch_check}
     (~15 cycles) and a stale shard settles with one
     {!Cost_model.Coord_sync_fetch} plus a {!Cost_model.Coord_apply_op}
     per queued op — a whole rotation storm coalesces into one sync.

   Either way the settlement runs from {!Secmodule.Smod.set_dispatch_gate},
   i.e. before any credential or session state is read, so no dispatch
   ever executes under a revoked keystore generation or a stale policy
   revision (test/test_cluster.ml pins both modes).

   Applying an op deliberately reuses the single-kernel invalidation
   chain: a keystore rotation fires Keystore.on_change, which flushes the
   registry program stores, each session's policy memo, and — when smodd
   is installed — the pool's decision cache, all in the same step (PR 4's guarantee,
   now per shard). *)

module Smod = Secmodule.Smod
module Registry = Secmodule.Registry
module Policy = Secmodule.Policy
module Machine = Smod_kern.Machine
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Keystore = Smod_keynote.Keystore
module Table = Smod_util.Table

type mode = Eager | Lazy

let mode_name = function Eager -> "eager" | Lazy -> "lazy"

type op =
  | Rotate_key of { name : string; secret : string }
      (** Upsert at cluster level: rotates where the principal exists,
          installs it where a shard has not seen it yet (strict
          {!Keystore.rotate_principal} underneath, so replication cannot
          diverge silently — a shard either knew the principal or gets
          the authoritative new key). *)
  | Set_policy of { module_name : string; version : int; policy : Policy.t }
      (** Applied on every shard where (module, version) is registered;
          shards not hosting the module skip it. *)

let describe_op = function
  | Rotate_key { name; _ } -> Printf.sprintf "rotate-key(%s)" name
  | Set_policy { module_name; version; _ } ->
      Printf.sprintf "set-policy(%s v%d)" module_name version

type migration_phase = Draining | Scrubbed | Reattaching | Done

let phase_name = function
  | Draining -> "draining"
  | Scrubbed -> "scrubbed"
  | Reattaching -> "reattaching"
  | Done -> "done"

type migration = {
  mg_tenant : string;
  mg_from : int;
  mg_to : int;
  mg_sessions : int;  (* sessions drained off the source *)
  mutable mg_phase : migration_phase;
}

type shard = {
  sh_id : int;
  sh_smod : Smod.t;
  mutable sh_epoch : int;  (* last cluster epoch this shard settled *)
  mutable sh_debt_cycles : float;  (* eager: un-drained control-message cost *)
  mutable sh_pending : (float * op) list;  (* lazy: (publish stamp us, op), oldest first *)
  mutable sh_prop_us : float list;  (* propagation samples, newest first *)
}

type t = {
  mode : mode;
  vnodes : int;
  mutable epoch : int;
  mutable shards : shard list;  (* ascending sh_id *)
  mutable ring : Placement.ring option;  (* None until the first shard joins *)
  overrides : (string, int) Hashtbl.t;  (* tenant -> shard, set by migration *)
  mutable migrations : migration list;  (* newest first *)
  mutable next_id : int;
}

(* Observability: control-plane traffic, not dispatch volume.  Counters
   only — every simulated-time cost is charged explicitly above. *)
let m_scope = Smod_metrics.scope "cluster"
let m_publishes = Smod_metrics.Scope.counter m_scope "publishes"
let m_ops_applied = Smod_metrics.Scope.counter m_scope "ops_applied"
let m_epoch_checks = Smod_metrics.Scope.counter m_scope "epoch_checks"
let m_lazy_syncs = Smod_metrics.Scope.counter m_scope "lazy_syncs"
let m_migrations = Smod_metrics.Scope.counter m_scope "migrations"
let m_sessions_drained = Smod_metrics.Scope.counter m_scope "sessions_drained"

let create ?(vnodes = Placement.default_vnodes) ~mode () =
  {
    mode;
    vnodes;
    epoch = 0;
    shards = [];
    ring = None;
    overrides = Hashtbl.create 16;
    migrations = [];
    next_id = 0;
  }

let mode t = t.mode
let epoch t = t.epoch
let shards t = t.shards
let shard_id sh = sh.sh_id
let smod sh = sh.sh_smod
let shard_epoch sh = sh.sh_epoch
let propagation_us sh = List.rev sh.sh_prop_us
let reset_propagation sh = sh.sh_prop_us <- []

let ring t =
  match t.ring with Some r -> r | None -> invalid_arg "Coordinator: cluster has no shards"

let shard_exn t id =
  match List.find_opt (fun sh -> sh.sh_id = id) t.shards with
  | Some sh -> sh
  | None -> invalid_arg (Printf.sprintf "Coordinator: no shard %d" id)

let apply_op sh op =
  (match op with
  | Rotate_key { name; secret } ->
      let ks = Smod.keystore sh.sh_smod in
      if Keystore.has_principal ks name then Keystore.rotate_principal ks ~name ~secret
      else Keystore.add_principal ks ~name ~secret
  | Set_policy { module_name; version; policy } -> (
      match Registry.find (Smod.registry sh.sh_smod) ~name:module_name ~version with
      | Some entry -> Registry.set_policy entry policy
      | None -> ()));
  Smod_metrics.Counter.incr m_ops_applied

(* Lazy-mode settlement: one fetch amortises every op queued since this
   shard last looked, then the shard is current. *)
let sync t sh clock =
  Clock.charge clock Cost.Coord_sync_fetch;
  Smod_metrics.Counter.incr m_lazy_syncs;
  let pending = sh.sh_pending in
  sh.sh_pending <- [];
  List.iter
    (fun (stamp, op) ->
      Clock.charge clock Cost.Coord_apply_op;
      apply_op sh op;
      sh.sh_prop_us <- (Clock.now_us clock -. stamp) :: sh.sh_prop_us)
    pending;
  sh.sh_epoch <- t.epoch

let gate t sh () =
  match t.mode with
  | Eager ->
      if sh.sh_debt_cycles > 0.0 then begin
        let clock = Machine.clock (Smod.machine sh.sh_smod) in
        Clock.charge_cycles clock sh.sh_debt_cycles;
        sh.sh_debt_cycles <- 0.0
      end
  | Lazy ->
      let clock = Machine.clock (Smod.machine sh.sh_smod) in
      Clock.charge clock Cost.Coord_epoch_check;
      Smod_metrics.Counter.incr m_epoch_checks;
      if sh.sh_epoch < t.epoch then sync t sh clock

let add_shard t smod_t =
  let sh =
    {
      sh_id = t.next_id;
      sh_smod = smod_t;
      sh_epoch = t.epoch;
      sh_debt_cycles = 0.0;
      sh_pending = [];
      sh_prop_us = [];
    }
  in
  t.next_id <- t.next_id + 1;
  t.shards <- t.shards @ [ sh ];
  Smod.set_dispatch_gate smod_t (Some (gate t sh));
  t.ring <-
    Some
      (match t.ring with
      | None -> Placement.create ~vnodes:t.vnodes [ sh.sh_id ]
      | Some r -> Placement.add_shard r sh.sh_id);
  sh

let remove_shard t id =
  let sh = shard_exn t id in
  Smod.set_dispatch_gate sh.sh_smod None;
  t.shards <- List.filter (fun s -> s.sh_id <> id) t.shards;
  t.ring <-
    (match t.ring with
    | Some r when List.length (Placement.shards r) > 1 -> Some (Placement.remove_shard r id)
    | Some _ | None -> None)

let publish t op =
  t.epoch <- t.epoch + 1;
  Smod_metrics.Counter.incr m_publishes;
  List.iter
    (fun sh ->
      match t.mode with
      | Eager ->
          (* Correctness now, cost at the next dispatch: the shard's event
             loop drains the invalidation message before admitting anything
             else, so the handling cycles land on the first call after the
             storm — exactly where a real deployment's tail forms. *)
          apply_op sh op;
          sh.sh_epoch <- t.epoch;
          sh.sh_debt_cycles <- sh.sh_debt_cycles +. Cost.cycles Cost.Coord_ctrl_recv;
          sh.sh_prop_us <-
            Cost.us_of_cycles (Cost.cycles Cost.Coord_ctrl_recv) :: sh.sh_prop_us
      | Lazy ->
          let clock = Machine.clock (Smod.machine sh.sh_smod) in
          sh.sh_pending <- sh.sh_pending @ [ (Clock.now_us clock, op) ])
    t.shards

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let route t key =
  match Hashtbl.find_opt t.overrides key with
  | Some id -> id
  | None -> Placement.place (ring t) key

let set_override t ~tenant ~shard = Hashtbl.replace t.overrides tenant shard
let clear_override t ~tenant = Hashtbl.remove t.overrides tenant

let overrides t =
  Hashtbl.fold (fun tenant shard acc -> (tenant, shard) :: acc) t.overrides []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Migrations (driven by Migrate, recorded here)                       *)
(* ------------------------------------------------------------------ *)

let add_migration t mg =
  t.migrations <- mg :: t.migrations;
  Smod_metrics.Counter.incr m_migrations;
  Smod_metrics.Counter.add m_sessions_drained mg.mg_sessions

let migrations t = List.rev t.migrations
let in_flight t = List.rev (List.filter (fun mg -> mg.mg_phase <> Done) t.migrations)

(* ------------------------------------------------------------------ *)
(* Status (smodctl cluster status)                                     *)
(* ------------------------------------------------------------------ *)

let render_status t ~tenants =
  let b = Buffer.create 1024 in
  Printf.bprintf b "coordinator: mode=%s epoch=%d shards=%d\n" (mode_name t.mode) t.epoch
    (List.length t.shards);
  let sh_t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "shard"; "epoch"; "keystore gen"; "sessions"; "policy revs" ]
  in
  List.iter
    (fun sh ->
      let revs =
        Registry.entries (Smod.registry sh.sh_smod)
        |> List.map (fun (e : Registry.entry) ->
               Printf.sprintf "%s:r%d" e.Registry.image.Smod_modfmt.Smof.mod_name
                 e.Registry.policy_rev)
        |> String.concat " "
      in
      Table.add_row sh_t
        [
          string_of_int sh.sh_id;
          string_of_int sh.sh_epoch;
          string_of_int (Keystore.generation (Smod.keystore sh.sh_smod));
          string_of_int (List.length (Smod.active_sessions sh.sh_smod));
          revs;
        ])
    t.shards;
  Buffer.add_string b (Table.render sh_t);
  if tenants <> [] then begin
    Buffer.add_string b "\nplacement:\n";
    let pl_t =
      Table.create ~aligns:[ Table.Left; Table.Right; Table.Left ]
        [ "tenant"; "shard"; "via" ]
    in
    List.iter
      (fun tenant ->
        let via = if Hashtbl.mem t.overrides tenant then "override" else "ring" in
        Table.add_row pl_t [ tenant; string_of_int (route t tenant); via ])
      tenants;
    Buffer.add_string b (Table.render pl_t)
  end;
  (match migrations t with
  | [] -> Buffer.add_string b "\nmigrations: none\n"
  | mgs ->
      Buffer.add_string b "\nmigrations:\n";
      List.iter
        (fun mg ->
          Printf.bprintf b "  %s: shard %d -> %d, %d session%s, %s\n" mg.mg_tenant mg.mg_from
            mg.mg_to mg.mg_sessions
            (if mg.mg_sessions = 1 then "" else "s")
            (phase_name mg.mg_phase))
        mgs);
  Buffer.contents b
