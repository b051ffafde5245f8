module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model

(* Observability (lib/metrics): every probe outcome plus each way an
   entry can leave the cache — TTL expiry, capacity eviction, module
   invalidation, keystore flush. *)
let m_scope = Smod_metrics.scope "policy_cache"
let m_hits = Smod_metrics.Scope.counter m_scope "hits"
let m_misses = Smod_metrics.Scope.counter m_scope "misses"
let m_inserts = Smod_metrics.Scope.counter m_scope "inserts"
let m_expirations = Smod_metrics.Scope.counter m_scope "expirations"
let m_evictions = Smod_metrics.Scope.counter m_scope "evictions"
let m_invalidations = Smod_metrics.Scope.counter m_scope "invalidations"
let m_flushes = Smod_metrics.Scope.counter m_scope "flushes"

type decision = Allow | Deny of string

type entry = { e_decision : decision; e_m_id : int; e_stored_us : float; e_seq : int }

type t = {
  clock : Clock.t;
  ttl_us : float;
  cap : int;
  table : (string, entry) Hashtbl.t;
  order : (string * int) Queue.t;
      (* (key, seq) in insertion order, oldest first, for eviction.  The
         sequence number marks stale records: a key removed by expiry or
         invalidation and later re-stored gets a fresh seq, so eviction
         skips the old record instead of dropping the refreshed entry. *)
  mutable seq : int;
}

let create ~clock ~ttl_us ~capacity =
  if capacity <= 0 then invalid_arg "Policy_cache.create: capacity";
  {
    clock;
    ttl_us;
    cap = capacity;
    table = Hashtbl.create 64;
    order = Queue.create ();
    seq = 0;
  }

let ttl_us t = t.ttl_us
let capacity t = t.cap
let size t = Hashtbl.length t.table

(* Revision and generation are part of the key, not checked at lookup: a
   bumped policy or keystore simply stops producing the old key, and the
   stale entries age out or get evicted. *)
let key ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen =
  Printf.sprintf "%s\x00%s\x00%d\x00%d\x00%d" cred_digest func_name m_id policy_rev
    keystore_gen

let lookup t ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen =
  Clock.charge t.clock Cost.Policy_cache_probe;
  let k = key ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen in
  match Hashtbl.find_opt t.table k with
  | Some e when t.ttl_us <= 0.0 || Clock.now_us t.clock -. e.e_stored_us <= t.ttl_us ->
      Smod_metrics.Counter.incr m_hits;
      Some e.e_decision
  | Some _ ->
      Hashtbl.remove t.table k;
      Smod_metrics.Counter.incr m_expirations;
      Smod_metrics.Counter.incr m_misses;
      None
  | None ->
      Smod_metrics.Counter.incr m_misses;
      None

let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some (k, seq) -> (
      (* Skip stale records — keys removed by expiry or invalidation, or
         re-stored since (fresh seq) — and evict the oldest live entry. *)
      match Hashtbl.find_opt t.table k with
      | Some e when e.e_seq = seq ->
          Hashtbl.remove t.table k;
          Smod_metrics.Counter.incr m_evictions
      | Some _ | None -> evict_one t)

let store t ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen decision =
  Clock.charge t.clock Cost.Policy_cache_insert;
  let k = key ~cred_digest ~func_name ~m_id ~policy_rev ~keystore_gen in
  let seq =
    match Hashtbl.find_opt t.table k with
    | Some e -> e.e_seq  (* refresh in place: the FIFO position is kept *)
    | None ->
        if Hashtbl.length t.table >= t.cap then evict_one t;
        let seq = t.seq in
        t.seq <- t.seq + 1;
        Queue.add (k, seq) t.order;
        seq
  in
  Hashtbl.replace t.table k
    { e_decision = decision; e_m_id = m_id; e_stored_us = Clock.now_us t.clock; e_seq = seq };
  Smod_metrics.Counter.incr m_inserts

let invalidate_module t ~m_id =
  let victims =
    Hashtbl.fold (fun k e acc -> if e.e_m_id = m_id then k :: acc else acc) t.table []
  in
  List.iter (Hashtbl.remove t.table) victims;
  let n = List.length victims in
  Smod_metrics.Counter.add m_invalidations n;
  n

let flush t =
  let n = Hashtbl.length t.table in
  Hashtbl.reset t.table;
  Queue.clear t.order;
  Smod_metrics.Counter.incr m_flushes;
  n
