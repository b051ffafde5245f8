(** The smodd policy-decision cache.

    [sys_smod_call] re-verifies the caller's credential and re-evaluates
    the module policy on every dispatch (§3.1); the paper's §5 predicts
    this cost grows with policy complexity.  For decisions that are pure
    functions of their inputs ({!Secmodule.Policy.cacheable}), smodd
    memoises the outcome under the key

      (credential digest, function, m_id, policy revision, keystore
       generation)

    so the steady-state call path pays one cache probe instead of a
    credential check plus a full policy walk.  Entries expire after a TTL
    of simulated time, are evicted FIFO at capacity, and are invalidated
    explicitly when the module is removed, its policy swapped (revision
    key), or the keystore changes (generation key + flush).

    The credential digest is {!Secmodule.Smod.session_cred_digest}, held
    on the session.  Compiled policy programs are not cached here: their
    one cross-session store is the registry entry
    ({!Secmodule.Registry.find_compiled}), fronted by each session's
    policy memo. *)

type t

type decision = Allow | Deny of string

val create : clock:Smod_sim.Clock.t -> ttl_us:float -> capacity:int -> t
(** [capacity] must be positive; [ttl_us] non-positive disables expiry. *)

val ttl_us : t -> float
val capacity : t -> int
val size : t -> int

val lookup :
  t ->
  cred_digest:string ->
  func_name:string ->
  m_id:int ->
  policy_rev:int ->
  keystore_gen:int ->
  decision option
(** Charges one {!Smod_sim.Cost_model.Policy_cache_probe}; counts a
    [policy_cache.hits] or [policy_cache.misses] metric.  An entry older
    than the TTL counts as a miss ([policy_cache.expirations]) and is
    dropped. *)

val store :
  t ->
  cred_digest:string ->
  func_name:string ->
  m_id:int ->
  policy_rev:int ->
  keystore_gen:int ->
  decision ->
  unit
(** Charges one {!Smod_sim.Cost_model.Policy_cache_insert}; evicts the
    oldest entry first when at capacity ([policy_cache.evictions]). *)

val invalidate_module : t -> m_id:int -> int
(** Drop every cached decision for the module (the [sys_smod_remove]
    hook).  Returns the number of entries evicted; counts
    [policy_cache.invalidations]. *)

val flush : t -> int
(** Drop every cached decision (keystore change).  Returns the number of
    entries dropped; counts [policy_cache.flushes]. *)
