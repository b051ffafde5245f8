(** The cycle-cost model.

    Every primitive event in the simulated machine is charged a number of
    CPU cycles here.  The constants are calibrated against the paper's
    testbed (Figure 7: Pentium III "Katmai", 599 MHz, 512 KB L2,
    OpenBSD 3.6) such that the *native getpid* path lands near the paper's
    0.658 µs/call.  Every other benchmark number is emergent: it is the sum
    of the events that path actually executes, not a hard-coded answer.

    Keeping all constants in this one module is deliberate — it is the
    single place where "how expensive is the machine" is decided, and the
    place DESIGN.md points reviewers at. *)

type op =
  | Trap_enter  (** user → kernel transition: int/sysenter + kernel prologue *)
  | Trap_exit  (** kernel → user return path *)
  | Getpid_body  (** the work of [sys_getpid] proper *)
  | Getpid_client_fixup
      (** SecModule special handling: map the handle-side getpid result back
          to the client's pid (§4.3) *)
  | Context_switch  (** scheduler switch between two processes *)
  | Sched_enqueue
  | Sched_wakeup
  | Msgq_send  (** SysV [msgsnd], excluding any blocking *)
  | Msgq_recv  (** SysV [msgrcv], excluding any blocking *)
  | Copy_bytes of int  (** kernel/user or cross-process copy of [n] bytes *)
  | Page_map
  | Page_unmap
  | Page_protect
  | Tlb_flush
  | Page_fault_resolve  (** ordinary fault: look up entry, map page *)
  | Peer_share_fault
      (** the paper's modified [uvm_fault]: consult the SecModule peer's map
          and share its page (§4.1) *)
  | Cred_check  (** per-call credential revalidation in [sys_smod_call] *)
  | Registry_lookup  (** find a registered SecModule by id *)
  | Policy_always_allow
  | Policy_counter_check  (** quota / rate-limit style counters *)
  | Keynote_assertion_eval  (** evaluating one KeyNote assertion *)
  | Policy_compiled_op
      (** one opcode of a compiled decision program
          ([Smod_keynote.Compile]) — the tight-loop replacement for
          {!Keynote_assertion_eval}; charged for the batch-invariant
          prefix opcodes when a fused context is armed *)
  | Policy_fused_setup
      (** fused batch engine ([Smod_keynote.Fuse]): building or re-arming
          the batch-invariant snapshot before a batch — prefix opcodes are
          charged as {!Policy_compiled_op} on top; per-slot residue opcodes
          are the only per-slot charge *)
  | Policy_vector_op
      (** one {e pass} of the batch-major residue executor
          ([Smod_keynote.Vexec]) over up to W lanes: same per-unit price
          as {!Policy_compiled_op} (the opcode work is the same), but a
          pass over N live lanes is charged [ceil(N/W)] units — the
          SIMD-style lane-width discount the accelerator guides price.
          At one live lane it degenerates to exactly one compiled op *)
  | Policy_compile_assertion
      (** flattening one assertion into a decision program: delegation
          walk share, constant folding, opcode emission (one-time, cached
          per (credential, policy revision, keystore generation)) *)
  | Stub_push_args of int  (** client stub: push [n] argument words + ids *)
  | Stub_receive  (** handle-side stack repointing ([smod_stub_receive]) *)
  | Stub_return  (** frame restoration on the way back *)
  | Fork_base
  | Exec_base
  | Aes_block  (** one 16-byte AES block (encrypt or decrypt) *)
  | Aes_key_schedule
  | Sha256_block
  | Xdr_encode_word
  | Xdr_decode_word
  | Xdr_bytes of int  (** XDR opaque/string body of [n] bytes *)
  | Udp_send_stack  (** socket → IP → loopback driver, one datagram out *)
  | Udp_recv_stack  (** driver → IP → socket buffer, one datagram in *)
  | Socket_op  (** socket bookkeeping around send/recv *)
  | Rpc_dispatch  (** server-side program/procedure lookup *)
  | Svm_instr  (** one interpreted module-VM instruction *)
  | Native_call_overhead  (** plain user-level call/ret, for baselines *)
  | Pool_admission
      (** smodd (lib/pool): admission-queue bookkeeping when a client asks
          for a pooled handle — free-list probe, fairness cursor, waiter
          enqueue/dequeue *)
  | Handle_recycle
      (** smodd: resetting a parked handle for its next tenant — queue
          flush, stack re-point, pid-cache rewrite (the secret scrub is
          charged separately as {!Copy_bytes}) *)
  | Policy_cache_probe
      (** smodd: one lookup in the policy-decision cache (hash of the
          credential digest + module + revision key) *)
  | Policy_cache_insert  (** smodd: storing a freshly computed decision *)
  | Ring_submit
      (** dispatch ring (lib/ring): client fills one submission slot —
          sequence bump, state store, argument words already in shared
          memory so no copy is charged *)
  | Ring_claim  (** handle side: acquire one stamped Submitted slot *)
  | Ring_complete  (** handle side: store status/retval, flip to Completed *)
  | Ring_reap  (** client side: read one Completed slot and free it *)
  | Ring_stamp
      (** kernel: validate one slot's (module, func) pair and write the
          admission verdict into it during [sys_smod_call_batch] *)
  | Ring_spin
      (** one iteration of the adaptive spin before falling back to a
          blocking wait (both sides of the ring) *)
  | Poll_sweep
      (** kernel poller (SQPOLL mode): fixed overhead of one sweep over
          the registered rings — cursor reload, liveness snapshot.  Charged
          to the poller, never to a client, which is exactly why the
          zero-trap path is honest: the work moved, it did not vanish *)
  | Poll_slot_scan
      (** kernel poller: examining one submission-queue slot during a
          sweep (state load + sequence compare); stamping an admitted slot
          is still charged as {!Ring_stamp} on top *)
  | Poll_doorbell
      (** kernel body of [sys_smod_poll_doorbell]: re-arming a parked
          poller — clear the need-wakeup flag and wake the poller proc
          (the trap itself is charged as usual; this is the only trap the
          client pays while the poller naps) *)
  | Coord_epoch_check
      (** cluster (lib/cluster): one load-and-compare of the shard's
          cached cluster epoch against the coordinator's — the lazy-mode
          per-dispatch tax *)
  | Coord_ctrl_recv
      (** cluster: receiving and acknowledging one eager-broadcast
          control message on a shard — msgq round-trip plus the
          invalidation work it triggers *)
  | Coord_sync_fetch
      (** cluster: a stale shard fetching the coordinator's op log tail
          on its next dispatch (lazy mode) — one fetch amortises a whole
          storm of coalesced ops *)
  | Coord_apply_op
      (** cluster: applying one replicated control op (keystore rotation
          or policy update) to a shard's local kernel *)
  | Migrate_drain
      (** cluster: draining one session off its source shard during live
          migration — detach signalling and pool bookkeeping (the handle
          scrub itself is charged by the pooled path as usual) *)
  | Migrate_reattach
      (** cluster: re-admitting one migrated session on the destination
          shard over and above the normal pooled attach *)

val cycles : op -> float
(** Cycle charge for one occurrence of [op]. *)

val mhz : float
(** Simulated CPU clock: 599.0 (Figure 7). *)

val cycles_per_us : float
val us_of_cycles : float -> float
val describe : op -> string
(** Short human-readable label, used by traces. *)
