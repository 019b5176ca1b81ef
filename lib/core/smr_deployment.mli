(** The paper's S0 comparison system: a 1-tier, 4-replica SMR deployment
    whose clients interact with the replicas directly and vote over f + 1
    matching signed replies.

    Each replica carries its own randomized-executable instance with a
    {e distinct} key (diverse randomization is S0's whole defence), and the
    deployment implements the Roeder-Schneider obfuscation schedule:
    batches of at most [f] replicas leave the system per boundary, are
    re-randomized (or merely recovered), and rejoin via state transfer from
    the remaining majority — so the SMR service never stops. *)

type config = {
  n : int;
  f : int;
  service : Fortress_replication.Dsm.t;
  keyspace : Fortress_defense.Keyspace.t;
  smr : Fortress_replication.Smr.config;  (** [n], [f] overridden *)
  latency : Fortress_net.Latency.t;
  seed : int;
}

val default_config : config
(** n = 4, f = 1, kv service, chi = 2^16. *)

type t

val create : config -> t
val engine : t -> Fortress_sim.Engine.t

val network : t -> Fortress_replication.Smr.msg Fortress_net.Network.t
(** The deployment's network — exposed so the fault-injection layer can
    install link interceptors and partitions on the SMR stack too. *)

val replicas : t -> Fortress_replication.Smr.replica array
val instances : t -> Fortress_defense.Instance.t array
val addresses : t -> Fortress_net.Address.t array

val symptoms : t -> Symptom.t list
(** External symptom surface: every replica whose requests would time out
    right now (node down), in replica order. Pure read — no PRNG
    consumption, no events; empty at O(1) cost while the network is
    quiescent. Replaces the former [replica_unreachable] boolean method
    and is the {!Stack_intf.S} symptom surface. *)

type client

val new_client : t -> name:string -> client
val submit : client -> cmd:string -> on_response:(string -> unit) -> string
(** Send to all replicas; [on_response] fires on the first f+1 matching,
    validly signed replies. *)

val client_accepted : client -> int

(** {1 Obfuscation and recovery} *)

val rekey_batch : t -> int list -> unit
(** Re-randomize the given replicas (fresh distinct keys) and put them
    through recovery: stop, wipe, restart, state transfer. *)

val recover_batch : t -> int list -> unit
(** Same, but the keys are unchanged (proactive recovery). *)

val batches : t -> int list list
(** The ceil(n/f) batches of at most f replicas, covering every index. *)

type schedule
(** Handle on the batched obfuscation daemon, the SMR counterpart of
    {!Obfuscation.t}: fault plans wedge it via {!set_stalled}. *)

val attach_schedule : ?stagger:bool -> t -> mode:Obfuscation.mode -> period:float -> schedule
(** Run batched obfuscation/recovery. With [stagger] (the default, and what
    Roeder-Schneider deployment constraints force) the batches are spaced
    evenly inside each step so the SMR system always has a 2f+1 quorum of
    settled replicas; with [stagger:false] every batch fires back-to-back at
    the boundary, which aligns all replicas' exposure windows — measurably
    stronger against the simultaneity condition (see EXPERIMENTS.md V3) but
    only deployable when recovery is fast enough to overlap. *)

val set_stalled : schedule -> bool -> unit
(** Wedge (or unwedge) the daemon: while stalled each boundary elapses
    without rekey or recovery, emitting a ["stall_skip"] fault event —
    mirroring {!Obfuscation.set_stalled} on the FORTRESS stack. *)

val skipped_boundaries : schedule -> int

val schedule_period : schedule -> float
(** The current boundary spacing (mutable via {!set_schedule_period}). *)

val set_schedule_period : schedule -> float -> unit
(** Defender actuator, mirroring {!Obfuscation.set_period}: takes effect
    when the already-armed boundary fires (the next interval). Raises
    [Invalid_argument] on a non-positive period. *)

val force_boundary : schedule -> unit
(** Defender actuator: run one boundary's rekey/recovery batches
    immediately, even while the daemon is stalled — the controller's
    recovery-priority escape hatch. Does not disturb the periodic chain. *)

(** {1 Crash faults} *)

val crash_replica : t -> int -> unit
(** Crash replica [i] with amnesia: node down, volatile ordering state
    lost, any intrusion on it dies with the process. *)

val restart_replica : t -> int -> unit
(** Bring replica [i] back and rejoin via state transfer. *)

(** {1 Compromise bookkeeping} *)

val compromise : t -> int -> unit
val compromised : t -> int -> bool
val compromised_count : t -> int

val system_compromised : t -> bool
(** S0 fails as soon as more than [f] replicas are simultaneously
    compromised. *)
