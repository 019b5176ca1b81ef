(** What a de-randomization attacker knows about one target's key.

    Each failed probe eliminates one key from the chi possibilities —
    provided the target keeps its key (SO / proactive recovery). When the
    target is re-randomized (PO), accumulated eliminations become worthless
    and the attacker starts over; this is exactly the sampling
    with/without replacement distinction the paper's models rest on. The
    attacker detects re-randomization by the target's epoch.

    Cost: {!create}, {!on_target_rekeyed} and the accessors are O(1) and
    allocate nothing proportional to chi — campaigns and the probe-level
    Monte-Carlo build or void a knowledge record on every re-randomization.
    {!next_guess} and {!observe_crash} cost O(1) expected while at most
    chi/16 keys are eliminated; the first call past that point builds a
    per-key bitmap and a Fenwick tree in O(chi), after which each costs
    O(log chi). *)

type t

val create : Fortress_defense.Keyspace.t -> t
val keyspace : t -> Fortress_defense.Keyspace.t

val eliminated : t -> int
(** Keys ruled out so far in the current randomization epoch. *)

val remaining : t -> int

val known_key : t -> int option
(** [Some k] once the attacker has confirmed the key (a probe succeeded).
    Survives proactive recovery — the key did not change — but is discarded
    on re-randomization. *)

val next_guess : t -> Fortress_util.Prng.t -> int option
(** A uniformly random not-yet-eliminated key; the confirmed key when one
    is known. [None] when every key has been eliminated — the attacker is
    exhausted. Against an unfaulted live target this cannot happen (the
    last remaining key is the key), but under fault injection a target can
    change keys without the attacker noticing, so campaigns must treat
    exhaustion as a graceful outcome.

    The draws are those of a plain scan of the key space: while more than
    half the keys are untried, [Prng.int ~bound:chi] is drawn until it hits
    an untried key; otherwise a single [Prng.int ~bound:(remaining t)] draw
    [j] picks the [j]-th untried key in ascending order. The same generator
    state therefore yields the same guess and leaves the same state behind,
    whatever the internal representation. *)

val observe_crash : t -> guess:int -> unit
(** The probe [guess] crashed the child: that key is ruled out. Ruling out
    a key twice counts once. Raises [Invalid_argument] unless [guess] is in
    the key space [0, chi). *)

val observe_intrusion : t -> guess:int -> unit
(** The probe succeeded: the key is confirmed. Raises [Invalid_argument]
    unless [guess] is in the key space [0, chi). *)

val on_target_rekeyed : t -> unit
(** The target re-randomized: all eliminations and any confirmed key are
    void. *)

val on_target_recovered : t -> unit
(** Proactive recovery: the key is unchanged, knowledge survives. (A no-op,
    present so campaign code can treat both transitions uniformly.) *)
