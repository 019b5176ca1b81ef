(** Analytic expected-lifetime models for the paper's five system classes.

    All models take the per-step, per-node direct-attack success
    probability alpha (Definition 4/6) as primitive; the paper sweeps
    alpha over [1e-5, 1e-2]. Lifetimes are in whole unit time-steps; a
    constant per-step compromise probability p yields EL = 1/p.

    {b PO} (proactive obfuscation) keeps alpha constant across steps —
    sampling with replacement. {b SO} (start-up-only randomization with
    proactive recovery) makes the hazard grow: with omega = alpha * chi
    probes per step eliminating fresh keys, the step-i hazard per attacked
    key is alpha_i = alpha / (1 - (i-1) alpha), the paper's
    sampling-without-replacement recursion (valid for chi >> omega; the
    hazard is clamped at 1 when the key space runs out).

    System classes (section 4): S0 is 4-replica SMR with distinct keys,
    compromised when 2 replicas fall in the same exposure window; S1 is
    3-replica primary-backup with one shared key, compromised when that key
    is found; S2 is FORTRESS (np proxies with distinct keys over
    identically randomized PB servers), compromised by an indirect server
    hit (kappa * alpha), by a launch-pad escalation from a captured proxy,
    or by losing all np proxies at once. *)

type launchpad =
  | Remaining  (** a proxy captured mid-step attacks the server with the
                   remaining fraction of that step's budget (default) *)
  | Full  (** the escalation gets a whole step's budget — an upper bound *)
  | Next_step  (** escalation waits for the next step; under PO the rekey
                   boundary has already evicted the intruder, so launch
                   pads contribute nothing *)

val so_hazard : alpha:float -> int -> float
(** [so_hazard ~alpha i] is alpha_i, clamped to [0, 1]. *)

(** {1 Per-step compromise probabilities (PO)} *)

val s0_po_step : alpha:float -> float
(** P(at least 2 of the 4 diversely keyed replicas fall in one step). *)

val s1_po_step : alpha:float -> float
(** The shared key falls: alpha. *)

val s2_po_step : ?launchpad:launchpad -> ?np:int -> alpha:float -> kappa:float -> unit -> float
(** Exact one-step law for FORTRESS under PO; [np] defaults to 3. See the
    implementation notes for the closed form. *)

(** {1 Expected lifetimes} *)

val s0_po : alpha:float -> float
val s1_po : alpha:float -> float
val s2_po : ?launchpad:launchpad -> ?np:int -> alpha:float -> kappa:float -> unit -> float

val s1_so : alpha:float -> float
(** Inhomogeneous hazard alpha_i on a single key. *)

val s0_so : alpha:float -> float
(** Two-state inhomogeneous absorbing chain: 0 or 1 of the four keys
    uncovered so far; absorption when the second key falls. *)

val s2_so : ?launchpad:launchpad -> ?np:int -> alpha:float -> kappa:float -> unit -> float
(** FORTRESS with start-up-only randomization (not evaluated in the paper;
    provided as an extension). State: number of proxy keys the attacker has
    permanently learned — under SO a recovered proxy keeps its key, so a
    learned proxy is a permanent launch pad. *)

(** {1 FORTRESS over an SMR tier (extension)}

    The paper's conclusion leaves "detailed comparison of FORTRESS with
    SMR that is firewalled" as future work. The natural composition — np
    proxies over an f-tolerant, diversely randomized n = 3f+1 SMR tier —
    is modelled here: the server tier falls only when more than [f]
    replicas are compromised in one exposure window, each via the
    attenuated indirect channel (kappa alpha) or a launch pad; losing all
    proxies still ends the system. *)

val s2_smr_po_step :
  ?launchpad:launchpad -> ?np:int -> ?n:int -> ?f:int -> alpha:float -> kappa:float -> unit -> float

val s2_smr_po :
  ?launchpad:launchpad -> ?np:int -> ?n:int -> ?f:int -> alpha:float -> kappa:float -> unit -> float
(** Defaults np = 3, n = 4, f = 1. For kappa < 1 this composition
    dominates bare S0PO by roughly 1/kappa^(f+1): fortifying the SMR
    system buys attenuation on every one of the f+1 intrusions the
    attacker must land. *)

(** {1 An optimizing attacker (extension)}

    The paper gives every attack channel its own omega (Definition 4). A
    strictly weaker attacker has one {e total} budget Omega per step and
    chooses how to split it: an equal share q = x Omega / np at each proxy
    (direct), and r = (1 - x) Omega at the server through the proxies
    (indirect, attenuated by kappa). Per-probe success is 1/chi; a proxy
    captured mid-stream turns its unexpended probes on the server. *)

val s2_po_budgeted_step :
  ?np:int -> total:float -> chi:float -> kappa:float -> direct_fraction:float -> unit -> float
(** One-step compromise probability for the split [direct_fraction] = x.
    Raises [Invalid_argument] unless [total > 0], [chi > 1] and
    [x] is in [0, 1]. *)

val s2_po_worst_case :
  ?np:int -> total:float -> chi:float -> kappa:float -> unit -> float * float
(** [(x*, el)]: the attacker's optimal split and the resulting (minimal)
    expected lifetime — the defender's worst case. Found by grid search
    plus golden-section refinement; the objective is smooth. *)

(** {1 Convenience} *)

type system = S0_SO | S1_SO | S0_PO | S1_PO | S2_PO | S2_SO

val all_systems : system list
val system_to_string : system -> string
val system_of_string : string -> system option

val expected_lifetime :
  ?launchpad:launchpad -> ?np:int -> system -> alpha:float -> kappa:float -> float
(** Dispatch on the system tag; [kappa] is ignored by the 1-tier systems. *)

(** {1 Survival laws} *)

val survival : system -> alpha:float -> kappa:float -> upto:int -> float array
(** [survival system ~alpha ~kappa ~upto] is the exact survival function
    of the lifetime T: element k is P(T > k), for k = 0..[upto]. These are
    the laws the step-level samplers draw from, so they serve as the
    oracle for distribution tests; summing them gives
    {!expected_lifetime}.
    - S0PO, S1PO, S2PO: (1 - h)^k with h the one-step law
      ({!s0_po_step}, {!s1_po_step}, and {!s2_po_step} at its default
      launch pad and [np]).
    - S1SO: the product of (1 - {!so_hazard}) over steps 1..k.
    - S0SO: the two-state (0 or 1 key found) inhomogeneous chain behind
      {!s0_so}.

    Raises [Invalid_argument] for S2SO: its server hazard depends on the
    eliminated mass, which depends on the path (how many proxies were
    captured when), and {!s2_so} tracks only its expectation, so no exact
    law is available. Also raises when [upto < 0]. *)
