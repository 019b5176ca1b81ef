(** Probability utilities shared by the analytic models: hazard sequences,
    survival products and expected-lifetime summation.

    A {e hazard sequence} gives, for each unit time-step i (1-based), the
    probability h(i) that the system is compromised during step i given it
    survived steps 1..i-1. The expected lifetime in whole time-steps is
    EL = sum over k >= 1 of k * P(compromise in step k)
       = sum over k >= 1 of S(k-1) * h(k) * k,
    where S(k) = prod_{i<=k} (1 - h(i)) is the survival function. *)

val clamp01 : float -> float
(** Clamp to the closed unit interval. *)

val complement_product : float list -> float
(** [complement_product ps] is [1 - prod (1 - p)] over the list: the
    probability that at least one of independent events with probabilities
    [ps] occurs. Computed in log-space when possible for accuracy. *)

val at_least : k:int -> p:float -> n:int -> float
(** [at_least ~k ~p ~n] is P(Binomial(n, p) >= k). Raises
    [Invalid_argument] for [k < 0], [n < 0]. *)

val binomial_pmf : k:int -> p:float -> n:int -> float

val expected_lifetime : ?eps:float -> ?max_steps:int -> (int -> float) -> float
(** [expected_lifetime hazard] evaluates EL for the hazard sequence
    [hazard i] (i starting at 1). Summation stops when the remaining
    survival mass falls below [eps] (default 1e-12) or after [max_steps]
    (default 100_000_000) steps; in the latter case the partial sum plus a
    tail bound using the final hazard is returned. A hazard of 0 forever
    yields [infinity]. *)

val geometric_lifetime : float -> float
(** [geometric_lifetime p] is the closed-form EL = 1/p for a constant
    per-step hazard [p]; [infinity] when [p <= 0]. *)

val survival : (int -> float) -> upto:int -> float array
(** [survival hazard ~upto] is the survival function: element k is S(k),
    the probability of surviving the first k steps, for k = 0..[upto]. *)
