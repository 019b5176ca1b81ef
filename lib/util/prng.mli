(** Deterministic, splittable pseudo-random number generator.

    The generator is a SplitMix64 stream. It is deliberately not
    cryptographic: it drives Monte-Carlo trials and simulated network jitter,
    where reproducibility from a seed matters and unpredictability does not.
    Splitting derives an independent stream, so concurrent simulation
    components can draw without perturbing each other's sequences. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy and the original then
    evolve independently. *)

val split : t -> t
(** [split t] advances [t] once and returns a generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val split_nth : t -> int -> t
(** [split_nth t n] is the generator the [n]-th successive call of
    {!split} on [t] would return ([n >= 1]), computed directly from [n]
    without advancing [t]. Because the child stream depends only on
    [t]'s current state and the index [n], any partitioning of indices
    across parallel workers derives bit-identical streams — the
    foundation of the [-j 1] / [-j N] determinism guarantee. Raises
    [Invalid_argument] when [n <= 0]. *)

val bits64 : t -> int64
(** [bits64 t] returns the next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. Uses rejection sampling, so the
    distribution is exactly uniform. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] draws uniformly from the inclusive range
    [lo, hi]. Raises [Invalid_argument] if [hi < lo]. *)

val float : t -> float
(** [float t] draws uniformly from [0, 1) with 53 bits of precision. *)

val float_in_range : t -> lo:float -> hi:float -> float
(** [float_in_range t ~lo ~hi] draws uniformly from [lo, hi). *)

val bool : t -> bool
(** [bool t] draws a fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] returns [true] with probability [p]. Values of [p]
    outside [0, 1] are clamped. *)

val exponential : t -> rate:float -> float
(** [exponential t ~rate] draws from Exp(rate). Raises [Invalid_argument]
    if [rate <= 0]. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] returns the number of Bernoulli(p) failures before the
    first success (support 0, 1, 2, ...), by inversion of one uniform
    draw. The inversion divides by [log1p (-p)], so small [p] loses no
    precision. A draw at or beyond [max_int] (possible only for p below
    about 1e-17) saturates to [max_int]. The uniform has 53 bits, so the
    tail is resolved only down to probability 2^-53: u = 1 (that
    probability) returns 0, and the largest finite draw is about
    37 / p. Raises [Invalid_argument] unless
    [0 < p <= 1]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place, uniformly (Fisher-Yates). *)

val choose : t -> 'a array -> 'a
(** [choose t a] returns a uniformly random element. Raises
    [Invalid_argument] on an empty array. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] returns [k] distinct integers drawn
    uniformly from [0, n). Raises [Invalid_argument] if [k > n] or either is
    negative. *)
