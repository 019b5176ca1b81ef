(** The space of randomization keys.

    The efficacy of every randomization defence in the paper reduces to the
    number of possible keys chi (the entropy of the randomization). PaX ASLR
    on 32-bit hardware gives 16 bits; the paper's evaluation uses
    chi = 2^16. *)

type t

val of_entropy_bits : int -> t
(** [of_entropy_bits b] has [2^b] keys. Raises [Invalid_argument] unless
    [1 <= b <= 30]. *)

val of_size : int -> t
(** A key space with exactly [n >= 2] keys (not necessarily a power of
    two). *)

val size : t -> int
val entropy_bits : t -> float
(** log2 of the size. *)

val contains : t -> int -> bool
(** Keys are the integers [0, size). *)

val random_key : t -> Fortress_util.Prng.t -> int

val distinct_key : t -> Fortress_util.Prng.t -> avoid:int list -> int
(** A key not in [avoid], by rejection: draw with {!random_key}, redraw
    on a clash. So it consumes exactly the draws of that loop, and never
    returns if [avoid] covers the whole space. *)

val pax_aslr_32bit : t
(** The paper's default: 2^16 keys. *)

val pp : Format.formatter -> t -> unit
