(** Unique request identifiers for deduplication at the primary and at
    proxies. *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

type source

val source : Fortress_util.Prng.t -> source
(** A nonce source: a random stream prefix plus a counter, so two sources
    created from split PRNGs do not collide. *)

val fresh : source -> t
