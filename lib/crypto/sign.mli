(** Simulated public-key signatures.

    The paper's protocol needs servers and proxies to sign responses and
    clients to verify a proxy signature over a server signature. No
    asymmetric-crypto library is available in this environment, so we
    substitute HMAC-SHA-256: [sign] MACs with the secret, and a public key
    carries the same prepared MAC key, so [verify] recomputes the tag from
    the key itself. There is no registry and no shared state: a keypair
    lives exactly as long as the principals that hold it, on any domain.
    Unforgeability inside the simulation comes from type abstraction:
    [public_key] and [secret_key] are abstract and only {!sign} accepts a
    [secret_key], so a principal holding only a public key cannot mint a
    signature that verifies (tags are 256-bit MACs), while any principal
    can verify. Public keys are compared and printed by their SHA-256
    fingerprint of the secret; use {!equal_public} and {!compare_public},
    never polymorphic equality. *)

type secret_key
type public_key

val equal_public : public_key -> public_key -> bool
val compare_public : public_key -> public_key -> int
val public_to_hex : public_key -> string
val pp_public : Format.formatter -> public_key -> unit

type signature

val signature_to_hex : signature -> string
val equal_signature : signature -> signature -> bool

val generate : Fortress_util.Prng.t -> secret_key * public_key
(** Draw a fresh keypair: four 64-bit PRNG draws of secret. *)

val public_of_secret : secret_key -> public_key

val sign : secret_key -> string -> signature
val verify : public_key -> msg:string -> signature -> bool
(** [verify pk ~msg s] holds iff [s] was produced by [sign sk msg] for the
    [sk] matching [pk]. *)

val forge : Fortress_util.Prng.t -> signature
(** A random 32-byte tag, for attack tests: verifies with negligible
    probability. *)
