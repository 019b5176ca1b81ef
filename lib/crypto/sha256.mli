(** Pure-OCaml SHA-256 (FIPS 180-4).

    Used for message digests inside the simulated signature scheme. The
    implementation is validated in the test suite against the NIST vectors
    for "", "abc", and the 448-bit two-block message. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val copy : ctx -> ctx
(** An independent context in the same state: feeding or finalizing one
    leaves the other untouched. HMAC keeps its padded-key midstates this
    way. *)

val finalize : ctx -> string
(** Return the 32-byte raw digest and invalidate the context (further
    [feed]/[finalize] raises [Invalid_argument]). *)

val digest : string -> string
(** One-shot raw 32-byte digest. *)

val hex : string -> string
(** One-shot lowercase hex digest (64 characters). *)

val to_hex : string -> string
(** Hex-encode arbitrary bytes. *)
