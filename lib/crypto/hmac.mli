(** HMAC-SHA-256 (RFC 2104), validated against RFC 4231 test vectors. *)

type key
(** A prepared key: the SHA-256 midstates after the padded key's inner and
    outer blocks. Preparing once and signing many times saves two of the
    four compressions of a short-message tag. A prepared key is immutable
    and may be shared across domains. *)

val prepare : string -> key
(** Keys longer than the 64-byte block are hashed first, per the RFC. *)

val mac_prepared : key -> string -> string
(** [mac_prepared (prepare k) msg] is [mac ~key:k msg]. *)

val verify_prepared : key -> msg:string -> tag:string -> bool
(** Constant-time tag comparison against [mac_prepared]. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the raw 32-byte HMAC-SHA-256 tag. *)

val mac_hex : key:string -> string -> string
(** Hex-encoded tag. *)
