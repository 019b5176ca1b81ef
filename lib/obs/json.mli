(** Minimal JSON tree, emitter and parser.

    Kept dependency-free so the observability layer can serialize events
    without pulling a JSON package into the substrate libraries. The parser
    accepts standard JSON (objects, arrays, strings with escapes, numbers,
    booleans, null) and is used by the [obs] trace summarizer and the
    round-trip tests. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Integral [Num] values print without a
    decimal point so counters stay readable. *)

(** {2 Scalar formatters}

    The emitter's number and string formatters, exposed so renderers that
    write JSON straight into a buffer (the trace-line writer in {!Event})
    print every value exactly as {!to_string} does. *)

val add_string : Buffer.t -> string -> unit
(** A quoted string literal: quote, backslash, [\n], [\r] and [\t] get
    their short escapes, other bytes below 0x20 become [\u00XX], every
    other byte is copied as is. *)

val add_num : Buffer.t -> float -> unit
(** Integral values below 1e15 in magnitude print as integers ([-0.0] as
    [-0]), NaN and infinities as [null], everything else as C's
    ["%.12g"]. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf i] prints what [add_num buf (float_of_int i)] prints. *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing whitespace is allowed, trailing
    garbage is an error. The error string carries a character offset. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** [member key (Obj _)] is the value bound to [key], if any. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
val bool : t -> bool option
val list : t -> t list option
