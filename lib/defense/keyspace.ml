type t = { size : int }

let of_entropy_bits b =
  if b < 1 || b > 30 then invalid_arg "Keyspace.of_entropy_bits: need 1 <= bits <= 30";
  { size = 1 lsl b }

let of_size n =
  if n < 2 then invalid_arg "Keyspace.of_size: need at least 2 keys";
  { size = n }

let size t = t.size
let entropy_bits t = log (float_of_int t.size) /. log 2.0
let contains t k = k >= 0 && k < t.size
let random_key t prng = Fortress_util.Prng.int prng ~bound:t.size

let rec distinct_key t prng ~avoid =
  let k = random_key t prng in
  if List.mem k avoid then distinct_key t prng ~avoid else k

let pax_aslr_32bit = of_entropy_bits 16
let pp ppf t = Format.fprintf ppf "chi=%d (%.1f bits)" t.size (entropy_bits t)
