type t = { prefix : int64; counter : int }

let equal a b = Int64.equal a.prefix b.prefix && Int.equal a.counter b.counter

let compare a b =
  match Int64.compare a.prefix b.prefix with 0 -> Int.compare a.counter b.counter | c -> c

let to_string a = Printf.sprintf "%Lx-%d" a.prefix a.counter
let pp ppf a = Format.pp_print_string ppf (to_string a)

type source = { stream : int64; mutable next : int }

let source prng = { stream = Fortress_util.Prng.bits64 prng; next = 0 }

let fresh s =
  let n = { prefix = s.stream; counter = s.next } in
  s.next <- s.next + 1;
  n
