type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = mix (bits64 t) }

(* SplitMix64 advances by a fixed gamma per draw, so the state feeding the
   n-th [split] is [state + n*gamma]: the n-th child stream is a pure
   function of (state, n). This is what makes parallel trial scheduling
   seed-stable — a worker derives trial n's generator directly from the
   trial index, never from how many splits other workers performed. *)
let split_nth t n =
  if n <= 0 then invalid_arg "Prng.split_nth: n must be positive";
  let s = Int64.add t.state (Int64.mul golden_gamma (Int64.of_int n)) in
  { state = mix (mix s) }

(* Draw uniformly from [0, bound) by rejection on the top multiple of
   [bound], avoiding modulo bias. *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
  let rec draw () =
    let v = Int64.shift_right_logical (bits64 t) 1 in
    if v >= limit then draw () else Int64.to_int (Int64.rem v bound64)
  in
  draw ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t ~bound:(hi - lo + 1)

let float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float_in_range t ~lo ~hi = lo +. ((hi -. lo) *. float t)
let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t < p

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. float t in
  -.log u /. rate

(* Inversion: floor (log u / log (1 - p)) with u in (0, 1]. [log1p] keeps
   the denominator exact for small p, where [log (1.0 -. p)] rounds 1 - p
   first; a quotient at or above [max_int] (p below ~1e-17) saturates
   rather than going through [int_of_float], whose result is unspecified
   out of range. *)
let geometric t ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Prng.geometric: p must be in (0, 1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float t in
    let g = Float.floor (log u /. Float.log1p (-.p)) in
    if g >= float_of_int max_int then max_int else int_of_float g

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t ~bound:(Array.length a))

(* Floyd's algorithm: O(k) expected draws, uniform over k-subsets. *)
let sample_without_replacement t ~k ~n =
  if k < 0 || n < 0 then invalid_arg "Prng.sample_without_replacement: negative argument";
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  for i = 0 to k - 1 do
    let j = n - k + i in
    let v = int t ~bound:(j + 1) in
    let pick = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen pick ();
    out.(i) <- pick
  done;
  out
