(* A public key is the whole key record: verification needs the HMAC
   midstates, and the abstract types in sign.mli keep [sign] away from any
   holder of a mere [public_key]. The raw secret is not kept. *)
type secret_key = { fingerprint : string; prepared : Hmac.key }
type public_key = secret_key
type signature = string

let equal_public a b = String.equal a.fingerprint b.fingerprint
let compare_public a b = String.compare a.fingerprint b.fingerprint
let public_to_hex pk = Sha256.to_hex pk.fingerprint
let pp_public ppf pk = Format.pp_print_string ppf (String.sub (public_to_hex pk) 0 12)

let signature_to_hex = Sha256.to_hex
let equal_signature = String.equal

let random_bytes prng =
  let buf = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_be buf (8 * i) (Fortress_util.Prng.bits64 prng)
  done;
  Bytes.to_string buf

let generate prng =
  let secret = random_bytes prng in
  let sk = { fingerprint = Sha256.digest secret; prepared = Hmac.prepare secret } in
  (sk, sk)

let public_of_secret sk = sk
let sign sk msg = Hmac.mac_prepared sk.prepared msg
let verify pk ~msg signature = Hmac.verify_prepared pk.prepared ~msg ~tag:signature
let forge = random_bytes
