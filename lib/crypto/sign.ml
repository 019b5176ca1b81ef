type public_key = string (* SHA-256 fingerprint of the secret *)

(* The raw secret is not kept: signing and verifying only need the HMAC
   midstates prepared from it. *)
type secret_key = { public : public_key; prepared : Hmac.key }
type signature = string

(* The trapdoor registry is process-wide and deployments are built on
   whichever domain runs the trial, so lookups and registrations must be
   serialised: concurrent Hashtbl mutation is unsafe under OCaml 5. Key
   generation is rare and verification's critical section is one probe, so
   the uncontended mutex cost is noise on the signing path. The registry
   holds the whole key record, so verification reuses the signer's
   prepared HMAC midstates. *)
let registry : (public_key, secret_key) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let equal_public = String.equal
let compare_public = String.compare
let public_to_hex = Sha256.to_hex
let pp_public ppf pk = Format.pp_print_string ppf (String.sub (public_to_hex pk) 0 12)

let signature_to_hex = Sha256.to_hex
let equal_signature = String.equal

let generate prng =
  let buf = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_be buf (8 * i) (Fortress_util.Prng.bits64 prng)
  done;
  let secret = Bytes.to_string buf in
  let sk = { public = Sha256.digest secret; prepared = Hmac.prepare secret } in
  with_registry (fun () -> Hashtbl.replace registry sk.public sk);
  (sk, sk.public)

let public_of_secret sk = sk.public

let sign sk msg = Hmac.mac_prepared sk.prepared msg

let verify public ~msg signature =
  match with_registry (fun () -> Hashtbl.find_opt registry public) with
  | None -> false
  | Some sk -> Hmac.verify_prepared sk.prepared ~msg ~tag:signature

let forge prng =
  let buf = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_be buf (8 * i) (Fortress_util.Prng.bits64 prng)
  done;
  Bytes.to_string buf
