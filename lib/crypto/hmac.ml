let block_size = 64

(* The inner and outer hash contexts after absorbing [K xor ipad] and
   [K xor opad]: the first block of every tag under this key. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let pad_context key byte =
  let block = Bytes.make block_size byte in
  String.iteri
    (fun i c -> Bytes.set block i (Char.chr (Char.code c lxor Char.code byte)))
    key;
  let ctx = Sha256.init () in
  Sha256.feed ctx (Bytes.unsafe_to_string block);
  ctx

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  { inner = pad_context key '\x36'; outer = pad_context key '\x5c' }

let mac_phase = Fortress_prof.Profiler.register "crypto.hmac"

let mac_prepared_unprofiled key msg =
  let inner = Sha256.copy key.inner in
  Sha256.feed inner msg;
  let outer = Sha256.copy key.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac_prepared key msg =
  if Fortress_prof.Profiler.is_enabled () then
    Fortress_prof.Profiler.record mac_phase (fun () -> mac_prepared_unprofiled key msg)
  else mac_prepared_unprofiled key msg

let mac ~key msg = mac_prepared (prepare key) msg
let mac_hex ~key msg = Sha256.to_hex (mac ~key msg)

let verify_prepared key ~msg ~tag =
  let expected = mac_prepared key msg in
  String.length tag = String.length expected
  &&
  (* constant-time comparison *)
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code expected.[i])) tag;
  !diff = 0
