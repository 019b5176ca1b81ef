open Fortress_crypto

(* ---- SHA-256 NIST vectors ---- *)

let test_sha256_empty () =
  Alcotest.(check string) "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "")

let test_sha256_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc")

let test_sha256_two_blocks () =
  Alcotest.(check string) "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  Alcotest.(check string) "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_streaming () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "ab";
  Sha256.feed ctx "c";
  Alcotest.(check string) "chunked equals one-shot" (Sha256.hex "abc")
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_streaming_across_blocks () =
  let msg = String.init 200 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.sub msg 0 63);
  Sha256.feed ctx (String.sub msg 63 2);
  Sha256.feed ctx (String.sub msg 65 135);
  Alcotest.(check string) "block-boundary chunking" (Sha256.hex msg)
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_finalize_once () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_sha256_length_55_56_57 () =
  (* padding boundary cases around 56 bytes *)
  List.iter
    (fun n ->
      let msg = String.make n 'x' in
      let ctx = Sha256.init () in
      Sha256.feed ctx msg;
      Alcotest.(check string)
        (Printf.sprintf "length %d" n)
        (Sha256.hex msg)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 55; 56; 57; 63; 64; 65 ]

(* ---- HMAC RFC 4231 vectors ---- *)

let test_hmac_rfc4231_case1 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There")

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "case 2 (Jefe)"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  Alcotest.(check string) "case 3 (0xaa/0xdd)"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key is hashed down *)
  Alcotest.(check string) "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "hello" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "valid tag" true (Hmac.verify_prepared (Hmac.prepare key) ~msg ~tag);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify_prepared (Hmac.prepare key) ~msg:"hellO" ~tag);
  Alcotest.(check bool) "wrong key" false (Hmac.verify_prepared (Hmac.prepare "Secret") ~msg ~tag);
  Alcotest.(check bool) "truncated tag" false
    (Hmac.verify_prepared (Hmac.prepare key) ~msg ~tag:(String.sub tag 0 16))

(* ---- prepared keys ---- *)

(* RFC 2104 written out from the one-shot digest: the oracle for the
   prepared-key midstates. *)
let textbook_hmac ~key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\x00' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

let prop_prepared_hmac_textbook =
  let open QCheck in
  let bytes_of_len len = Gen.(string_size ~gen:char (return len)) in
  let key_len = Gen.(oneof [ int_range 0 150; oneofl [ 0; 63; 64; 65; 128; 150 ] ]) in
  let msg_len =
    Gen.(oneof [ int_range 0 300; oneofl [ 0; 55; 56; 63; 64; 119; 120; 300 ] ])
  in
  let gen =
    Gen.(
      triple (key_len >>= bytes_of_len) (msg_len >>= bytes_of_len) (msg_len >>= bytes_of_len))
  in
  let print (k, m1, m2) =
    Printf.sprintf "key %d B, messages %d B and %d B" (String.length k) (String.length m1)
      (String.length m2)
  in
  Test.make ~name:"prepared hmac equals textbook" ~count:400 (make ~print gen)
    (fun (key, m1, m2) ->
      let prepared = Hmac.prepare key in
      (* two messages under one prepared key: using it must not move it *)
      Hmac.mac_prepared prepared m1 = textbook_hmac ~key m1
      && Hmac.mac_prepared prepared m2 = textbook_hmac ~key m2
      && Hmac.mac_prepared prepared m1 = textbook_hmac ~key m1
      && Hmac.verify_prepared prepared ~msg:m2 ~tag:(textbook_hmac ~key m2))

let test_sha256_copy_independent () =
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.make 70 'x');
  let twin = Sha256.copy ctx in
  Sha256.feed twin "tail";
  Alcotest.(check string) "copy continues the stream"
    (Sha256.hex (String.make 70 'x' ^ "tail"))
    (Sha256.to_hex (Sha256.finalize twin));
  Alcotest.(check string) "original untouched"
    (Sha256.hex (String.make 70 'x'))
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_allocation () =
  (* the compress loop allocates nothing, so a long input costs no more
     minor words than a one-block one *)
  let words s =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Sha256.digest s));
    Gc.minor_words () -. w0
  in
  let small = String.make 64 'a' and big = String.make 65536 'a' in
  ignore (words small);
  ignore (words big);
  let extra = words big -. words small in
  if extra >= 64.0 then
    Alcotest.failf "64 KiB digest allocates %.0f minor words more than 64 B" extra

let hex_reference raw =
  String.concat "" (List.init (String.length raw) (fun i -> Printf.sprintf "%02x" (Char.code raw.[i])))

let test_to_hex_all_bytes () =
  let raw = String.init 256 Char.chr in
  Alcotest.(check string) "every byte value" (hex_reference raw) (Sha256.to_hex raw);
  Alcotest.(check string) "empty" "" (Sha256.to_hex "")

(* ---- Sign ---- *)

let prng () = Fortress_util.Prng.create ~seed:2024

let test_sign_roundtrip () =
  let p = prng () in
  let sk, pk = Sign.generate p in
  let s = Sign.sign sk "attack at dawn" in
  Alcotest.(check bool) "verifies" true (Sign.verify pk ~msg:"attack at dawn" s);
  Alcotest.(check bool) "wrong msg rejected" false (Sign.verify pk ~msg:"attack at dusk" s)

let test_sign_cross_key_rejection () =
  let p = prng () in
  let sk1, _pk1 = Sign.generate p in
  let _sk2, pk2 = Sign.generate p in
  let s = Sign.sign sk1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Sign.verify pk2 ~msg:"msg" s)

let test_sign_forgery_rejected () =
  let p = prng () in
  let _sk, pk = Sign.generate p in
  for _ = 1 to 100 do
    let forged = Sign.forge p in
    Alcotest.(check bool) "forgery rejected" false (Sign.verify pk ~msg:"msg" forged)
  done

let test_sign_prepared_roundtrip () =
  let p = prng () in
  let sk1, pk1 = Sign.generate p in
  let sk2, pk2 = Sign.generate p in
  let msg = "reply 7 from server 0" in
  let s1 = Sign.sign sk1 msg in
  (* the prepared midstates survive use: same tag, verifies every time *)
  Alcotest.(check bool) "signing is repeatable" true
    (Sign.equal_signature s1 (Sign.sign sk1 msg));
  for _ = 1 to 3 do
    Alcotest.(check bool) "verifies" true (Sign.verify pk1 ~msg s1)
  done;
  Alcotest.(check bool) "wrong key's tag rejected" false
    (Sign.verify pk1 ~msg (Sign.sign sk2 msg));
  Alcotest.(check bool) "tag checked under the wrong key" false (Sign.verify pk2 ~msg s1);
  Alcotest.(check bool) "forged tag rejected" false (Sign.verify pk1 ~msg (Sign.forge p));
  Alcotest.(check bool) "still verifies after rejections" true (Sign.verify pk1 ~msg s1)

let test_sign_public_of_secret () =
  let p = prng () in
  let sk, pk = Sign.generate p in
  Alcotest.(check bool) "fingerprint matches" true
    (Sign.equal_public pk (Sign.public_of_secret sk))

let test_sign_distinct_keys () =
  let p = prng () in
  let _, pk1 = Sign.generate p in
  let _, pk2 = Sign.generate p in
  Alcotest.(check bool) "distinct" false (Sign.equal_public pk1 pk2)

(* Keys are plain values: nothing process-wide holds on to them, so a
   trial's keys are garbage once the trial drops them. A registry that
   kept each key would pin its two prepared SHA-256 contexts, about 200
   words a key, so 10,000 keys would leave some two million words alive;
   the bound allows 2 words a key. *)
let test_sign_keys_are_collectable () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let p = prng () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Sign.generate p))
  done;
  let grown = live () - before in
  if grown >= 20_000 then
    Alcotest.failf "10,000 dropped keypairs left %d live words behind" grown

(* A keypair carries everything verification needs, so a key made on one
   domain verifies on any other. *)
let test_sign_across_domains () =
  let pool = Fortress_par.Pool.create () in
  let msg = "reply 3 from proxy 1" in
  let made_on_main, main_pk = Sign.generate (prng ()) in
  let worker_key = ref None and worker_verdict = ref false in
  let main_tag = Sign.sign made_on_main msg in
  Fortress_par.Pool.run pool
    ~tasks:
      [|
        (fun () ->
          let sk, pk = Sign.generate (Fortress_util.Prng.create ~seed:7) in
          worker_key := Some (pk, Sign.sign sk msg);
          worker_verdict := Sign.verify main_pk ~msg main_tag);
      |]
    ~inline:ignore;
  Fortress_par.Pool.shutdown pool;
  Alcotest.(check bool) "main-domain key verifies on a worker" true !worker_verdict;
  match !worker_key with
  | None -> Alcotest.fail "worker task did not run"
  | Some (pk, tag) ->
      Alcotest.(check bool) "worker key verifies on the main domain" true
        (Sign.verify pk ~msg tag);
      Alcotest.(check bool) "and rejects another message" false
        (Sign.verify pk ~msg:"reply 4 from proxy 1" tag)

(* ---- Nonce ---- *)

let test_nonce_unique_within_source () =
  let p = prng () in
  let src = Nonce.source p in
  let ns = List.init 1000 (fun _ -> Nonce.fresh src) in
  let distinct = List.sort_uniq Nonce.compare ns in
  Alcotest.(check int) "all distinct" 1000 (List.length distinct)

let test_nonce_unique_across_sources () =
  let p = prng () in
  let s1 = Nonce.source p and s2 = Nonce.source p in
  let a = Nonce.fresh s1 and b = Nonce.fresh s2 in
  Alcotest.(check bool) "different streams" false (Nonce.equal a b)

let test_nonce_string_roundtrip () =
  let p = prng () in
  let src = Nonce.source p in
  let a = Nonce.fresh src and b = Nonce.fresh src in
  Alcotest.(check bool) "string ids differ" false (Nonce.to_string a = Nonce.to_string b)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"sha256 is 32 bytes" ~count:200 string (fun s ->
        String.length (Sha256.digest s) = 32);
    Test.make ~name:"sha256 deterministic" ~count:200 string (fun s ->
        Sha256.digest s = Sha256.digest s);
    Test.make ~name:"hmac verify accepts own tag" ~count:200 (pair string string)
      (fun (key, msg) -> Hmac.verify_prepared (Hmac.prepare key) ~msg ~tag:(Hmac.mac ~key msg));
    Test.make ~name:"hmac differs per key" ~count:200 (triple string string string)
      (fun (k1, k2, msg) ->
        (* RFC 2104 pads short keys with zero bytes, so keys differing only
           by trailing NULs are the same key; compare after normalization *)
        let normalize k =
          let k = if String.length k > 64 then Sha256.digest k else k in
          k ^ String.make (64 - String.length k) '\x00'
        in
        assume (normalize k1 <> normalize k2);
        (* collision would be a catastrophic HMAC break *)
        Hmac.mac ~key:k1 msg <> Hmac.mac ~key:k2 msg);
    prop_prepared_hmac_textbook;
  ]

let () =
  Alcotest.run "fortress_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty vector" `Quick test_sha256_empty;
          Alcotest.test_case "abc vector" `Quick test_sha256_abc;
          Alcotest.test_case "two-block vector" `Quick test_sha256_two_blocks;
          Alcotest.test_case "million a vector" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "streaming across blocks" `Quick test_sha256_streaming_across_blocks;
          Alcotest.test_case "finalize once" `Quick test_sha256_finalize_once;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_length_55_56_57;
          Alcotest.test_case "copy is independent" `Quick test_sha256_copy_independent;
          Alcotest.test_case "allocation flat in length" `Quick test_sha256_allocation;
          Alcotest.test_case "to_hex every byte" `Quick test_to_hex_all_bytes;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case 6 long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "sign",
        [
          Alcotest.test_case "sign/verify round-trip" `Quick test_sign_roundtrip;
          Alcotest.test_case "cross-key rejection" `Quick test_sign_cross_key_rejection;
          Alcotest.test_case "forgery rejected" `Quick test_sign_forgery_rejected;
          Alcotest.test_case "prepared-key round trip" `Quick test_sign_prepared_roundtrip;
          Alcotest.test_case "public_of_secret" `Quick test_sign_public_of_secret;
          Alcotest.test_case "distinct keys" `Quick test_sign_distinct_keys;
          Alcotest.test_case "dropped keys are collectable" `Quick test_sign_keys_are_collectable;
          Alcotest.test_case "keys verify across domains" `Quick test_sign_across_domains;
        ] );
      ( "nonce",
        [
          Alcotest.test_case "unique within source" `Quick test_nonce_unique_within_source;
          Alcotest.test_case "unique across sources" `Quick test_nonce_unique_across_sources;
          Alcotest.test_case "string ids" `Quick test_nonce_string_roundtrip;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
