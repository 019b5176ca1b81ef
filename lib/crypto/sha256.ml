(* FIPS 180-4 SHA-256 over native ints masked to 32 bits. The message is
   buffered into 64-byte blocks; [finalize] applies the 0x80 / length
   padding. Every word lives in an unboxed int, so compressing a block
   allocates nothing. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;
  block : Bytes.t;
  mutable block_len : int;
  mutable total_len : int;
  mutable finished : bool;
  w : int array;
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
        0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
    finished = false;
    w = Array.make 64 0;
  }

let copy ctx =
  let block = Bytes.create 64 in
  Bytes.blit ctx.block 0 block 0 ctx.block_len;
  { ctx with h = Array.copy ctx.h; block; w = Array.make 64 0 }

let mask = 0xffff_ffff
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Compress the 64 bytes of [src] starting at [off]. *)
let compress ctx src off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be src (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
    let ch = (e' land !f) lxor (lnot e' land mask land !g) in
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed ctx s =
  if ctx.finished then invalid_arg "Sha256.feed: context already finalized";
  let len = String.length s in
  ctx.total_len <- ctx.total_len + len;
  let src = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  while !pos < len do
    if ctx.block_len = 0 && len - !pos >= 64 then begin
      (* whole block straight from the input, no staging copy *)
      compress ctx src !pos;
      pos := !pos + 64
    end
    else begin
      let take = min (64 - ctx.block_len) (len - !pos) in
      Bytes.blit src !pos ctx.block ctx.block_len take;
      ctx.block_len <- ctx.block_len + take;
      pos := !pos + take;
      if ctx.block_len = 64 then begin
        compress ctx ctx.block 0;
        ctx.block_len <- 0
      end
    end
  done

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let bit_len = Int64.mul (Int64.of_int ctx.total_len) 8L in
  Bytes.set ctx.block ctx.block_len '\x80';
  ctx.block_len <- ctx.block_len + 1;
  if ctx.block_len > 56 then begin
    Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
    compress ctx ctx.block 0;
    ctx.block_len <- 0
  end;
  Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
  Bytes.set_int64_be ctx.block 56 bit_len;
  compress ctx ctx.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_phase = Fortress_prof.Profiler.register "crypto.sha256"

let digest_unprofiled s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest s =
  if Fortress_prof.Profiler.is_enabled () then
    Fortress_prof.Profiler.record digest_phase (fun () -> digest_unprofiled s)
  else digest_unprofiled s

let hex_digits = "0123456789abcdef"

let to_hex raw =
  let n = String.length raw in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get raw i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string out

let hex s = to_hex (digest s)
