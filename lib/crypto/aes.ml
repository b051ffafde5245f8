exception Bad_key_length of int

(* ------------------------------------------------------------------ *)
(* S-box construction: byte -> affine(inverse(byte)).                  *)
(* ------------------------------------------------------------------ *)

let rotl8 x k = ((x lsl k) lor (x lsr (8 - k))) land 0xff

let affine x = x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63

let sbox_table =
  Array.init 256 (fun i -> affine (Gf256.inv i))

let inv_sbox_table =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox_table;
  t

let sbox i = sbox_table.(i land 0xff)
let inv_sbox i = inv_sbox_table.(i land 0xff)

(* ------------------------------------------------------------------ *)
(* Round tables.  Words are big-endian within a column, as in FIPS-197 *)
(* (byte r of a column sits at bits 31-8r..24-8r).  te0.(x) is the     *)
(* column MixColumns makes of (S(x), 0, 0, 0); te1..te3 are te0 with   *)
(* the column rotated one, two and three bytes, so one round of        *)
(* SubBytes + ShiftRows + MixColumns is four lookups per output word.  *)
(* td0..td3 do the same for the inverse S-box and InvMixColumns.       *)
(* ------------------------------------------------------------------ *)

let mask32 = 0xFFFFFFFF
let ror8 w = ((w lsr 8) lor (w lsl 24)) land mask32

let rotations t0 =
  let t1 = Array.map ror8 t0 in
  let t2 = Array.map ror8 t1 in
  let t3 = Array.map ror8 t2 in
  (t0, t1, t2, t3)

let column b0 b1 b2 b3 = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3

let te0, te1, te2, te3 =
  rotations
    (Array.init 256 (fun x ->
         let s = sbox_table.(x) in
         let s2 = Gf256.xtime s in
         column s2 s s (s2 lxor s)))

let td0, td1, td2, td3 =
  rotations
    (Array.init 256 (fun x ->
         let s = inv_sbox_table.(x) in
         let s2 = Gf256.xtime s in
         let s4 = Gf256.xtime s2 in
         let s8 = Gf256.xtime s4 in
         let s9 = s8 lxor s and s11 = s8 lxor s2 lxor s and s13 = s8 lxor s4 lxor s in
         column (s8 lxor s4 lxor s2) s9 s13 s11))

(* ------------------------------------------------------------------ *)
(* Key schedule.  Round keys are stored as a flat array of 32-bit      *)
(* words.  [dw] is the decryption schedule of the equivalent inverse   *)
(* cipher (FIPS-197 §5.3.5): round keys in reverse order, with         *)
(* InvMixColumns applied to all but the first and last.                *)
(* ------------------------------------------------------------------ *)

type key = { w : int array; dw : int array; nr : int; bits : int }

let sub_word w =
  column
    (sbox ((w lsr 24) land 0xff))
    (sbox ((w lsr 16) land 0xff))
    (sbox ((w lsr 8) land 0xff))
    (sbox (w land 0xff))

let rot_word w = ((w lsl 8) lor (w lsr 24)) land mask32

let rcon =
  let t = Array.make 15 0 in
  let v = ref 1 in
  for i = 1 to 14 do
    t.(i) <- !v lsl 24;
    v := Gf256.xtime !v
  done;
  t

(* td* look up inv_sbox first, so feeding them S(b) leaves InvMixColumns. *)
let inv_mix_word w =
  td0.(sbox_table.(w lsr 24))
  lxor td1.(sbox_table.((w lsr 16) land 0xff))
  lxor td2.(sbox_table.((w lsr 8) land 0xff))
  lxor td3.(sbox_table.(w land 0xff))

let expand raw =
  let nk =
    match String.length raw with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | n -> raise (Bad_key_length n)
  in
  let nr = nk + 6 in
  let nwords = 4 * (nr + 1) in
  let w = Array.make nwords 0 in
  for i = 0 to nk - 1 do
    w.(i) <- Int32.to_int (String.get_int32_be raw (4 * i)) land mask32
  done;
  for i = nk to nwords - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then sub_word (rot_word temp) lxor rcon.(i / nk)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- w.(i - nk) lxor temp
  done;
  let dw =
    Array.init nwords (fun i ->
        let round = nr - (i / 4) in
        let v = w.((4 * round) + (i mod 4)) in
        if round = 0 || round = nr then v else inv_mix_word v)
  in
  { w; dw; nr; bits = nk * 32 }

let key_bits k = k.bits
let rounds k = k.nr

(* ------------------------------------------------------------------ *)
(* Block transforms.  The state is four column words held in locals;   *)
(* a block costs table lookups and no allocation.                      *)
(* ------------------------------------------------------------------ *)

let get_word b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let set_word b off v =
  Bytes.set b off (Char.unsafe_chr (v lsr 24));
  Bytes.set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.unsafe_chr (v land 0xff))

let byte3 v = v lsr 24
let byte2 v = (v lsr 16) land 0xff
let byte1 v = (v lsr 8) land 0xff
let byte0 v = v land 0xff

(* One output column of a full round, given the four input columns its
   rows are drawn from. *)
let[@inline] te a b c d = te0.(byte3 a) lxor te1.(byte2 b) lxor te2.(byte1 c) lxor te3.(byte0 d)
let[@inline] td a b c d = td0.(byte3 a) lxor td1.(byte2 b) lxor td2.(byte1 c) lxor td3.(byte0 d)

(* The last round has no MixColumns: S-box bytes placed by ShiftRows. *)
let final_word s a b c d = column s.(byte3 a) s.(byte2 b) s.(byte1 c) s.(byte0 d)

let encrypt_block key src ~src_off dst ~dst_off =
  let rk = key.w in
  let s0 = ref (get_word src src_off lxor rk.(0)) in
  let s1 = ref (get_word src (src_off + 4) lxor rk.(1)) in
  let s2 = ref (get_word src (src_off + 8) lxor rk.(2)) in
  let s3 = ref (get_word src (src_off + 12) lxor rk.(3)) in
  for round = 1 to key.nr - 1 do
    let k = 4 * round in
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := te a b c d lxor rk.(k);
    s1 := te b c d a lxor rk.(k + 1);
    s2 := te c d a b lxor rk.(k + 2);
    s3 := te d a b c lxor rk.(k + 3)
  done;
  let k = 4 * key.nr in
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  let s = sbox_table in
  set_word dst dst_off (final_word s a b c d lxor rk.(k));
  set_word dst (dst_off + 4) (final_word s b c d a lxor rk.(k + 1));
  set_word dst (dst_off + 8) (final_word s c d a b lxor rk.(k + 2));
  set_word dst (dst_off + 12) (final_word s d a b c lxor rk.(k + 3))

(* InvShiftRows moves bytes right, so column c draws row r from column
   c - r where encryption draws from c + r. *)
let decrypt_block key src ~src_off dst ~dst_off =
  let rk = key.dw in
  let s0 = ref (get_word src src_off lxor rk.(0)) in
  let s1 = ref (get_word src (src_off + 4) lxor rk.(1)) in
  let s2 = ref (get_word src (src_off + 8) lxor rk.(2)) in
  let s3 = ref (get_word src (src_off + 12) lxor rk.(3)) in
  for round = 1 to key.nr - 1 do
    let k = 4 * round in
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := td a d c b lxor rk.(k);
    s1 := td b a d c lxor rk.(k + 1);
    s2 := td c b a d lxor rk.(k + 2);
    s3 := td d c b a lxor rk.(k + 3)
  done;
  let k = 4 * key.nr in
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  let s = inv_sbox_table in
  set_word dst dst_off (final_word s a d c b lxor rk.(k));
  set_word dst (dst_off + 4) (final_word s b a d c lxor rk.(k + 1));
  set_word dst (dst_off + 8) (final_word s c b a d lxor rk.(k + 2));
  set_word dst (dst_off + 12) (final_word s d c b a lxor rk.(k + 3))

module Mode = struct
  exception Bad_input_length of int
  exception Bad_padding

  let block = 16

  let check_blocked data =
    let n = Bytes.length data in
    if n mod block <> 0 then raise (Bad_input_length n)

  let check_iv iv = if Bytes.length iv <> block then raise (Bad_input_length (Bytes.length iv))

  let ecb_encrypt key data =
    check_blocked data;
    let out = Bytes.create (Bytes.length data) in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      encrypt_block key data ~src_off:(i * block) out ~dst_off:(i * block)
    done;
    out

  let ecb_decrypt key data =
    check_blocked data;
    let out = Bytes.create (Bytes.length data) in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      decrypt_block key data ~src_off:(i * block) out ~dst_off:(i * block)
    done;
    out

  let xor_into dst dst_off src src_off n =
    for i = 0 to n - 1 do
      Bytes.set dst (dst_off + i)
        (Char.unsafe_chr
           (Char.code (Bytes.get dst (dst_off + i))
           lxor Char.code (Bytes.get src (src_off + i))))
    done

  (* Each block is chained and encrypted in place in [out]; the previous
     ciphertext block is read back from [out] itself. *)
  let cbc_encrypt key ~iv data =
    check_blocked data;
    check_iv iv;
    let out = Bytes.copy data in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      let off = i * block in
      if i = 0 then xor_into out 0 iv 0 block else xor_into out off out (off - block) block;
      encrypt_block key out ~src_off:off out ~dst_off:off
    done;
    out

  let cbc_decrypt key ~iv data =
    check_blocked data;
    check_iv iv;
    let out = Bytes.create (Bytes.length data) in
    let nblocks = Bytes.length data / block in
    for i = 0 to nblocks - 1 do
      let off = i * block in
      decrypt_block key data ~src_off:off out ~dst_off:off;
      if i = 0 then xor_into out 0 iv 0 block else xor_into out off data (off - block) block
    done;
    out

  (* Big-endian increment over the whole 16-byte counter block. *)
  let incr_counter counter =
    let i = ref (block - 1) in
    let carry = ref true in
    while !carry && !i >= 0 do
      let v = (Char.code (Bytes.get counter !i) + 1) land 0xff in
      Bytes.set counter !i (Char.unsafe_chr v);
      carry := v = 0;
      decr i
    done

  let ctr_transform key ~nonce data =
    check_iv nonce;
    let n = Bytes.length data in
    let out = Bytes.copy data in
    let counter = Bytes.copy nonce in
    let keystream = Bytes.create block in
    let off = ref 0 in
    while !off < n do
      encrypt_block key counter ~src_off:0 keystream ~dst_off:0;
      let chunk = min block (n - !off) in
      xor_into out !off keystream 0 chunk;
      incr_counter counter;
      off := !off + chunk
    done;
    out

  let pkcs7_pad data =
    let n = Bytes.length data in
    let pad = block - (n mod block) in
    let out = Bytes.create (n + pad) in
    Bytes.blit data 0 out 0 n;
    Bytes.fill out n pad (Char.chr pad);
    out

  let pkcs7_unpad data =
    let n = Bytes.length data in
    if n = 0 || n mod block <> 0 then raise Bad_padding;
    let pad = Char.code (Bytes.get data (n - 1)) in
    if pad = 0 || pad > block then raise Bad_padding;
    for i = n - pad to n - 1 do
      if Char.code (Bytes.get data i) <> pad then raise Bad_padding
    done;
    Bytes.sub data 0 (n - pad)
end
