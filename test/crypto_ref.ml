(* Textbook reference implementations of AES and SHA-256, kept only for
   the differential tests in test_crypto.ml.  They follow FIPS-197 and
   FIPS 180-4 step by step (byte-array AES state with SubBytes,
   ShiftRows, MixColumns over Gf256.mul; Int32 SHA-256 words) and make
   no attempt to be fast.  The production code in lib/crypto must agree
   with them byte for byte. *)

module Gf256 = Smod_crypto.Gf256

module Aes = struct
  let rotl8 x k = ((x lsl k) lor (x lsr (8 - k))) land 0xff
  let affine x = x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63
  let sbox = Array.init 256 (fun i -> affine (Gf256.inv i))

  let inv_sbox =
    let t = Array.make 256 0 in
    Array.iteri (fun i v -> t.(v) <- i) sbox;
    t

  type key = { w : int array; nr : int }

  let sub_word w =
    (sbox.((w lsr 24) land 0xff) lsl 24)
    lor (sbox.((w lsr 16) land 0xff) lsl 16)
    lor (sbox.((w lsr 8) land 0xff) lsl 8)
    lor sbox.(w land 0xff)

  let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xFFFFFFFF

  let expand raw =
    let nk = String.length raw / 4 in
    let nr = nk + 6 in
    let nwords = 4 * (nr + 1) in
    let w = Array.make nwords 0 in
    for i = 0 to nk - 1 do
      w.(i) <-
        (Char.code raw.[4 * i] lsl 24)
        lor (Char.code raw.[(4 * i) + 1] lsl 16)
        lor (Char.code raw.[(4 * i) + 2] lsl 8)
        lor Char.code raw.[(4 * i) + 3]
    done;
    let rcon = ref 1 in
    for i = nk to nwords - 1 do
      let temp = w.(i - 1) in
      let temp =
        if i mod nk = 0 then begin
          let v = sub_word (rot_word temp) lxor (!rcon lsl 24) in
          rcon := Gf256.xtime !rcon;
          v
        end
        else if nk > 6 && i mod nk = 4 then sub_word temp
        else temp
      in
      w.(i) <- w.(i - nk) lxor temp
    done;
    { w; nr }

  (* state.(r + 4*c) = byte r of column c. *)
  let add_round_key state key round =
    for c = 0 to 3 do
      let w = key.w.((4 * round) + c) in
      for r = 0 to 3 do
        state.(r + (4 * c)) <- state.(r + (4 * c)) lxor ((w lsr (24 - (8 * r))) land 0xff)
      done
    done

  let sub_bytes table state = Array.iteri (fun i v -> state.(i) <- table.(v)) state

  let shift_rows ~dir state =
    let tmp = Array.copy state in
    for r = 1 to 3 do
      for c = 0 to 3 do
        state.(r + (4 * c)) <- tmp.(r + (4 * ((c + (dir * r) + 4) mod 4)))
      done
    done

  let mix_columns m state =
    for c = 0 to 3 do
      let col = Array.sub state (4 * c) 4 in
      for r = 0 to 3 do
        let v = ref 0 in
        for j = 0 to 3 do
          v := !v lxor Gf256.mul m.(r).(j) col.(j)
        done;
        state.(r + (4 * c)) <- !v
      done
    done

  let mix = [| [| 2; 3; 1; 1 |]; [| 1; 2; 3; 1 |]; [| 1; 1; 2; 3 |]; [| 3; 1; 1; 2 |] |]

  let inv_mix =
    [| [| 14; 11; 13; 9 |]; [| 9; 14; 11; 13 |]; [| 13; 9; 14; 11 |]; [| 11; 13; 9; 14 |] |]

  let load src off = Array.init 16 (fun i -> Char.code (Bytes.get src (off + i)))
  let store state dst off = Array.iteri (fun i v -> Bytes.set dst (off + i) (Char.chr v)) state

  let encrypt_block key src ~src_off dst ~dst_off =
    let state = load src src_off in
    add_round_key state key 0;
    for round = 1 to key.nr do
      sub_bytes sbox state;
      shift_rows ~dir:1 state;
      if round < key.nr then mix_columns mix state;
      add_round_key state key round
    done;
    store state dst dst_off

  let decrypt_block key src ~src_off dst ~dst_off =
    let state = load src src_off in
    add_round_key state key key.nr;
    for round = key.nr - 1 downto 0 do
      shift_rows ~dir:(-1) state;
      sub_bytes inv_sbox state;
      add_round_key state key round;
      if round > 0 then mix_columns inv_mix state
    done;
    store state dst dst_off

  let ctr_transform key ~nonce data =
    let out = Bytes.copy data in
    let counter = Bytes.copy nonce in
    let keystream = Bytes.create 16 in
    let rec bump i =
      if i >= 0 then begin
        let v = (Char.code (Bytes.get counter i) + 1) land 0xff in
        Bytes.set counter i (Char.chr v);
        if v = 0 then bump (i - 1)
      end
    in
    let off = ref 0 in
    while !off < Bytes.length data do
      encrypt_block key counter ~src_off:0 keystream ~dst_off:0;
      let chunk = min 16 (Bytes.length data - !off) in
      for i = 0 to chunk - 1 do
        let x = Char.code (Bytes.get out (!off + i)) lxor Char.code (Bytes.get keystream i) in
        Bytes.set out (!off + i) (Char.chr x)
      done;
      bump 15;
      off := !off + chunk
    done;
    out
end

module Sha256 = struct
  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
  let ( ^^ ) = Int32.logxor
  let ( &&& ) = Int32.logand
  let ( +% ) = Int32.add

  let k =
    [|
      0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
      0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
      0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
      0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
      0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
      0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
      0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
      0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
      0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
      0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
      0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
    |]

  let compress h block off =
    let w = Array.make 64 0l in
    for t = 0 to 15 do
      w.(t) <- Bytes.get_int32_be block (off + (4 * t))
    done;
    for t = 16 to 63 do
      let w15 = w.(t - 15) and w2 = w.(t - 2) in
      let s0 = rotr w15 7 ^^ rotr w15 18 ^^ Int32.shift_right_logical w15 3 in
      let s1 = rotr w2 17 ^^ rotr w2 19 ^^ Int32.shift_right_logical w2 10 in
      w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
    done;
    let v = Array.copy h in
    for t = 0 to 63 do
      let a = v.(0) and b = v.(1) and c = v.(2) and d = v.(3) in
      let e = v.(4) and f = v.(5) and g = v.(6) and hh = v.(7) in
      let s1 = rotr e 6 ^^ rotr e 11 ^^ rotr e 25 in
      let ch = (e &&& f) ^^ (Int32.lognot e &&& g) in
      let t1 = hh +% s1 +% ch +% k.(t) +% w.(t) in
      let s0 = rotr a 2 ^^ rotr a 13 ^^ rotr a 22 in
      let maj = (a &&& b) ^^ (a &&& c) ^^ (b &&& c) in
      Array.blit [| t1 +% s0 +% maj; a; b; c; d +% t1; e; f; g |] 0 v 0 8
    done;
    Array.iteri (fun i x -> h.(i) <- h.(i) +% x) v

  (* Pad the whole message up front (FIPS 180-4 §5.1.1), then compress. *)
  let digest data =
    let n = Bytes.length data in
    let padded_len = (n + 9 + 63) / 64 * 64 in
    let m = Bytes.make padded_len '\000' in
    Bytes.blit data 0 m 0 n;
    Bytes.set m n '\x80';
    Bytes.set_int64_be m (padded_len - 8) (Int64.mul (Int64.of_int n) 8L);
    let h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl; 0x9b05688cl;
        0x1f83d9abl; 0x5be0cd19l;
      |]
    in
    for i = 0 to (padded_len / 64) - 1 do
      compress h m (64 * i)
    done;
    let out = Bytes.create 32 in
    Array.iteri (fun i x -> Bytes.set_int32_be out (4 * i) x) h;
    out
end
