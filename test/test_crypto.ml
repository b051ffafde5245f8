(* Tests for Smod_crypto: FIPS-197 / SP 800-38A / FIPS 180-4 / RFC 4231
   vectors, algebraic properties of the GF(2^8) field and the cipher
   modes, differentials against the textbook implementations in
   Crypto_ref, and the allocation bounds of the per-block paths. *)

module Gf = Smod_crypto.Gf256
module Aes = Smod_crypto.Aes
module Sha256 = Smod_crypto.Sha256
module Hmac = Smod_crypto.Hmac
module Hex = Smod_util.Hexdump
module Ref = Crypto_ref

let hex = Hex.of_hex
let to_hex = Hex.to_hex

(* ------------------------------ GF(2^8) ---------------------------- *)

let test_gf_xtime () =
  Alcotest.(check int) "xtime 0x57" 0xae (Gf.xtime 0x57);
  Alcotest.(check int) "xtime 0xae" 0x47 (Gf.xtime 0xae);
  Alcotest.(check int) "xtime 0x80 reduces" 0x1b (Gf.xtime 0x80)

let test_gf_mul_fips_example () =
  (* FIPS-197 section 4.2.1: {57} * {13} = {fe} *)
  Alcotest.(check int) "57*13" 0xfe (Gf.mul 0x57 0x13);
  Alcotest.(check int) "57*83" 0xc1 (Gf.mul 0x57 0x83)

let test_gf_identity () =
  for a = 0 to 255 do
    Alcotest.(check int) "a*1 = a" a (Gf.mul a 1)
  done

let test_gf_inverse () =
  for a = 1 to 255 do
    Alcotest.(check int) (Printf.sprintf "a * inv a = 1 (a=%d)" a) 1 (Gf.mul a (Gf.inv a))
  done;
  Alcotest.(check int) "inv 0 = 0 (AES convention)" 0 (Gf.inv 0)

let prop_gf_commutative =
  QCheck.Test.make ~name:"gf mul commutative" ~count:1000
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) -> Gf.mul a b = Gf.mul b a)

let prop_gf_associative =
  QCheck.Test.make ~name:"gf mul associative" ~count:1000
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) -> Gf.mul a (Gf.mul b c) = Gf.mul (Gf.mul a b) c)

let prop_gf_distributive =
  QCheck.Test.make ~name:"gf mul distributes over xor" ~count:1000
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) -> Gf.mul a (b lxor c) = Gf.mul a b lxor Gf.mul a c)

(* ------------------------------- AES ------------------------------- *)

let aes_vector ~key ~plain ~cipher =
  let k = Aes.expand (Bytes.to_string (hex key)) in
  let pt = hex plain in
  let out = Bytes.create 16 in
  Aes.encrypt_block k pt ~src_off:0 out ~dst_off:0;
  Alcotest.(check string) "encrypt" cipher (to_hex out);
  let back = Bytes.create 16 in
  Aes.decrypt_block k out ~src_off:0 back ~dst_off:0;
  Alcotest.(check string) "decrypt" plain (to_hex back)

let test_aes128_fips () =
  (* FIPS-197 Appendix C.1 *)
  aes_vector ~key:"000102030405060708090a0b0c0d0e0f"
    ~plain:"00112233445566778899aabbccddeeff" ~cipher:"69c4e0d86a7b0430d8cdb78070b4c55a"

let test_aes192_fips () =
  aes_vector ~key:"000102030405060708090a0b0c0d0e0f1011121314151617"
    ~plain:"00112233445566778899aabbccddeeff" ~cipher:"dda97ca4864cdfe06eaf70a0ec0d7191"

let test_aes256_fips () =
  aes_vector ~key:"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    ~plain:"00112233445566778899aabbccddeeff" ~cipher:"8ea2b7ca516745bfeafc49904b496089"

let test_aes128_appendix_b () =
  (* FIPS-197 Appendix B *)
  aes_vector ~key:"2b7e151628aed2a6abf7158809cf4f3c"
    ~plain:"3243f6a8885a308d313198a2e0370734" ~cipher:"3925841d02dc09fbdc118597196a0b32"

let test_aes_key_lengths () =
  Alcotest.(check int) "128" 128 (Aes.key_bits (Aes.expand (String.make 16 'k')));
  Alcotest.(check int) "192" 192 (Aes.key_bits (Aes.expand (String.make 24 'k')));
  Alcotest.(check int) "256" 256 (Aes.key_bits (Aes.expand (String.make 32 'k')));
  Alcotest.(check int) "10 rounds" 10 (Aes.rounds (Aes.expand (String.make 16 'k')));
  Alcotest.(check int) "14 rounds" 14 (Aes.rounds (Aes.expand (String.make 32 'k')))

let test_aes_bad_key () =
  Alcotest.check_raises "bad key length" (Aes.Bad_key_length 7) (fun () ->
      ignore (Aes.expand "short<<"))

let test_sbox_involution () =
  for i = 0 to 255 do
    Alcotest.(check int) "inv_sbox(sbox(x)) = x" i (Aes.inv_sbox (Aes.sbox i))
  done

let test_sbox_known () =
  (* FIPS-197 figure 7 spot checks *)
  Alcotest.(check int) "sbox 0x00" 0x63 (Aes.sbox 0x00);
  Alcotest.(check int) "sbox 0x53" 0xed (Aes.sbox 0x53);
  Alcotest.(check int) "sbox 0xff" 0x16 (Aes.sbox 0xff)

let key16 = Aes.expand "0123456789abcdef"
let iv16 = Bytes.of_string "fedcba9876543210"

let test_ecb_roundtrip () =
  let data =
    Bytes.of_string (String.concat "" (List.init 4 (fun i -> Printf.sprintf "block %06d data." i)))
  in
  let data = Bytes.sub data 0 64 in
  Alcotest.(check bytes) "roundtrip" data
    (Aes.Mode.ecb_decrypt key16 (Aes.Mode.ecb_encrypt key16 data))

let test_ecb_bad_length () =
  Alcotest.check_raises "not multiple of 16" (Aes.Mode.Bad_input_length 10) (fun () ->
      ignore (Aes.Mode.ecb_encrypt key16 (Bytes.create 10)))

let test_cbc_roundtrip () =
  let data = Bytes.init 80 (fun i -> Char.chr (i * 3 land 0xff)) in
  Alcotest.(check bytes) "roundtrip" data
    (Aes.Mode.cbc_decrypt key16 ~iv:iv16 (Aes.Mode.cbc_encrypt key16 ~iv:iv16 data))

let test_cbc_chains () =
  (* Identical plaintext blocks must yield distinct ciphertext blocks. *)
  let data = Bytes.make 32 'A' in
  let ct = Aes.Mode.cbc_encrypt key16 ~iv:iv16 data in
  Alcotest.(check bool) "blocks differ" false
    (Bytes.equal (Bytes.sub ct 0 16) (Bytes.sub ct 16 16))

let test_ecb_leaks_patterns () =
  (* The well-known ECB weakness — and why SecModule text uses CTR. *)
  let data = Bytes.make 32 'A' in
  let ct = Aes.Mode.ecb_encrypt key16 data in
  Alcotest.(check bytes) "identical blocks encrypt identically" (Bytes.sub ct 0 16)
    (Bytes.sub ct 16 16)

let test_ctr_roundtrip_odd_length () =
  let data = Bytes.of_string "seventeen bytes!!" in
  Alcotest.(check int) "odd length preserved" 17 (Bytes.length data);
  let ct = Aes.Mode.ctr_transform key16 ~nonce:iv16 data in
  Alcotest.(check bool) "changed" false (Bytes.equal ct data);
  Alcotest.(check bytes) "self-inverse" data (Aes.Mode.ctr_transform key16 ~nonce:iv16 ct)

let test_ctr_counter_increments () =
  (* Two identical blocks produce different keystream blocks. *)
  let data = Bytes.make 32 '\000' in
  let ks = Aes.Mode.ctr_transform key16 ~nonce:iv16 data in
  Alcotest.(check bool) "keystream blocks differ" false
    (Bytes.equal (Bytes.sub ks 0 16) (Bytes.sub ks 16 16))

let test_ctr_counter_carry () =
  (* A counter ending at 0xff must carry into the next byte. *)
  let nonce = Bytes.cat (Bytes.make 14 '\000') (Bytes.of_string "\x00\xff") in
  let data = Bytes.make 48 '\000' in
  let ks = Aes.Mode.ctr_transform key16 ~nonce data in
  let blocks = List.init 3 (fun i -> Bytes.sub ks (i * 16) 16) in
  let distinct = List.sort_uniq compare (List.map Bytes.to_string blocks) in
  Alcotest.(check int) "three distinct keystream blocks" 3 (List.length distinct)

let test_ctr_sp800_38a () =
  (* NIST SP 800-38A F.5.1, CTR-AES128.Encrypt. *)
  let key = Aes.expand (Bytes.to_string (hex "2b7e151628aed2a6abf7158809cf4f3c")) in
  let nonce = hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let plain =
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
     30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
  in
  let cipher =
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
     5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
  in
  let ctr data = to_hex (Aes.Mode.ctr_transform key ~nonce (hex data)) in
  Alcotest.(check string) "encrypt" cipher (ctr plain);
  Alcotest.(check string) "decrypt" plain (ctr cipher)

let test_pkcs7_roundtrip () =
  List.iter
    (fun n ->
      let data = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
      let padded = Aes.Mode.pkcs7_pad data in
      Alcotest.(check int) "padded multiple of 16" 0 (Bytes.length padded mod 16);
      Alcotest.(check bool) "pad grows" true (Bytes.length padded > n);
      Alcotest.(check bytes) "roundtrip" data (Aes.Mode.pkcs7_unpad padded))
    [ 0; 1; 15; 16; 17; 31; 32; 100 ]

let test_pkcs7_bad () =
  Alcotest.check_raises "empty" Aes.Mode.Bad_padding (fun () ->
      ignore (Aes.Mode.pkcs7_unpad Bytes.empty));
  Alcotest.check_raises "bad trailer" Aes.Mode.Bad_padding (fun () ->
      ignore (Aes.Mode.pkcs7_unpad (Bytes.make 16 '\x00')));
  let tampered = Aes.Mode.pkcs7_pad (Bytes.make 5 'x') in
  Bytes.set tampered 10 '\x07';
  Alcotest.check_raises "inconsistent pad bytes" Aes.Mode.Bad_padding (fun () ->
      ignore (Aes.Mode.pkcs7_unpad tampered))

let prop_ctr_self_inverse =
  QCheck.Test.make ~name:"ctr self-inverse" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let data = Bytes.of_string s in
      Bytes.equal data
        (Aes.Mode.ctr_transform key16 ~nonce:iv16 (Aes.Mode.ctr_transform key16 ~nonce:iv16 data)))

let prop_cbc_roundtrip =
  QCheck.Test.make ~name:"cbc roundtrip (padded)" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let data = Aes.Mode.pkcs7_pad (Bytes.of_string s) in
      Bytes.equal data
        (Aes.Mode.cbc_decrypt key16 ~iv:iv16 (Aes.Mode.cbc_encrypt key16 ~iv:iv16 data)))

(* ------------------ differentials against Crypto_ref ---------------- *)

let gen_bytes n = QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (return n)))

let gen_key =
  QCheck.Gen.(oneofl [ 16; 24; 32 ] >>= fun n -> map Bytes.to_string (gen_bytes n))

let prop_block_matches_ref =
  QCheck.Test.make ~name:"encrypt/decrypt_block = reference (128/192/256)" ~count:300
    QCheck.(
      make
        ~print:(fun (k, b) ->
          Printf.sprintf "key %s block %s" (to_hex (Bytes.of_string k)) (to_hex b))
        Gen.(pair gen_key (gen_bytes 16)))
    (fun (raw, block) ->
      let k = Aes.expand raw and rk = Ref.Aes.expand raw in
      let run f g =
        let a = Bytes.create 16 and b = Bytes.create 16 in
        f block ~src_off:0 a ~dst_off:0;
        g block ~src_off:0 b ~dst_off:0;
        Bytes.equal a b
      in
      run (Aes.encrypt_block k) (Ref.Aes.encrypt_block rk)
      && run (Aes.decrypt_block k) (Ref.Aes.decrypt_block rk))

(* Nonces end in a run of 0xff bytes so the counter carries across bytes
   within the first few blocks. *)
let gen_nonce =
  QCheck.Gen.(
    int_range 0 4 >>= fun ones ->
    map (fun prefix -> Bytes.cat prefix (Bytes.make ones '\xff')) (gen_bytes (16 - ones)))

let prop_ctr_matches_ref =
  QCheck.Test.make ~name:"ctr_transform = reference (len 0..300, carrying nonces)" ~count:300
    QCheck.(
      make
        ~print:(fun (_, nonce, data) ->
          Printf.sprintf "nonce %s len %d" (to_hex nonce) (Bytes.length data))
        Gen.(triple gen_key gen_nonce (int_range 0 300 >>= gen_bytes)))
    (fun (raw, nonce, data) ->
      Bytes.equal
        (Aes.Mode.ctr_transform (Aes.expand raw) ~nonce data)
        (Ref.Aes.ctr_transform (Ref.Aes.expand raw) ~nonce data))

let prop_cbc_matches_ref =
  QCheck.Test.make ~name:"cbc_encrypt = reference block chaining" ~count:200
    QCheck.(make Gen.(pair gen_key (int_range 0 12 >>= fun n -> gen_bytes (16 * n))))
    (fun (raw, data) ->
      let rk = Ref.Aes.expand raw in
      let expected = Bytes.copy data in
      for i = 0 to (Bytes.length data / 16) - 1 do
        let off = 16 * i in
        let prev = if i = 0 then iv16 else Bytes.sub expected (off - 16) 16 in
        for j = 0 to 15 do
          let x = Char.code (Bytes.get expected (off + j)) lxor Char.code (Bytes.get prev j) in
          Bytes.set expected (off + j) (Char.chr x)
        done;
        Ref.Aes.encrypt_block rk expected ~src_off:off expected ~dst_off:off
      done;
      Bytes.equal expected (Aes.Mode.cbc_encrypt (Aes.expand raw) ~iv:iv16 data))

let prop_sha256_matches_ref =
  QCheck.Test.make ~name:"Sha256.digest = reference (len 0..300)" ~count:400
    QCheck.(
      make
        ~print:(fun b -> Printf.sprintf "len %d" (Bytes.length b))
        Gen.(int_range 0 300 >>= gen_bytes))
    (fun data -> Bytes.equal (Sha256.digest data) (Ref.Sha256.digest data))

let test_sha256_ref_boundaries () =
  (* The padding edges, every one of them rather than by chance. *)
  List.iter
    (fun n ->
      let data = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (to_hex (Ref.Sha256.digest data))
        (to_hex (Sha256.digest data)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 128; 300 ]

(* ----------------------------- allocation --------------------------- *)

(* Minor-heap words allocated by [f ()], plus the few words that box the
   measurement itself.  Objects over 256 words go straight to the major
   heap and are not counted, so every buffer measured here stays small. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_encrypt_block_allocation () =
  let block = Bytes.make 16 'p' and out = Bytes.create 16 in
  Aes.encrypt_block key16 block ~src_off:0 out ~dst_off:0;
  let n = 1000 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to n do
          Aes.encrypt_block key16 block ~src_off:0 out ~dst_off:0
        done)
  in
  let per_block = words /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words per block = 0" per_block)
    true (per_block < 0.01)

let test_sha256_allocation () =
  let data = Bytes.make 4096 's' in
  ignore (Sha256.digest data);
  let words = minor_words_of (fun () -> ignore (Sha256.digest data)) in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for a 4 KiB digest <= 256" words) true
    (words <= 256.0)

let test_ctr_allocation () =
  let n = 1024 in
  let data = Bytes.make n 'c' in
  ignore (Aes.Mode.ctr_transform key16 ~nonce:iv16 data);
  let words =
    minor_words_of (fun () -> ignore (Aes.Mode.ctr_transform key16 ~nonce:iv16 data))
  in
  (* The output buffer: header plus n bytes of payload in 8-byte words. *)
  let output_words = float_of_int (1 + (n / 8) + 1) in
  let per_block = (words -. output_words) /. float_of_int (n / 16) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words per block beyond the output <= 8" per_block)
    true (per_block <= 8.0)

(* ------------------------------ SHA-256 ---------------------------- *)

let sha_hex s = Sha256.hex_digest_string s

let test_sha256_empty () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (sha_hex "")

let test_sha256_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (sha_hex "abc")

let test_sha256_448bits () =
  Alcotest.(check string) "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  Alcotest.(check string) "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (sha_hex (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  let whole = sha_hex "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.update_string ctx "the quick brown fox ";
  Sha256.update_string ctx "jumps over ";
  Sha256.update_string ctx "the lazy dog";
  Alcotest.(check string) "incremental = one-shot" whole (to_hex (Sha256.finalize ctx))

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding boundaries, fed one
     byte at a time. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update_string ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d byte-at-a-time" n)
        (sha_hex s)
        (to_hex (Sha256.finalize ctx)))
    [ 54; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

(* ------------------------------- HMAC ------------------------------ *)

let test_hmac_rfc4231_case1 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There")

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_rfc4231_case6_long_key () =
  Alcotest.(check string) "case 6 (key > block size)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"secret" "message" in
  Alcotest.(check bool) "valid" true (Hmac.verify ~key:"secret" ~tag "message");
  Alcotest.(check bool) "wrong message" false (Hmac.verify ~key:"secret" ~tag "messagf");
  Alcotest.(check bool) "wrong key" false (Hmac.verify ~key:"Secret" ~tag "message");
  Alcotest.(check bool) "truncated tag" false
    (Hmac.verify ~key:"secret" ~tag:(Bytes.sub tag 0 16) "message")

let prop_hmac_distinct_keys =
  QCheck.Test.make ~name:"distinct keys give distinct tags" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 40)) (string_of_size Gen.(1 -- 40)))
    (fun (k1, k2) ->
      QCheck.assume (k1 <> k2);
      Hmac.mac_hex ~key:k1 "fixed message" <> Hmac.mac_hex ~key:k2 "fixed message")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "crypto"
    [
      ( "gf256",
        [
          tc "xtime" test_gf_xtime;
          tc "FIPS mul examples" test_gf_mul_fips_example;
          tc "multiplicative identity" test_gf_identity;
          tc "inverses" test_gf_inverse;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_gf_commutative; prop_gf_associative; prop_gf_distributive ] );
      ( "aes",
        [
          tc "FIPS-197 C.1 (128)" test_aes128_fips;
          tc "FIPS-197 C.2 (192)" test_aes192_fips;
          tc "FIPS-197 C.3 (256)" test_aes256_fips;
          tc "FIPS-197 B" test_aes128_appendix_b;
          tc "key lengths/rounds" test_aes_key_lengths;
          tc "bad key length" test_aes_bad_key;
          tc "sbox involution" test_sbox_involution;
          tc "sbox known values" test_sbox_known;
        ] );
      ( "modes",
        [
          tc "ecb roundtrip" test_ecb_roundtrip;
          tc "ecb bad length" test_ecb_bad_length;
          tc "ecb leaks patterns" test_ecb_leaks_patterns;
          tc "cbc roundtrip" test_cbc_roundtrip;
          tc "cbc chains" test_cbc_chains;
          tc "ctr roundtrip odd len" test_ctr_roundtrip_odd_length;
          tc "ctr keystream advances" test_ctr_counter_increments;
          tc "ctr counter carry" test_ctr_counter_carry;
          tc "ctr SP 800-38A F.5.1" test_ctr_sp800_38a;
          tc "pkcs7 roundtrip" test_pkcs7_roundtrip;
          tc "pkcs7 malformed" test_pkcs7_bad;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_ctr_self_inverse; prop_cbc_roundtrip ] );
      ( "reference",
        [ tc "sha256 padding edges" test_sha256_ref_boundaries ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_block_matches_ref;
              prop_ctr_matches_ref;
              prop_cbc_matches_ref;
              prop_sha256_matches_ref;
            ] );
      ( "allocation",
        [
          tc "encrypt_block" test_encrypt_block_allocation;
          tc "sha256 4 KiB" test_sha256_allocation;
          tc "ctr_transform" test_ctr_allocation;
        ] );
      ( "sha256",
        [
          tc "empty" test_sha256_empty;
          tc "abc" test_sha256_abc;
          tc "two-block" test_sha256_448bits;
          tc "million a" test_sha256_million_a;
          tc "incremental" test_sha256_incremental;
          tc "padding boundaries" test_sha256_block_boundaries;
        ] );
      ( "hmac",
        [
          tc "rfc4231 case 1" test_hmac_rfc4231_case1;
          tc "rfc4231 case 2" test_hmac_rfc4231_case2;
          tc "rfc4231 case 3" test_hmac_rfc4231_case3;
          tc "rfc4231 case 6" test_hmac_rfc4231_case6_long_key;
          tc "verify" test_hmac_verify;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_hmac_distinct_keys ] );
    ]
