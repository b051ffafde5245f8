(** SHA-256 (FIPS 180-4), implemented from scratch.

    Words are native ints masked to 32 bits, never boxed [Int32]s, and
    each context reuses one 64-word message schedule and pads in its own
    block buffer: hashing allocates only the context and the digest,
    whatever the input length.

    Used for credential fingerprints, module image integrity checks and as
    the compression function under {!Hmac}. *)

type ctx

val init : unit -> ctx
val update : ctx -> bytes -> unit
val update_string : ctx -> string -> unit
val finalize : ctx -> bytes
(** 32-byte digest.  The context must not be reused afterwards. *)

val digest : bytes -> bytes
val digest_string : string -> bytes
val hex_digest_string : string -> string
