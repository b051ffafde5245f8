(** Minimal JSON tree with a pretty-printing emitter and a strict parser.

    Written by hand so the bench harness's machine-readable artifacts
    (dated snapshots under [bench/baselines/], [BENCH_TRAJECTORY.json]) need no
    external dependency.  Integers and floats are distinct constructors so
    counter values round-trip exactly; float emission uses the shortest
    decimal form that parses back to the identical IEEE value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : ?minify:bool -> t -> string
(** Pretty-printed with two-space indentation unless [minify].
    Raises [Invalid_argument] on non-finite floats (JSON cannot express
    them). *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

(** {1 Accessors} — shallow helpers for decoding; all raise
    {!Parse_error} on shape mismatch unless returning an option. *)

val member : string -> t -> t option
val member_exn : string -> t -> t
val to_list : t -> t list
val get_string : t -> string
val get_int : t -> int

val get_float : t -> float
(** Accepts both [Float] and [Int]. *)

val get_bool : t -> bool
