(** Machine-readable bench artifacts.

    The harness ([bench/main.ml --json PATH]) serialises every experiment
    row it prints, plus a {!Smod_metrics.snapshot} of the default
    registry, into a versioned JSON document.  [bin/benchdiff.ml] reloads
    two such documents and applies {!compare_docs} — the regression gate
    CI runs against the latest dated snapshot under [bench/baselines/]
    (the one the last [BENCH_TRAJECTORY.json] entry names). *)

val schema_name : string

val schema_version : int
(** 2 since the dated-baseline work: the header may carry a [meta] block
    with capture date, commit, jobs and captured sections. *)

type row = { r_label : string; r_unit : string; r_mean : float; r_stdev : float }
type experiment = { e_id : string; e_title : string; e_rows : row list }

type meta = {
  mt_date : string;  (** capture date, "YYYY-MM-DD" (UTC) *)
  mt_commit : string;  (** git short sha at capture, or "nogit" *)
  mt_jobs : int;  (** runner domains the capture ran with *)
  mt_sections : string list;  (** experiment ids captured *)
}

type doc = {
  mode : string;  (** "quick" or "full" *)
  meta : meta option;  (** present on dated snapshots ([smodctl bench capture]) *)
  experiments : experiment list;
  metrics : Smod_metrics.snapshot;
}

val row : label:string -> ?unit_:string -> mean:float -> stdev:float -> unit -> row
val row_of_trial : ?unit_:string -> Trial.row -> row
val rows_of_entries : ?unit_:string -> Ablations.entry list -> row list
val experiment : id:string -> title:string -> row list -> experiment

val to_json : doc -> Smod_util.Json.t
val to_string : doc -> string
(** Pretty-printed, newline-terminated (the committed-baseline format). *)

val of_json : Smod_util.Json.t -> doc
val of_string : string -> doc
(** Raise {!Smod_util.Json.Parse_error} on malformed input, a wrong
    [schema] tag, or an unsupported [schema_version] — the version error
    carries a one-line regeneration hint, and is deliberately a hard
    error rather than a best-effort read (see {!Diff}). *)
