(** The experiment catalog: every bench section (E1, E9..E20) as data,
    shared by the bench harness, [smodctl bench status] and the
    determinism tests.

    Each section decomposes into independent tasks executed over a
    {!Runner}; because every task derives its world seed and metric
    registry from its own coordinates and task snapshots merge in task
    order, [run_document] is bit-identical for any job count. *)

type outcome = {
  rows : Bench_json.row list;
  rendered : string;  (** the human-readable table the harness prints *)
}

type section = {
  s_id : string;  (** "e1", "e9" .. "e20" *)
  s_title : string;
  s_unit : string;
  s_tasks : full:bool -> int;
      (** independent tasks a {!Runner} can spread across domains *)
  s_dispatches : full:bool -> int;
      (** rough simulated dispatch count, for wall-clock estimates *)
  s_run : full:bool -> runner:Runner.t -> outcome;
}

val sections : section list
(** Catalog order = run order = the order sections appear in the JSON
    document. *)

val find : string -> section option

val ids : string list
(** The catalog's section ids, in catalog order. *)

val resolve : string option -> (string list, string) result
(** Resolve an [--only] value into section ids.  [None] selects the
    whole catalog; [Some list] takes comma-separated names, each a
    catalog id or an alias: [figure8] (= [e1]) or [ablations] (every id
    but [e1]).  The first unknown name is an [Error] message. *)

val only_doc : string
(** [--only] help text, listing the catalog's ids. *)

val estimate_seconds : full:bool -> section -> float
(** Rough sequential wall-clock from [s_dispatches] and a fixed
    calibration constant; divide by the job count for the parallel
    estimate.  Only for [smodctl bench status] display. *)

val run_document :
  ?on_section:(section -> outcome -> unit) ->
  ?meta:Bench_json.meta ->
  full:bool ->
  runner:Runner.t ->
  string list ->
  Bench_json.doc
(** Run the sections whose ids appear in the list (catalog order, unknown
    ids ignored — validate with {!find} first) and assemble the bench
    JSON document.  [on_section] fires after each section completes; the
    harness uses it to print [rendered].  [meta] stamps the capture
    header ([smodctl bench capture] passes date/commit/jobs).  The
    document's metric snapshot is taken from the calling domain's current
    registry — wrap the call in {!Smod_metrics.with_registry} to get an
    isolated snapshot. *)
