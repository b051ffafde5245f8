(* benchdiff v2 — the CI perf-regression gate.

   Compares two smod-bench JSON documents (any pair of snapshots, by
   path) under per-metric gates: mean rows tighter than p99 rows, with
   thresholds from the checked-in bench/gates.json (--gates), overridable
   per run with flags.  Baseline rows absent from the current document
   are reported as "skip" and counted — never a silent pass.

   Also the trajectory viewer: --trajectory FILE reads a trajectory file
   (the checked-in BENCH_TRAJECTORY.json) and renders its headline-metric
   history table in the file's append order.

   Usage:
     dune exec bin/benchdiff.exe -- bench/baselines/<latest>.json out.json --gates bench/gates.json
     dune exec bin/benchdiff.exe -- --trajectory BENCH_TRAJECTORY.json

   Exit codes: 0 gate passed / trajectory rendered; 1 regression or
   nothing compared; 2 usage or parse error. *)

module Json = Smod_util.Json
module Bench_json = Smod_bench_kit.Bench_json
module Diff = Smod_bench_kit.Diff
module Trajectory = Smod_bench_kit.Trajectory

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_doc path =
  try Bench_json.of_string (read_file path)
  with
  | Json.Parse_error msg ->
      Printf.eprintf "benchdiff: %s: %s\n" path msg;
      exit 2
  | Sys_error msg ->
      Printf.eprintf "benchdiff: %s\n" msg;
      exit 2

(* "2%" or "0.02" both mean a 2% relative tolerance. *)
let parse_tolerance s =
  let fail () =
    Printf.eprintf "benchdiff: bad tolerance %S (want e.g. \"2%%\" or \"0.02\")\n" s;
    exit 2
  in
  let v =
    if String.length s > 0 && s.[String.length s - 1] = '%' then
      match float_of_string_opt (String.sub s 0 (String.length s - 1)) with
      | Some p -> p /. 100.0
      | None -> fail ()
    else match float_of_string_opt s with Some v -> v | None -> fail ()
  in
  if v < 0.0 || not (Float.is_finite v) then fail ();
  v

(* Threshold precedence: built-in defaults < --gates file < explicit
   flags, so CI pins bench/gates.json and a developer can still poke at
   one knob without editing it. *)
let resolve_gates gates_path mean_tol p99_tol abs_eps abs_eps_for =
  let g =
    match gates_path with
    | None -> Diff.default_gates
    | Some path -> (
        try Diff.gates_of_string (read_file path)
        with
        | Json.Parse_error msg ->
            Printf.eprintf "benchdiff: %s: %s\n" path msg;
            exit 2
        | Sys_error msg ->
            Printf.eprintf "benchdiff: %s\n" msg;
            exit 2)
  in
  let g =
    match mean_tol with
    | Some t -> { g with Diff.g_mean_rel = parse_tolerance t }
    | None -> g
  in
  let g =
    match p99_tol with Some t -> { g with Diff.g_p99_rel = parse_tolerance t } | None -> g
  in
  let g = match abs_eps with Some e -> { g with Diff.g_abs_eps = e } | None -> g in
  let g =
    match abs_eps_for with
    | [] -> g
    | overrides ->
        (* Flag overrides shadow same-id file entries. *)
        let keep =
          List.filter (fun (id, _) -> not (List.mem_assoc id overrides)) g.Diff.g_abs_eps_for
        in
        { g with Diff.g_abs_eps_for = keep @ overrides }
  in
  if g.Diff.g_mean_rel > g.Diff.g_p99_rel then begin
    Printf.eprintf
      "benchdiff: mean tolerance (%g) must not exceed p99 tolerance (%g) — means are gated \
       tighter\n"
      g.Diff.g_mean_rel g.Diff.g_p99_rel;
    exit 2
  end;
  g

let run_trajectory path =
  let entries =
    try Trajectory.load path with
    | Json.Parse_error msg ->
        Printf.eprintf "benchdiff: %s: %s\n" path msg;
        exit 2
    | Sys_error msg ->
        Printf.eprintf "benchdiff: %s\n" msg;
        exit 2
  in
  if entries = [] then begin
    Printf.eprintf "benchdiff: no entries in %s\n" path;
    exit 1
  end;
  Printf.printf "perf trajectory: %s (%d entries)\n\n%s" path (List.length entries)
    (Trajectory.render entries)

let run_compare baseline_path current_path gates =
  let baseline = read_doc baseline_path in
  let current = read_doc current_path in
  let r = Diff.compare_docs ~gates ~baseline ~current () in
  Printf.printf "benchdiff: %s vs %s (mean %.4g%%, p99 %.4g%%, abs epsilon %g)\n" baseline_path
    current_path
    (gates.Diff.g_mean_rel *. 100.0)
    (gates.Diff.g_p99_rel *. 100.0)
    gates.Diff.g_abs_eps;
  List.iter
    (fun (id, eps) -> Printf.printf "  (epsilon override: %s rows judged with %g)\n" id eps)
    gates.Diff.g_abs_eps_for;
  List.iter
    (fun (id, (m, p)) ->
      Printf.printf "  (tolerance override: %s rows judged at mean %.4g%%, p99 %.4g%%)\n" id
        (m *. 100.0) (p *. 100.0))
    gates.Diff.g_rel_for;
  print_string (Diff.render ~gates r);
  if r.Diff.compared = 0 then begin
    Printf.eprintf "benchdiff: no rows in common between the two documents\n";
    exit 1
  end;
  if r.Diff.failed > 0 then exit 1

let main trajectory baseline_path current_path gates_path mean_tol p99_tol abs_eps abs_eps_for
    =
  match (trajectory, baseline_path, current_path) with
  | Some path, None, None -> run_trajectory path
  | Some _, _, _ ->
      Printf.eprintf "benchdiff: --trajectory takes no BASELINE/CURRENT positionals\n";
      exit 2
  | None, Some b, Some c ->
      run_compare b c (resolve_gates gates_path mean_tol p99_tol abs_eps abs_eps_for)
  | None, _, _ ->
      Printf.eprintf
        "benchdiff: need BASELINE and CURRENT paths (or --trajectory FILE); see --help\n";
      exit 2

open Cmdliner

let baseline =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc:"Baseline bench JSON.")

let current =
  Arg.(value & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc:"Current bench JSON.")

let trajectory =
  Arg.(
    value
    & opt (some file) None
    & info [ "trajectory" ] ~docv:"FILE"
        ~doc:
          "Render the headline-metric history recorded in the trajectory file $(docv) \
           (the checked-in $(b,BENCH_TRAJECTORY.json)), in append order, instead of \
           comparing two documents.")

let gates =
  Arg.(
    value
    & opt (some file) None
    & info [ "gates" ] ~docv:"PATH"
        ~doc:
          "Per-metric thresholds from a smod-bench-gates JSON file (the checked-in \
           $(b,bench/gates.json)).  Explicit tolerance flags override its values.")

let mean_tolerance =
  Arg.(
    value
    & opt (some string) None
    & info [ "mean-tolerance"; "tolerance" ] ~docv:"TOL"
        ~doc:
          "Maximum relative drift of any mean row: \"2%\" or \"0.02\".  Defaults to the \
           gates file, else 2%.")

let p99_tolerance =
  Arg.(
    value
    & opt (some string) None
    & info [ "p99-tolerance" ] ~docv:"TOL"
        ~doc:
          "Looser maximum relative drift for p99 rows (labels containing \"p99\").  \
           Defaults to the gates file, else 5%.")

let abs_eps =
  Arg.(
    value
    & opt (some float) None
    & info [ "abs-epsilon" ] ~docv:"EPS"
        ~doc:"Additive slack so exact-zero baseline rows don't fail on any change.")

let abs_eps_for =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string float) []
    & info [ "abs-epsilon-for" ] ~docv:"EXP=EPS"
        ~doc:
          "Override the additive epsilon for one experiment id, e.g. \
           $(b,--abs-epsilon-for e18=0.05).  Repeatable; rows judged under an \
           override are flagged in the report.")

let cmd =
  let doc = "Compare smod-bench snapshots under per-metric gates, or render the trajectory" in
  Cmd.v (Cmd.info "benchdiff" ~doc)
    Term.(
      const main $ trajectory $ baseline $ current $ gates $ mean_tolerance $ p99_tolerance
      $ abs_eps $ abs_eps_for)

let () = exit (Cmd.eval cmd)
