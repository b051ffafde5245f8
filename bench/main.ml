(* Benchmark harness: regenerates every quantitative artifact of the paper.

   The experiment catalog lives in lib/bench_kit/experiments.ml; this file
   is only the CLI around it — section selection, the --jobs domain-parallel
   runner and JSON emission.  `smodctl bench status` lists the catalog.

   The output is SIMULATED microseconds from the calibrated cycle model
   (see lib/sim/cost_model.ml and DESIGN.md §2).  Host wall-clock is
   perfbench's job (perfbench/run.py), not this harness's.

   With --json PATH every experiment row (E1, E9..E25) plus a snapshot of
   the metric registry is also written as a versioned smod-bench JSON
   document — the artifact bin/benchdiff.exe gates CI on.  The document is
   identical for any --jobs value: each task runs in a private world with
   coordinate-derived seeds and a fresh metric registry, and snapshots
   merge in task order. *)

module Cost = Smod_sim.Cost_model
open Smod_bench_kit

let print_testbed () =
  print_endline "=== Simulated testbed (paper Figure 7) ===";
  Printf.printf "cpu: Pentium III class, %.0f MHz (%.0f cycles/us)\n" Cost.mhz
    Cost.cycles_per_us;
  Printf.printf "os:  simulated OpenBSD 3.6 kernel (SecModule syscalls 301-320)\n";
  Printf.printf "mem: 512 MB simulated, 4 KB pages\n\n"

let write_json path doc =
  let oc = open_out path in
  output_string oc (Bench_json.to_string doc);
  close_out oc;
  Printf.printf "wrote %s (%d experiments, %d metrics)\n" path
    (List.length doc.Bench_json.experiments)
    (List.length doc.Bench_json.metrics)

let print_section (s : Experiments.section) (o : Experiments.outcome) =
  if s.Experiments.s_id = "e1" then print_string o.Experiments.rendered
  else print_endline o.Experiments.rendered;
  print_newline ()

let main full only jobs json_path =
  let jobs =
    match jobs with Some j when j >= 1 -> j | Some _ | None -> Runner.default_jobs ()
  in
  let ids =
    match Experiments.resolve only with
    | Ok ids -> ids
    | Error msg ->
        prerr_endline msg;
        exit 2
  in
  print_testbed ();
  if (not full) && List.mem "e1" ids then
    print_endline
      "(per-call means are independent of trial length; use --full for the\n\
      \ paper's 1,000,000-call trials)\n";
  let runner = Runner.create ~jobs in
  let doc = Experiments.run_document ~on_section:print_section ~full ~runner ids in
  Option.iter (fun path -> write_json path doc) json_path

open Cmdliner

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Run the paper-exact call counts (slow).")

let only =
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"BENCH" ~doc:Experiments.only_doc)

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run benchmark tasks on $(docv) domains (default: the number of cores).  \
           Results are identical for any value; --jobs 1 restores fully sequential \
           execution.")

let json_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write every experiment row plus a metric-registry snapshot to $(docv) as a \
           versioned smod-bench JSON document (compare with benchdiff).")

let cmd =
  let doc = "Regenerate the paper's tables and figures on the simulated testbed" in
  Cmd.v (Cmd.info "smod-bench" ~doc) Term.(const main $ full $ only $ jobs $ json_path)

let () = exit (Cmd.eval cmd)
