(* The repository benchmark: one workload, one seed, one run.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  The line before it
   carries the host fingerprint and the run's checks; the same record is
   written under .bench_out/.  See README.md for the workloads, the
   metric -> layer -> workload map and the two-clock rule. *)

module Machine = Smod_kern.Machine
module Json = Smod_util.Json
module World = Smod_bench_kit.World
module Smod = Secmodule.Smod
module H = Harness

(* Builds per run: set-up time is their median, and their sim passes must
   agree bit for bit. *)
let builds = 5
let out_dir = ".bench_out"

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                   *)
(* ------------------------------------------------------------------ *)

let registry_counters =
  [
    "kern.msgq_sends";
    "kern.sched_wakeups";
    "kern.procs_spawned";
    "secmodule.calls";
    "secmodule.calls_denied";
    "secmodule.policy_checks";
    "secmodule.policy_compile_invalidations";
    "secmodule.sessions_started";
    "keynote.queries";
    "keynote.assertions_evaluated";
    "keynote.compiled_ops";
    "keynote.fused_ops";
    "keynote.vector_units";
    "ring.submits";
    "ring.batches";
    "ring.stale_drops";
    "ring.spin_wakeups";
    "ring.block_wakeups";
    "vmem.faults";
    "vmem.peer_share_faults";
    "vmem.pages_mapped";
    "svm.instructions";
  ]

(* Every count the per-layer metrics are made of, by name. *)
let snapshot (env : H.env) (world : World.t) =
  let machine = world.World.machine in
  let poller =
    match Smod.poller_status world.World.smod with
    | Some s ->
        (s.Smod.ps_sweeps, s.Smod.ps_empty_sweeps, s.Smod.ps_slots_stamped, s.Smod.ps_doorbells)
    | None -> (0, 0, 0, 0)
  in
  let sweeps, empty_sweeps, slots_stamped, doorbells = poller in
  List.map
    (fun name -> (name, Option.value (Smod_metrics.counter_value name) ~default:0))
    registry_counters
  @ [
      ("poller.sweeps", sweeps);
      ("poller.empty_sweeps", empty_sweeps);
      ("poller.slots_stamped", slots_stamped);
      ("poller.doorbells", doorbells);
      ("machine.syscalls", Machine.syscall_count machine);
      ("machine.context_switches", Machine.context_switches machine);
      ("bench.control_writes", env.H.control_writes);
    ]

let delta before after = List.map2 (fun (name, a) (_, b) -> (name, b - a)) before after

(* ------------------------------------------------------------------ *)
(* One build                                                           *)
(* ------------------------------------------------------------------ *)

type build_result = {
  setup_raw_s : float;
  setup_speed : float;  (** reference speed just before set-up *)
  sim_op_us : float array;
  sim_ops : int;
  sim_elapsed_us : float;
  counts : (string * int) list;  (** sim-pass deltas *)
  alloc_words : float;  (** host minor-heap words over the sim pass *)
  top_heap_words : int;  (** process heap peak when the sim pass ends *)
  mux_peak : int;
  anchors : (string * float) list;
  gc_host : (Gc.stat * Gc.stat) option;  (** around the untraced host phase *)
  probe : Workloads.probe_inputs;
}

let run_build (spec : Workloads.spec) env ~seed ~host_phases =
  env.H.sim_op_us <- H.Fbuf.create ();
  env.H.sim_ops <- 0;
  (* Each set-up starts from a collected heap, so a later build does not
     pay for the garbage of an earlier one. *)
  Gc.full_major ();
  let setup_speed = H.Reference.speed ~ms:50 in
  let h0 = H.now_ns () in
  let b = spec.Workloads.build env ~seed ~host_phases in
  env.H.clock <- Machine.clock b.Workloads.world.World.machine;
  let setup_s = ref Float.nan in
  let sim_start = ref [] and sim_counts = ref [] in
  let words0 = ref 0.0 and words = ref 0.0 and top_heap = ref 0 in
  let gc0 = ref None and gc_host = ref None in
  b.Workloads.ctl.H.on_phase_end <-
    (function
    | H.Setup -> setup_s := float_of_int (H.now_ns () - h0) /. 1e9
    | H.Sim ->
        words := Gc.minor_words () -. !words0;
        top_heap := (Gc.quick_stat ()).Gc.top_heap_words;
        sim_counts := delta !sim_start (snapshot env b.Workloads.world)
    | H.Host -> gc_host := Option.map (fun g -> (g, Gc.quick_stat ())) !gc0
    | H.Traced -> ());
  b.Workloads.ctl.H.on_phase_start <-
    (function
    | H.Sim ->
        sim_start := snapshot env b.Workloads.world;
        words0 := Gc.minor_words ()
    | H.Host -> gc0 := Some (Gc.quick_stat ())
    | H.Setup | H.Traced -> ());
  World.run b.Workloads.world;
  {
    setup_raw_s = !setup_s;
    setup_speed;
    sim_op_us = H.Fbuf.to_array env.H.sim_op_us;
    sim_ops = env.H.sim_ops;
    sim_elapsed_us = env.H.sim_t1 -. env.H.sim_t0;
    counts = !sim_counts;
    alloc_words = !words;
    top_heap_words = !top_heap;
    mux_peak =
      (match Smod.mux_status b.Workloads.world.World.smod with
      | Some s -> s.Smod.mxs_peak
      | None -> 0);
    anchors = b.Workloads.anchors ();
    gc_host = !gc_host;
    probe = b.Workloads.probe;
  }

(* What must repeat bit for bit between builds of one run, and between
   runs with the same seed and the same program. *)
let sim_identity r = (r.sim_op_us, r.sim_elapsed_us, r.counts, r.mux_peak, r.anchors)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let median xs = if Array.length xs = 0 then 0.0 else Smod_util.Stats.median xs
let pct xs p = if Array.length xs = 0 then 0.0 else Smod_util.Stats.percentile xs p
let ratio a b = if b = 0.0 then 0.0 else a /. b

let sim_metrics r =
  let ops = float_of_int r.sim_ops in
  [
    ("sim_op_us_mean", "us", Smod_util.Stats.mean r.sim_op_us);
    ("sim_op_us_p50", "us", pct r.sim_op_us 50.0);
    ("sim_op_us_p99", "us", pct r.sim_op_us 99.0);
    ("sim_ops_per_s", "op/s", ops /. (r.sim_elapsed_us /. 1e6));
  ]

let setup_s r = r.setup_raw_s *. r.setup_speed

let end_to_end env (builds : build_result list) =
  let last = List.nth builds (List.length builds - 1) in
  let t = env.H.host_timing in
  [
    ("setup_s", "s", median (Array.of_list (List.map setup_s builds)));
    ("host_ops_per_s", "op/s", median (H.Fbuf.to_array t.H.rates));
    ("host_op_us_p50", "us", median (H.Fbuf.to_array t.H.p50s));
  ]
  @ sim_metrics last
  @ [
      ("alloc_words_per_op", "words", last.alloc_words /. float_of_int last.sim_ops);
      ("heap_peak_mb", "MB", float_of_int (last.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ]

(* GC work of the untraced phase, less that of its reference runs. *)
let gc_delta (t : H.timed) (g0, g1) field =
  let rec refs acc = function
    | after :: before :: rest -> refs (acc +. field after -. field before) rest
    | _ -> acc
  in
  field g1 -. field g0 -. refs 0.0 t.H.ref_gc

let per_layer env (builds : build_result list) ~probes =
  let last = List.nth builds (List.length builds - 1) in
  let ops = float_of_int last.sim_ops in
  let c name = float_of_int (List.assoc name last.counts) in
  let per_op name = c name /. ops in
  let spans = env.H.spans in
  let span_q name q = H.Hist.quantile (H.span_hist spans name) q in
  let gc_metrics =
    match last.gc_host with
    | Some g ->
        let d = gc_delta env.H.host_timing g in
        let host_ops = float_of_int env.H.host_timing.H.ops in
        [
          ( "gc.minor_collections_per_kop",
            "1/kop",
            1e3 *. ratio (d (fun s -> float_of_int s.Gc.minor_collections)) host_ops );
          ( "gc.major_collections_per_kop",
            "1/kop",
            1e3 *. ratio (d (fun s -> float_of_int s.Gc.major_collections)) host_ops );
          ( "gc.promoted_words_per_op",
            "words",
            ratio (d (fun s -> s.Gc.promoted_words)) host_ops );
        ]
    | None -> []
  in
  let untraced_p50 = median (H.Fbuf.to_array env.H.host_timing.H.p50s) in
  let traced_p50 = median (H.Fbuf.to_array env.H.traced_timing.H.p50s) in
  let anchor name = Option.value (List.assoc_opt name last.anchors) ~default:0.0 in
  [
    ("kern.traps_per_op", "1/op", per_op "machine.syscalls");
    ("kern.ctx_switches_per_op", "1/op", per_op "machine.context_switches");
    ("kern.msgq_msgs_per_op", "1/op", per_op "kern.msgq_sends");
    ("kern.wakeups_per_op", "1/op", per_op "kern.sched_wakeups");
    ("kern.procs_spawned_per_op", "1/op", per_op "kern.procs_spawned");
    ("secmodule.call_span_us_p50", "us", span_q H.Call 0.5);
    ("secmodule.call_span_us_p99", "us", span_q H.Call 0.99);
    ("secmodule.batch_span_us_p50", "us", span_q H.Batch 0.5);
    ("secmodule.connect_host_us_p50", "us", H.Hist.quantile env.H.connect_host_us 0.5);
    ("secmodule.connect_sim_us_p50", "us", H.Fbuf.percentile env.H.connect_sim_us 50.0);
    ("secmodule.close_host_us_p50", "us", H.Hist.quantile env.H.close_host_us 0.5);
    ("secmodule.policy_checks_per_op", "1/op", per_op "secmodule.policy_checks");
    ( "secmodule.deny_share",
      "ratio",
      ratio (c "secmodule.calls_denied") (c "secmodule.calls" +. c "secmodule.calls_denied") );
    ( "secmodule.compile_invalidations_per_write",
      "1/write",
      ratio (c "secmodule.policy_compile_invalidations") (c "bench.control_writes") );
    ("secmodule.set_policy_us_p50", "us", span_q H.Set_policy 0.5);
    ("poller.sweeps_per_op", "1/op", per_op "poller.sweeps");
    ( "poller.useful_sweep_ratio",
      "ratio",
      if c "poller.sweeps" = 0.0 then 0.0
      else 1.0 -. (c "poller.empty_sweeps" /. c "poller.sweeps") );
    ("poller.slots_stamped_per_op", "1/op", per_op "poller.slots_stamped");
    ("poller.doorbells_per_op", "1/op", per_op "poller.doorbells");
    ("mux.peak_fibers", "count", float_of_int last.mux_peak);
    ("keynote.queries_per_op", "1/op", per_op "keynote.queries");
    ( "keynote.assertions_per_query",
      "1/query",
      ratio (c "keynote.assertions_evaluated") (c "keynote.queries") );
    ("keynote.compiled_ops_per_op", "1/op", per_op "keynote.compiled_ops");
    ("keynote.fused_ops_per_op", "1/op", per_op "keynote.fused_ops");
    ("keynote.vector_units_per_op", "1/op", per_op "keynote.vector_units");
    ("keynote.rotate_us_p50", "us", span_q H.Rotate 0.5);
    ("ring.submits_per_op", "1/op", per_op "ring.submits");
    ("ring.batches_per_op", "1/op", per_op "ring.batches");
    ("ring.stale_drops", "count", c "ring.stale_drops");
    ( "ring.spin_share",
      "ratio",
      ratio (c "ring.spin_wakeups") (c "ring.spin_wakeups" +. c "ring.block_wakeups") );
    ("vmem.faults_per_op", "1/op", per_op "vmem.faults");
    ("vmem.peer_share_faults_per_op", "1/op", per_op "vmem.peer_share_faults");
    ("vmem.pages_mapped_per_op", "1/op", per_op "vmem.pages_mapped");
    ("crypto.decrypts_per_op", "1/op", per_op "secmodule.sessions_started");
    ("svm.instructions_per_op", "1/op", per_op "svm.instructions");
  ]
  @ List.map
      (fun (name, v) -> (name, (if String.ends_with ~suffix:"_us" name then "us" else "ns"), v))
      probes
  @ gc_metrics
  @ [
      ("fig8.smod_test_incr_sim_us_mean", "us", anchor "smod_test_incr");
      ("fig8.smod_getpid_sim_us_mean", "us", anchor "smod_getpid");
      ( "bench.fail_ratio",
        "ratio",
        ratio (float_of_int env.H.failed) (float_of_int env.H.attempted) );
      ("trace.host_op_us_p50", "us", traced_p50);
      ("trace.overhead_share", "ratio", ratio (traced_p50 -. untraced_p50) untraced_p50);
      ( "trace.spans",
        "count",
        float_of_int (env.H.spans.H.sp_len + env.H.spans.H.sp_dropped) );
      ( "host.reference_speed",
        "ratio",
        median (H.Fbuf.to_array env.H.host_timing.H.speeds) );
    ]

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* The Figure 8 anchor: fig8_msgq's per-kind simulated means must sit
   within E1's own stdev of the checked-in E1 rows, or the benchmark has
   drifted off the paper's path. *)
let anchor_check (anchors : (string * float) list) =
  let rows () =
    let doc =
      Json.of_string (In_channel.with_open_bin "bench/baseline.json" In_channel.input_all)
    in
    let e1 =
      List.find
        (fun e -> Json.get_string (Json.member_exn "id" e) = "e1")
        (Json.to_list (Json.member_exn "experiments" doc))
    in
    List.map
      (fun r ->
        let num key = Json.get_float (Json.member_exn key r) in
        (Json.get_string (Json.member_exn "label" r), (num "mean", num "stdev")))
      (Json.to_list (Json.member_exn "rows" e1))
  in
  match rows () with
  | exception e ->
      [
        Printf.sprintf "anchor: cannot read E1 rows of bench/baseline.json: %s"
          (Printexc.to_string e);
      ]
  | rows ->
      List.concat_map
        (fun (key, label) ->
          match (List.assoc_opt key anchors, List.assoc_opt label rows) with
          | Some v, Some (mean, stdev) when Float.abs (v -. mean) <= stdev -> []
          | Some v, Some (mean, stdev) ->
              [
                Printf.sprintf "anchor: %s sim mean %.4f us is outside E1 %.4f +- %.4f us" label
                  v mean stdev;
              ]
          | _ -> [ Printf.sprintf "anchor: %s missing" label ])
        [ ("smod_test_incr", "SMOD(test-incr)"); ("smod_getpid", "SMOD(SMOD-getpid)") ]

let ensure_dir d = try Sys.mkdir d 0o755 with Sys_error _ -> ()

let hex_lines values =
  String.concat "" (List.map (fun (n, v) -> Printf.sprintf "%s %h\n" n v) values)

(* Simulated figures must repeat exactly for the same seed and program:
   the first run of a (workload, seed, executable) records them, later
   runs compare.  Allocation is recorded beside them; whether it repeats
   is reported, not enforced. *)
let cross_run_check ~workload ~seed last =
  let digest = Digest.to_hex (Digest.file Sys.executable_name) in
  let dir = Filename.concat out_dir "repeat" in
  let file = Filename.concat dir (Printf.sprintf "%s-seed%d-%s.txt" workload seed digest) in
  let sim = hex_lines (List.map (fun (n, _, v) -> (n, v)) (sim_metrics last) @ last.anchors) in
  let alloc = hex_lines [ ("alloc_words", last.alloc_words) ] in
  if Sys.file_exists file then begin
    let prev = In_channel.with_open_bin file In_channel.input_all in
    let same_sim = String.starts_with ~prefix:sim prev in
    let same_alloc = prev = sim ^ alloc in
    let problems =
      if same_sim then []
      else [ "repeat: sim metrics differ from an earlier run with this seed" ]
    in
    (problems, Some same_alloc)
  end
  else begin
    ensure_dir out_dir;
    ensure_dir dir;
    Out_channel.with_open_bin file (fun oc -> output_string oc (sim ^ alloc));
    ([], None)
  end

(* ------------------------------------------------------------------ *)
(* Host fingerprint                                                    *)
(* ------------------------------------------------------------------ *)

let first_line_with ~prefix file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          if String.starts_with ~prefix line then
            match String.index_opt line ':' with
            | Some i ->
                Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | None -> Some (String.trim line)
          else None)
        (String.split_on_char '\n' text)

let fingerprint () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "cpu_model",
        Json.String
          (Option.value
             (first_line_with ~prefix:"model name" "/proc/cpuinfo")
             ~default:"unknown") );
      ( "clock_source",
        Json.String
          (Option.value
             (first_line_with ~prefix:""
                "/sys/devices/system/clocksource/clocksource0/current_clocksource")
             ~default:"unknown") );
    ]

(* The unnormalised host figures and the reference speeds behind the
   normalisation, for the run record. *)
let host_raw env builds =
  let floats a = Json.Arr (List.map (fun v -> Json.Float v) (Array.to_list a)) in
  let t = env.H.host_timing in
  Json.Obj
    [
      ("setup_s_by_build", floats (Array.of_list (List.map (fun r -> r.setup_raw_s) builds)));
      ( "setup_speed_by_build",
        floats (Array.of_list (List.map (fun r -> r.setup_speed) builds)) );
      ("window_ops_per_s", floats (H.Fbuf.to_array t.H.raw_rates));
      ("window_speed", floats (H.Fbuf.to_array t.H.speeds));
      ("ops_per_s_median", Json.Float (median (H.Fbuf.to_array t.H.raw_rates)));
      ("op_us_p50", Json.Float (H.Hist.quantile t.H.all_op_us 0.5));
      ("op_us_p99", Json.Float (H.Hist.quantile t.H.all_op_us 0.99));
      ("reference_nominal_rate", Json.Float H.Reference.nominal_rate);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let main ~workload ~seed ~seconds ~trace =
  let spec =
    match
      List.find_opt (fun (s : Workloads.spec) -> s.Workloads.name = workload) Workloads.all
    with
    | Some s -> s
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ workload);
        exit 2
  in
  let env = H.create_env ~trace in
  let host_phases =
    if trace then [ (H.Host, seconds /. 2.0); (H.Traced, seconds /. 2.0) ]
    else [ (H.Host, seconds) ]
  in
  let results =
    List.init builds (fun i ->
        run_build spec env ~seed ~host_phases:(if i = builds - 1 then host_phases else []))
  in
  let last = List.nth results (builds - 1) in
  let identical = List.for_all (fun r -> sim_identity r = sim_identity last) results in
  let problems =
    (if identical then [] else [ "repeat: sim metrics differ between builds of this run" ])
    @ (if workload = "fig8_msgq" then anchor_check last.anchors else [])
  in
  let cross_problems, alloc_repeats_across = cross_run_check ~workload ~seed last in
  let problems = problems @ cross_problems in
  let probes = if trace then Probes.all ~seed last.probe else [] in
  let metrics = if trace then per_layer env results ~probes else end_to_end env results in
  let correct = env.H.failed = 0 && problems = [] in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int env.H.attempted);
        ("failed", Json.Int env.H.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, unit_, v) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ]))
               metrics) );
      ]
  in
  let record =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("fingerprint", fingerprint ());
        ("builds", Json.Int builds);
        ("sim_repeats_across_builds", Json.Bool identical);
        ( "alloc_words_per_op_by_build",
          Json.Arr
            (List.map
               (fun r -> Json.Float (r.alloc_words /. float_of_int r.sim_ops))
               results) );
        ( "alloc_repeats_across_runs",
          match alloc_repeats_across with Some b -> Json.Bool b | None -> Json.Null );
        ("host_raw", host_raw env results);
        ("anchors_sim_us", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) last.anchors));
        ( "problems",
          Json.Arr (List.map (fun s -> Json.String s) (problems @ List.rev env.H.errors)) );
        ("result", result);
      ]
  in
  ensure_dir out_dir;
  ensure_dir (Filename.concat out_dir "results");
  write_file
    (Filename.concat out_dir
       (Printf.sprintf "results/%s-seed%d-trace%d.json" workload seed (Bool.to_int trace)))
    (Json.to_string record ^ "\n");
  if trace then begin
    ensure_dir (Filename.concat out_dir "traces");
    write_file
      (Filename.concat out_dir (Printf.sprintf "traces/%s.trace.json" workload))
      (Json.to_string ~minify:true (H.chrome_trace env.H.spans ~workload ~seed))
  end;
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) (problems @ List.rev env.H.errors);
  print_endline (Json.to_string ~minify:true (Json.Obj [ ("perfbench", record) ]));
  print_endline (Json.to_string ~minify:true result)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of fig8_msgq, policy_ring, session_churn, poller_fanout" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of measured load");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics (0) or the traced per-layer run (1)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
