module Clock = Smod_sim.Clock
module Stats = Smod_util.Stats
module Rng = Smod_util.Rng
module Table = Smod_util.Table

type spec = { name : string; calls_per_trial : int; trials : int; warmup : int }

type row = { spec : spec; mean_us : float; stdev_us : float; trial_means : float array }

(* Thousands separators for the calls/trial column, e.g. 1,000,000. *)
let with_commas n =
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let default_noise = 0.012
let default_noise_seed = 0xBE7C4A1L

(* Per-trial load factor, derived from (noise_seed, trial) alone: trial k's
   factor does not depend on how many earlier trials consumed the stream —
   reordering, skipping, or running trials on different domains leaves
   every other trial's mean untouched.  (The previous design drew all
   factors from ONE sequential Rng, so dropping trial 0 silently changed
   every later trial.) *)
let noise_factor ~noise ~noise_seed ~trial =
  if noise = 0.0 then 1.0
  else
    let rng = Rng.create (Int64.add noise_seed (Int64.of_int trial)) in
    Rng.gaussian rng ~mu:1.0 ~sigma:noise

let apply_noise ~noise ~noise_seed ~trial per_call =
  per_call *. Float.max 0.5 (noise_factor ~noise ~noise_seed ~trial)

let run_one ~clock ?(noise = default_noise) ?(noise_seed = default_noise_seed) ~trial spec f
    =
  for i = 1 to spec.warmup do
    f (-i)
  done;
  let t0 = Clock.now_cycles clock in
  for i = 0 to spec.calls_per_trial - 1 do
    f ((trial * spec.calls_per_trial) + i)
  done;
  let per_call = Clock.elapsed_us clock ~since:t0 /. float_of_int spec.calls_per_trial in
  apply_noise ~noise ~noise_seed ~trial per_call

let row_of_means spec trial_means =
  {
    spec;
    mean_us = Stats.mean trial_means;
    stdev_us = Stats.stdev trial_means;
    trial_means;
  }

let run ~clock ?(noise = default_noise) ?(noise_seed = default_noise_seed) spec f =
  for i = 1 to spec.warmup do
    f (-i)
  done;
  let trial_means =
    Array.init spec.trials (fun trial ->
        let t0 = Clock.now_cycles clock in
        for i = 0 to spec.calls_per_trial - 1 do
          f ((trial * spec.calls_per_trial) + i)
        done;
        let per_call = Clock.elapsed_us clock ~since:t0 /. float_of_int spec.calls_per_trial in
        apply_noise ~noise ~noise_seed ~trial per_call)
  in
  row_of_means spec trial_means

let time_batches ~clock ~batch ~rounds do_batch =
  do_batch ();
  let samples = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    let t0 = Clock.now_cycles clock in
    do_batch ();
    samples.(r) <- Clock.elapsed_us clock ~since:t0 /. float_of_int batch
  done;
  (Stats.mean samples, Stats.percentile samples 99.0)

let figure8_table rows =
  let counts = Table.create [ "Test"; "Number of Calls/Trial"; "Total Number of Trials" ] in
  List.iter
    (fun r ->
      Table.add_row counts
        [ r.spec.name; with_commas r.spec.calls_per_trial; string_of_int r.spec.trials ])
    rows;
  let results = Table.create [ "Test Function"; "microsec/CALL"; "stdev(microsec)" ] in
  List.iter
    (fun r ->
      Table.add_row results
        [ r.spec.name; Printf.sprintf "%.6f" r.mean_us; Printf.sprintf "%.8f" r.stdev_us ])
    rows;
  Table.render counts ^ "\n" ^ Table.render results

let generic_table ~title ~header rows =
  let t = Table.create header in
  List.iter (Table.add_row t) rows;
  Printf.sprintf "== %s ==\n%s" title (Table.render t)
