(** Trial runner for the Figure 8 methodology: T trials of N calls each;
    report the per-call mean and the standard deviation across trial
    means.

    The simulated clock's per-charge jitter averages out over a long
    trial, so an optional per-trial {e load factor} (Gaussian around 1.0)
    models the run-to-run noise a real host shows from interrupts and
    scheduler activity — that is what the paper's stdev column captures.
    Disable it with [noise = 0.0] for exact accounting. *)

type spec = {
  name : string;
  calls_per_trial : int;
  trials : int;
  warmup : int;  (** calls executed before timing starts *)
}

type row = {
  spec : spec;
  mean_us : float;  (** mean per-call cost over trials *)
  stdev_us : float;  (** stdev of the trial means *)
  trial_means : float array;
}

val run :
  clock:Smod_sim.Clock.t ->
  ?noise:float ->
  ?noise_seed:int64 ->
  spec ->
  (int -> unit) ->
  row
(** [run ~clock spec f] calls [f i] for each call index, reading elapsed
    simulated time around each trial.  [noise] is the per-trial load
    factor's sigma (default 0.012).  Trial [k]'s factor is derived from
    [(noise_seed, k)] alone, so it does not depend on which other trials
    ran or in what order. *)

val run_one :
  clock:Smod_sim.Clock.t ->
  ?noise:float ->
  ?noise_seed:int64 ->
  trial:int ->
  spec ->
  (int -> unit) ->
  float
(** One trial of [spec] (warmup included — intended for a fresh world per
    task), returning the noise-adjusted per-call mean.  [run_one ~trial:k]
    applies exactly the factor trial [k] of {!run} would, so a run
    decomposed into per-trial tasks and reassembled with {!row_of_means}
    matches a sequential {!run} trial-for-trial. *)

val row_of_means : spec -> float array -> row
(** Assemble a row from per-trial means (index = trial number). *)

val time_batches :
  clock:Smod_sim.Clock.t -> batch:int -> rounds:int -> (unit -> unit) -> float * float
(** The batch-latency methodology of E18/E19/E24/E25: call [do_batch]
    once to warm the session (symbol lookup, ring arming, one-off
    compiles), then time [rounds] further calls on the simulated clock.
    Returns the per-call (mean, p99) over the rounds, where each call of
    [do_batch] issues [batch] calls.  Run it inside the client
    coroutine. *)

val figure8_table : row list -> string
(** Render in the layout of the paper's Figure 8. *)

val generic_table : title:string -> header:string list -> string list list -> string
