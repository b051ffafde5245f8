(* Measurement plumbing shared by the workloads: the host clock, sample
   stores, the span recorder, and the phase loop every simulated client
   runs under.

   A run builds the same world several times (so set-up time is a median
   and the simulated pass can be compared bit for bit between builds).
   Each build goes through the same phases, separated by barriers across
   all clients of the world:

   - set-up: world creation, module packaging, session establishment and
     warm-up;
   - sim pass: a fixed number of requests per client.  Simulated costs,
     library counter deltas and host allocation are taken here, so they
     depend only on the seed;
   - host phase (last build only): closed-loop requests until a host-time
     deadline, timed with tracing off;
   - traced phase (last build, traced runs only): the same loop with spans
     around every call the benchmark makes into a layer. *)

module Machine = Smod_kern.Machine
module Sched = Smod_kern.Sched
module Proc = Smod_kern.Proc
module Clock = Smod_sim.Clock
module Cost = Smod_sim.Cost_model
module Json = Smod_util.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable float store for exact (simulated) samples. *)
module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let data = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len

  let percentile t p =
    if t.len = 0 then 0.0 else Smod_util.Stats.percentile (to_array t) p
end

(* Log-bucketed histogram for host samples, which are too many to keep:
   bucket b covers [lo * r^b, lo * r^(b+1)) with r = 1.002, and a quantile
   is interpolated by rank inside its bucket, so it is within 0.2% of the
   exact sample quantile. *)
module Hist = struct
  let lo = 1e-3
  let log_ratio = log 1.002
  let nbuckets = 1 + int_of_float (log (1e10 /. lo) /. log_ratio)

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make nbuckets 0; total = 0 }

  let add_n t v n =
    let b =
      if v <= lo then 0 else min (nbuckets - 1) (int_of_float (log (v /. lo) /. log_ratio))
    in
    t.counts.(b) <- t.counts.(b) + n;
    t.total <- t.total + n

  let add t v = add_n t v 1
  let count t = t.total

  let clear t =
    Array.fill t.counts 0 nbuckets 0;
    t.total <- 0

  let quantile t q =
    if t.total = 0 then 0.0
    else begin
      let rank = q *. float_of_int (t.total - 1) in
      let b = ref 0 and below = ref 0 in
      while float_of_int (!below + t.counts.(!b)) <= rank do
        below := !below + t.counts.(!b);
        incr b
      done;
      let frac = (rank -. float_of_int !below +. 0.5) /. float_of_int t.counts.(!b) in
      lo *. exp ((float_of_int !b +. frac) *. log_ratio)
    end
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Every span the benchmark records sits around one call it makes into a
   layer (or around one whole request, [Op]).  Spans are kept in memory
   up to [span_cap] and written out as a Chrome trace when the run ends;
   durations of every span, kept or not, feed the per-name histograms. *)
type span_name = Op | Call | Batch | Connect | Close | Set_policy | Rotate

(* (name, layer) of each span kind, indexed by [span_index]. *)
let span_names =
  [|
    ("op", "bench");
    ("secmodule.call", "secmodule");
    ("secmodule.batch", "secmodule");
    ("secmodule.connect", "secmodule");
    ("secmodule.close", "secmodule");
    ("registry.set_policy", "secmodule");
    ("keystore.rotate_principal", "keynote");
  |]

let span_index = function
  | Op -> 0
  | Call -> 1
  | Batch -> 2
  | Connect -> 3
  | Close -> 4
  | Set_policy -> 5
  | Rotate -> 6

let span_cap = 40_000

type spans = {
  sp_name : int array;
  sp_parent : int array;
  sp_op : int array;
  sp_tid : int array;
  sp_start : int array;
  sp_stop : int array;
  mutable sp_len : int;
  mutable sp_dropped : int;
  sp_hists : Hist.t array;  (** host µs, by span name *)
}

(* Untraced runs get an empty store, so its arrays stay out of the heap
   figures. *)
let create_spans ~cap =
  {
    sp_name = Array.make cap 0;
    sp_parent = Array.make cap 0;
    sp_op = Array.make cap 0;
    sp_tid = Array.make cap 0;
    sp_start = Array.make cap 0;
    sp_stop = Array.make cap 0;
    sp_len = 0;
    sp_dropped = 0;
    sp_hists = Array.init (Array.length span_names) (fun _ -> Hist.create ());
  }

let span_hist spans name = spans.sp_hists.(span_index name)

(* ------------------------------------------------------------------ *)
(* Machine-speed reference                                             *)
(* ------------------------------------------------------------------ *)

(* The host this benchmark was defined on changes speed by up to half
   between runs minutes apart, and by a fifth between seconds: other
   tenants share its cores.  Host figures are therefore normalised by a
   fixed reference loop (allocation, boxing and hashing, as in the
   simulator's hot paths, but calling no library code) timed right after
   each measurement window: a window's rate is divided by the speed the
   reference saw, and its per-op time multiplied by it.  [nominal_rate] is
   a typical rate of the reference on that host (2 vCPU Intel Xeon, OCaml
   5.1.1), so normalised figures read as that host's at that speed.  Raw
   figures and the speeds are kept in the run record. *)
module Reference = struct
  let nominal_rate = 100_000.0
  let table : (int, float) Hashtbl.t = Hashtbl.create 256

  let iteration () =
    for _ = 1 to 10 do
      List.iter
        (fun (k, v) -> Hashtbl.replace table (k land 255) (v +. 1.0))
        (List.init 32 (fun i -> (i * 7, float_of_int i)))
    done

  (* Host speed relative to nominal over the next [ms] milliseconds:
     above 1 is faster. *)
  let speed ~ms =
    let t0 = now_ns () in
    let n = ref 0 in
    while now_ns () - t0 < ms * 1_000_000 do
      iteration ();
      incr n
    done;
    float_of_int !n /. (float_of_int (now_ns () - t0) /. 1e9) /. nominal_rate
end

(* One timed phase, cut into windows.  Each window records its raw
   ops/s and per-op median, the reference speed measured after it, and
   both figures normalised by that speed. *)
type timed = {
  all_op_us : Hist.t;  (** raw per-op host time over the whole phase *)
  window_op_us : Hist.t;  (** raw per-op host time of the current window *)
  raw_rates : Fbuf.t;
  speeds : Fbuf.t;
  rates : Fbuf.t;  (** normalised ops/s per window *)
  p50s : Fbuf.t;  (** normalised per-op median per window *)
  mutable ops : int;
  mutable window_start_ns : int;
  mutable window_ops : int;
  mutable ref_gc : Gc.stat list;  (** [Gc.quick_stat] around each reference run *)
}

let create_timed () =
  {
    all_op_us = Hist.create ();
    window_op_us = Hist.create ();
    raw_rates = Fbuf.create ();
    speeds = Fbuf.create ();
    rates = Fbuf.create ();
    p50s = Fbuf.create ();
    ops = 0;
    window_start_ns = 0;
    window_ops = 0;
    ref_gc = [];
  }

let reference_ms = 25

(* ------------------------------------------------------------------ *)
(* The per-run environment                                             *)
(* ------------------------------------------------------------------ *)

type phase = Setup | Sim | Host | Traced

type env = {
  mutable phase : phase;
  mutable clock : Clock.t;  (** the current build's simulated clock *)
  spans : spans;
  (* Sim pass of the current build. *)
  mutable sim_op_us : Fbuf.t;  (** simulated µs per op, one entry per op *)
  mutable sim_ops : int;
  mutable sim_t0 : float;  (** simulated µs at the start of the pass *)
  mutable sim_t1 : float;
  (* Timed phases of the last build. *)
  host_timing : timed;
  traced_timing : timed;
  mutable window_ns : int;
  mutable last_done_ns : int;
  mutable group_done : int;  (** completions since the last host sample *)
  mutable deadline_ns : int;
  (* Correctness. *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure reports *)
  (* Session life-cycle timings from every build and phase. *)
  connect_host_us : Hist.t;
  connect_sim_us : Fbuf.t;
  close_host_us : Hist.t;
  (* Control-plane writes (policy replacements, key rotations). *)
  mutable control_writes : int;
}

let create_env ~trace =
  {
    phase = Setup;
    clock = Clock.create ();
    spans = create_spans ~cap:(if trace then span_cap else 0);
    sim_op_us = Fbuf.create ();
    sim_ops = 0;
    sim_t0 = 0.0;
    sim_t1 = 0.0;
    host_timing = create_timed ();
    traced_timing = create_timed ();
    window_ns = 1;
    last_done_ns = 0;
    group_done = 0;
    deadline_ns = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    connect_host_us = Hist.create ();
    connect_sim_us = Fbuf.create ();
    close_host_us = Hist.create ();
    control_writes = 0;
  }

let report_failure env msg =
  if List.length env.errors < 8 then env.errors <- msg :: env.errors

let traced env = env.phase = Traced

(* [span env name ~parent ~op ~tid f] runs [f id], where [id] is the new
   span's identifier for children to name as parent (-1 when untraced or
   past the cap). *)
let span env name ~parent ~op ~tid f =
  if not (traced env) then f (-1)
  else begin
    let s = env.spans in
    let id =
      if s.sp_len < Array.length s.sp_name then begin
        let id = s.sp_len in
        s.sp_len <- id + 1;
        id
      end
      else begin
        s.sp_dropped <- s.sp_dropped + 1;
        -1
      end
    in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      Hist.add (span_hist s name) (float_of_int (t1 - t0) /. 1e3);
      if id >= 0 then begin
        s.sp_name.(id) <- span_index name;
        s.sp_parent.(id) <- parent;
        s.sp_op.(id) <- op;
        s.sp_tid.(id) <- tid;
        s.sp_start.(id) <- t0;
        s.sp_stop.(id) <- t1
      end
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Session establishment and teardown are timed in every phase (their
   medians are per-layer metrics on every workload) and spanned when
   traced. *)
let timed_connect env ~parent ~op ~tid f =
  let h0 = now_ns () and c0 = Clock.now_cycles env.clock in
  let conn = span env Connect ~parent ~op ~tid (fun _ -> f ()) in
  Hist.add env.connect_host_us (float_of_int (now_ns () - h0) /. 1e3);
  Fbuf.add env.connect_sim_us (Cost.us_of_cycles (Clock.now_cycles env.clock -. c0));
  conn

let timed_close env ~parent ~op ~tid f =
  let h0 = now_ns () in
  span env Close ~parent ~op ~tid (fun _ -> f ());
  Hist.add env.close_host_us (float_of_int (now_ns () - h0) /. 1e3)

(* ------------------------------------------------------------------ *)
(* Chrome trace output                                                 *)
(* ------------------------------------------------------------------ *)

let chrome_trace spans ~workload ~seed =
  let origin = if spans.sp_len = 0 then 0 else spans.sp_start.(0) in
  let us ns = float_of_int ns /. 1e3 in
  let events =
    List.init spans.sp_len (fun i ->
        let name, cat = span_names.(spans.sp_name.(i)) in
        Json.Obj
          [
            ("name", Json.String name);
            ("cat", Json.String cat);
            ("ph", Json.String "X");
            ("ts", Json.Float (us (spans.sp_start.(i) - origin)));
            ("dur", Json.Float (us (spans.sp_stop.(i) - spans.sp_start.(i))));
            ("pid", Json.Int 1);
            ("tid", Json.Int spans.sp_tid.(i));
            ( "args",
              Json.Obj
                [
                  ("span", Json.Int i);
                  ("parent", Json.Int spans.sp_parent.(i));
                  ("op", Json.Int spans.sp_op.(i));
                ] );
          ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr events);
      ("displayTimeUnit", Json.String "ns");
      ( "otherData",
        Json.Obj
          [
            ("workload", Json.String workload);
            ("seed", Json.Int seed);
            ("spans_kept", Json.Int spans.sp_len);
            ("spans_dropped", Json.Int spans.sp_dropped);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* The client loop                                                     *)
(* ------------------------------------------------------------------ *)

(* What a workload supplies per simulated client: [request env ~op ~tid
   ~parent] performs one closed-loop request (one call, one batch or one
   session) and returns how many of its ops gave a wrong result. *)
type client = {
  request : env -> op:int -> tid:int -> parent:int -> int;
  close : env -> op:int -> tid:int -> unit;
}

type world_ctl = {
  machine : Machine.t;
  nclients : int;
  ops_per_request : int;
  sim_requests : int;  (** per client *)
  host_phases : (phase * float) list;  (** timed phases and their seconds *)
  mutable arrived : int;
  wq : Sched.waitq;
  mutable next_op : int;  (** request counter, shared by the world's clients *)
  mutable on_phase_start : phase -> unit;
  mutable on_phase_end : phase -> unit;
}

let world_ctl machine ~nclients ~ops_per_request ~sim_requests ~host_phases =
  {
    machine;
    nclients;
    ops_per_request;
    sim_requests;
    host_phases;
    arrived = 0;
    wq = Sched.waitq "perfbench-barrier";
    next_op = 0;
    on_phase_start = ignore;
    on_phase_end = ignore;
  }

(* The last client to arrive runs [last] and releases the others. *)
let barrier w (p : Proc.t) ~last =
  w.arrived <- w.arrived + 1;
  if w.arrived = w.nclients then begin
    w.arrived <- 0;
    last ();
    ignore (Machine.wake w.machine w.wq)
  end
  else Sched.wait_on w.wq p.Proc.pid

(* One request with its failures counted: an exception escaping it fails
   all its ops and is reported, but does not stop the run. *)
let guarded env w c ~tid ~op =
  env.attempted <- env.attempted + w.ops_per_request;
  let bad =
    match span env Op ~parent:(-1) ~op ~tid (fun parent -> c.request env ~op ~tid ~parent) with
    | n -> n
    | exception ((Sched.Proc_exit _ | Sched.Proc_killed _) as e) -> raise e
    | exception e ->
        report_failure env
          (Printf.sprintf "request %d (client %d) raised %s" op tid (Printexc.to_string e));
        w.ops_per_request
  in
  if bad > 0 then begin
    env.failed <- env.failed + bad;
    if bad < w.ops_per_request || env.errors = [] then
      report_failure env (Printf.sprintf "request %d (client %d): %d wrong results" op tid bad)
  end

let take_op w =
  let op = w.next_op in
  w.next_op <- op + 1;
  op

let timed_of env = function Traced -> env.traced_timing | Setup | Sim | Host -> env.host_timing

let start_phase env phase seconds =
  env.phase <- phase;
  let now = now_ns () in
  env.deadline_ns <- now + int_of_float (seconds *. 1e9);
  env.window_ns <- max 100_000_000 (int_of_float (seconds *. 1e9 /. 40.0));
  env.last_done_ns <- now;
  env.group_done <- 0;
  let t = timed_of env phase in
  t.window_start_ns <- now;
  t.window_ops <- 0

let close_window t ~now =
  let elapsed = float_of_int (now - t.window_start_ns) /. 1e9 in
  let raw_rate = float_of_int t.window_ops /. elapsed in
  let raw_p50 = Hist.quantile t.window_op_us 0.5 in
  let g0 = Gc.quick_stat () in
  let speed = Reference.speed ~ms:reference_ms in
  t.ref_gc <- Gc.quick_stat () :: g0 :: t.ref_gc;
  Fbuf.add t.raw_rates raw_rate;
  Fbuf.add t.speeds speed;
  Fbuf.add t.rates (raw_rate /. speed);
  Fbuf.add t.p50s (raw_p50 *. speed);
  Hist.clear t.window_op_us;
  t.window_ops <- 0

(* One completion in a timed phase.  A host-time sample covers one
   completion per client: the time since the previous sample, divided by
   the ops completed in it.  With one client that is one request's share
   of the loop; with many it averages over the bursts in which a shared
   server completes several clients' requests back to back.  Windows
   close on sample boundaries, and the reference run that follows a
   window is excluded from every sample. *)
let record_completion env w =
  let t = timed_of env env.phase in
  let ops = w.ops_per_request in
  t.ops <- t.ops + ops;
  t.window_ops <- t.window_ops + ops;
  env.group_done <- env.group_done + 1;
  if env.group_done = w.nclients then begin
    let now = now_ns () in
    let group_ops = w.nclients * ops in
    let per_op_us = float_of_int (now - env.last_done_ns) /. 1e3 /. float_of_int group_ops in
    env.group_done <- 0;
    Hist.add_n t.all_op_us per_op_us group_ops;
    Hist.add_n t.window_op_us per_op_us group_ops;
    if now - t.window_start_ns >= env.window_ns then begin
      close_window t ~now;
      let now = now_ns () in
      t.window_start_ns <- now;
      env.last_done_ns <- now
    end
    else env.last_done_ns <- now
  end

let end_phase env w =
  (match env.phase with
  | Sim -> env.sim_t1 <- Clock.now_us env.clock
  | Host | Traced ->
      (* A phase shorter than one window still yields one. *)
      let t = timed_of env env.phase in
      if Fbuf.length t.rates = 0 && Hist.count t.window_op_us > 0 then
        close_window t ~now:(now_ns ())
  | Setup -> ());
  w.on_phase_end env.phase

(* Body of every simulated client, after its workload has established
   its session(s) and warmed up.  Phase changes happen at barriers, run by
   the last client to arrive. *)
let drive env w (p : Proc.t) ~tid c =
  barrier w p ~last:(fun () ->
      end_phase env w;
      env.phase <- Sim;
      w.on_phase_start Sim;
      env.sim_t0 <- Clock.now_us env.clock);
  for _ = 1 to w.sim_requests do
    let op = take_op w in
    let c0 = Clock.now_cycles env.clock in
    guarded env w c ~tid ~op;
    let per_op =
      Cost.us_of_cycles (Clock.now_cycles env.clock -. c0) /. float_of_int w.ops_per_request
    in
    for _ = 1 to w.ops_per_request do
      Fbuf.add env.sim_op_us per_op
    done;
    env.sim_ops <- env.sim_ops + w.ops_per_request
  done;
  List.iter
    (fun (phase, seconds) ->
      barrier w p ~last:(fun () ->
          end_phase env w;
          start_phase env phase seconds;
          w.on_phase_start phase);
      while now_ns () < env.deadline_ns do
        guarded env w c ~tid ~op:(take_op w);
        record_completion env w
      done)
    w.host_phases;
  barrier w p ~last:(fun () ->
      end_phase env w;
      env.phase <- Setup);
  c.close env ~op:w.next_op ~tid
