type event = { timestamp_us : float; actor : string; label : string }

(* A fixed ring: [ring.(head)] is the next slot to write, and the [count]
   slots before it (wrapping) hold the recorded events, oldest first. *)
type t = { ring : event array; mutable enabled : bool; mutable head : int; mutable count : int }

let empty = { timestamp_us = 0.0; actor = ""; label = "" }

let create ?(capacity = 4096) ?(enabled = true) () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  { ring = Array.make capacity empty; enabled; head = 0; count = 0 }

let enable t = t.enabled <- true
let disable t = t.enabled <- false

let emit t ~clock ~actor label =
  let capacity = Array.length t.ring in
  if t.enabled && capacity > 0 then begin
    t.ring.(t.head) <- { timestamp_us = Clock.now_us clock; actor; label };
    t.head <- (t.head + 1) mod capacity;
    if t.count < capacity then t.count <- t.count + 1
  end

let emitf t ~clock ~actor fmt =
  if t.enabled then Format.kasprintf (fun s -> emit t ~clock ~actor s) fmt
  else Format.ikfprintf ignore Format.err_formatter fmt

let events t =
  let capacity = Array.length t.ring in
  List.init t.count (fun i -> t.ring.((t.head - t.count + i + capacity) mod capacity))

let labels t = List.map (fun e -> e.label) (events t)

let clear t =
  (* Overwrite the slots too, so the dropped events can be collected. *)
  Array.fill t.ring 0 (Array.length t.ring) empty;
  t.head <- 0;
  t.count <- 0

let pp ppf t =
  List.iter
    (fun e -> Format.fprintf ppf "[%10.3f us] %-8s %s@\n" e.timestamp_us e.actor e.label)
    (events t)
