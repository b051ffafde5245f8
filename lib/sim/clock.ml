(* The running total sits in an all-float record, stored flat, so a
   charge updates it in place instead of boxing a new float. *)
type total = { mutable cycles : float }

type t = {
  total : total;
  jitter : float;
  rng : Smod_util.Rng.t;
}

let create ?(seed = 0x5EC40D2006L) ?(jitter = 0.015) () =
  { total = { cycles = 0.0 }; jitter; rng = Smod_util.Rng.create seed }

let[@inline] noise t = if t.jitter = 0.0 then 1.0 else Smod_util.Rng.jitter t.rng t.jitter

let charge t op =
  let total = t.total in
  total.cycles <- total.cycles +. (Cost_model.cycles op *. noise t)

let charge_n t op k =
  if k > 0 then begin
    let total = t.total in
    total.cycles <- total.cycles +. (Cost_model.cycles op *. float_of_int k *. noise t)
  end

let charge_cycles t c = t.total.cycles <- t.total.cycles +. c
let now_cycles t = t.total.cycles
let now_us t = Cost_model.us_of_cycles t.total.cycles
let reset t = t.total.cycles <- 0.0
let elapsed_us t ~since = Cost_model.us_of_cycles (t.total.cycles -. since)
