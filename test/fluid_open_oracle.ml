(* Reference model for Netsim.Fluid.Open: the engine-ticked stream it
   replaced. One self-rescheduling event per epoch polls the served
   fraction and adds one slice of offered (and, where unserved, lost)
   load. The change-driven stream must reproduce both sums bit for
   bit. *)

module Engine = Simkit.Engine

type t = {
  engine : Engine.t;
  rate : float;
  epoch : float;
  served : unit -> float;
  mutable running : bool;
  mutable tick : Engine.handle option;
  mutable offered : float;
  mutable lost : float;
}

let create engine ~rate_per_s ~epoch_s ~served_fraction =
  {
    engine;
    rate = rate_per_s;
    epoch = epoch_s;
    served = served_fraction;
    running = false;
    tick = None;
    offered = 0.0;
    lost = 0.0;
  }

let rec tick t =
  if t.running then begin
    let served = Float.min 1.0 (Float.max 0.0 (t.served ())) in
    let slice = t.rate *. t.epoch in
    t.offered <- t.offered +. slice;
    t.lost <- t.lost +. (slice *. (1.0 -. served));
    t.tick <- Some (Engine.schedule t.engine ~delay:t.epoch (fun () -> tick t))
  end

let start t =
  if (not t.running) && t.rate > 0.0 then begin
    t.running <- true;
    t.tick <- Some (Engine.schedule t.engine ~delay:t.epoch (fun () -> tick t))
  end

let stop t =
  if t.running then begin
    t.running <- false;
    Option.iter (Engine.cancel t.engine) t.tick;
    t.tick <- None
  end

let offered_load t = t.offered
let lost_load t = t.lost
