(* Gauge sampling on the simulation clock (Obs.Timeline) and the
   open-loop Poisson generator. *)
open Helpers
module Engine = Simkit.Engine
module Timeline = Obs.Timeline
module Poisson = Netsim.Poisson

(* A timeline over the single gauge "g", sampled every simulated
   second. *)
let sample_gauge e ?until gauge =
  let reg = Obs.Registry.create () in
  Obs.Registry.gauge reg "g" gauge;
  Timeline.attach reg e ~every_s:1.0 ?until ()

let points tl =
  List.map
    (fun (s : Timeline.snapshot) -> (s.at, List.assoc "g" s.values))
    (Timeline.snapshots tl)

let values_between tl ~lo ~hi =
  List.filter_map
    (fun (t, v) -> if t >= lo && t <= hi then Some v else None)
    (points tl)

let test_sampler_records_gauge () =
  let e = Engine.create () in
  let value = ref 1.0 in
  let tl = sample_gauge e (fun () -> !value) in
  ignore (Engine.schedule e ~delay:4.5 (fun () -> value := 2.0));
  Engine.run ~until:10.0 e;
  Timeline.stop tl;
  let early = values_between tl ~lo:0.0 ~hi:4.0 in
  let late = values_between tl ~lo:5.0 ~hi:10.0 in
  check_true "early all 1.0" (List.for_all (fun v -> v = 1.0) early);
  check_true "late all 2.0" (List.for_all (fun v -> v = 2.0) late);
  check_int "5 early samples" 5 (List.length early);
  let taken = List.length (Timeline.snapshots tl) in
  Engine.run ~until:20.0 e;
  check_int "stopped" taken (List.length (Timeline.snapshots tl))

let test_sampler_mean () =
  let e = Engine.create () in
  let tl = sample_gauge e ~until:4.0 (fun () -> Engine.now e) in
  (* [until] bounds the re-arming, so even an unbounded run drains. *)
  Engine.run e;
  let times = List.map fst (points tl) in
  Alcotest.(check (list (float 1e-9)))
    "samples at 0..4" [ 0.0; 1.0; 2.0; 3.0; 4.0 ] times;
  let values = List.map snd (points tl) in
  check_float ~eps:1e-9 "mean" 2.0
    (List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values))

let test_sampler_stop_halts () =
  let e = Engine.create () in
  let count = ref 0 in
  let tl = sample_gauge e (fun () -> incr count; 0.0) in
  ignore (Engine.schedule e ~delay:3.5 (fun () -> Timeline.stop tl));
  Engine.run e;
  (* Engine drains because the timeline stops re-arming. *)
  check_int "four gauge reads" 4 !count

let test_poisson_rate () =
  let e = Engine.create () in
  let rng = Simkit.Rng.create 7 in
  let gen =
    Poisson.create e ~rate_per_s:50.0 ~rng ~request:(fun k -> k true) ()
  in
  Poisson.start gen;
  ignore (Engine.schedule e ~delay:100.0 (fun () -> Poisson.stop gen));
  Engine.run ~until:101.0 e;
  (* ~5000 arrivals expected. *)
  check_in_band "arrival count" ~lo:4600.0 ~hi:5400.0
    (float_of_int (Poisson.offered gen));
  check_int "all succeeded" (Poisson.offered gen) (Poisson.succeeded gen);
  check_float "no loss" 0.0 (Poisson.loss_ratio gen)

let test_poisson_counts_losses_during_outage () =
  let e = Engine.create () in
  let rng = Simkit.Rng.create 11 in
  let up = ref true in
  let gen =
    Poisson.create e ~rate_per_s:20.0 ~rng ~request:(fun k -> k !up) ()
  in
  Poisson.start gen;
  ignore (Engine.schedule e ~delay:50.0 (fun () -> up := false));
  ignore (Engine.schedule e ~delay:92.0 (fun () -> up := true));
  ignore (Engine.schedule e ~delay:150.0 (fun () -> Poisson.stop gen));
  Engine.run ~until:151.0 e;
  (* A 42 s outage at 20 req/s loses ~840 requests. *)
  check_in_band "lost during outage" ~lo:700.0 ~hi:1000.0
    (float_of_int (Poisson.lost gen));
  check_int "losses localized to the window"
    (Poisson.lost gen)
    (Poisson.lost_between gen ~lo:50.0 ~hi:92.0);
  check_in_band "loss ratio ~28%" ~lo:0.2 ~hi:0.36 (Poisson.loss_ratio gen)

let test_poisson_open_loop_independence () =
  (* Open loop: the arrival count does not depend on response latency. *)
  let count_with latency =
    let e = Engine.create () in
    let rng = Simkit.Rng.create 13 in
    let gen =
      Poisson.create e ~rate_per_s:10.0 ~rng
        ~request:(fun k ->
          ignore (Engine.schedule e ~delay:latency (fun () -> k true)))
        ()
    in
    Poisson.start gen;
    ignore (Engine.schedule e ~delay:100.0 (fun () -> Poisson.stop gen));
    Engine.run ~until:102.0 e;
    Poisson.offered gen
  in
  check_int "same offered load" (count_with 0.001) (count_with 2.0)

let suite =
  ( "workloads",
    [
      Alcotest.test_case "sampler records gauge" `Quick
        test_sampler_records_gauge;
      Alcotest.test_case "sampler mean" `Quick test_sampler_mean;
      Alcotest.test_case "sampler stop" `Quick test_sampler_stop_halts;
      Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
      Alcotest.test_case "poisson losses in outage" `Quick
        test_poisson_counts_losses_during_outage;
      Alcotest.test_case "poisson open loop" `Quick
        test_poisson_open_loop_independence;
    ] )
