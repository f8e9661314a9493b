(* The hybrid fluid-flow traffic model (Netsim.Fluid): closed-form
   steady state, outage/ramp dynamics, capacity sharing between the
   tracer cohort and the fluid bulk, the Hybrid = Per_request
   equivalence law, pinned experiment JSON per mode and byte-identical
   fleet JSON across partitions, and the O(log n) httperf window
   queries it leans on. *)
open Helpers
module Engine = Simkit.Engine
module Fluid = Netsim.Fluid
module Httperf = Netsim.Httperf
module Experiment = Rejuv.Experiment
module Strategy = Rejuv.Strategy

let contains ~needle haystack =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* --- mode enum ----------------------------------------------------------- *)

let test_mode_enum () =
  check_true "hybrid parses"
    (Simkit.Enum.of_string Fluid.mode_enum "hybrid" = Ok Fluid.Hybrid);
  check_true "per-request parses"
    (Simkit.Enum.of_string Fluid.mode_enum "per-request" = Ok Fluid.Per_request);
  check_true "per_request alias"
    (Simkit.Enum.of_string Fluid.mode_enum "per_request" = Ok Fluid.Per_request);
  Alcotest.(check string) "round-trip" "fluid" (Fluid.mode_name Fluid.Fluid);
  (match Simkit.Enum.of_string Fluid.mode_enum "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus mode accepted");
  check_true "config label"
    (contains ~needle:"clients=7" (Fluid.config_label { Fluid.default_config with Fluid.clients = 7 }))

(* --- httperf window queries (binary search satellites) ------------------- *)

let test_throughput_between_closed_interval () =
  let e = Engine.create () in
  (* One connection, exactly 0.5 s per request: completions at
     0.5, 1.0, ..., 10.0. *)
  let request k = ignore (Engine.schedule e ~delay:0.5 (fun () -> k true)) in
  let load = Httperf.create e ~connections:1 ~request () in
  Httperf.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> Httperf.stop load));
  Engine.run e;
  (* Closed interval: both endpoint completions (1.0 and 3.0) count. *)
  check_float "closed-interval count" 2.5
    (Httperf.throughput_between load ~lo:1.0 ~hi:3.0);
  (* The binary-searched result must equal the Counter's linear scan
     for arbitrary windows. *)
  List.iter
    (fun (lo, hi) ->
      check_float
        (Printf.sprintf "matches Counter.rate_between [%g, %g]" lo hi)
        (Simkit.Series.Counter.rate_between (Httperf.counter load) ~lo ~hi)
        (Httperf.throughput_between load ~lo ~hi))
    [ (0.0, 10.0); (0.4, 0.6); (2.25, 7.75); (9.9, 12.0); (10.5, 11.0) ];
  match Httperf.throughput_between load ~lo:3.0 ~hi:3.0 with
  | _ -> Alcotest.fail "empty interval accepted"
  | exception Invalid_argument _ -> ()

let test_mean_window_edge_behavior () =
  let e = Engine.create () in
  let request k = ignore (Engine.schedule e ~delay:1.0 (fun () -> k true)) in
  let load = Httperf.create e ~connections:1 ~request () in
  (* Contract: an empty generator yields [], never a nan sample. *)
  check_true "empty generator -> []"
    (Httperf.mean_window_throughput load ~every:5 = []);
  Httperf.start load;
  ignore (Engine.schedule e ~delay:12.5 (fun () -> Httperf.stop load));
  Engine.run e;
  (* Completions at 1, 2, ..., 12. Blocks of 5 close at t=5 and t=10;
     the trailing partial block (two completions) is dropped. *)
  (match Httperf.mean_window_throughput load ~every:5 with
  | [ (t1, r1); (t2, r2) ] ->
    check_float "first block closes at its 5th completion" 5.0 t1;
    check_float "first block rate" 1.25 r1;
    check_float "second block closes at t=10" 10.0 t2;
    check_float "second block rate" 1.0 r2
  | l -> Alcotest.failf "expected 2 blocks, got %d" (List.length l));
  match Httperf.mean_window_throughput load ~every:0 with
  | _ -> Alcotest.fail "every=0 accepted"
  | exception Invalid_argument _ -> ()

(* --- fluid core ---------------------------------------------------------- *)

let test_fluid_steady_closed_form () =
  (* 10 flows, 0.15 s think + 0.05 s service: X = 10 / 0.2 = 50 req/s,
     well under the 100 req/s capacity — the closed-loop asymptote,
     exact in the fluid model. *)
  let e = Engine.create () in
  let server =
    Fluid.static_server ~capacity_rps:100.0 ~service_time_s:0.05 ()
  in
  let cfg =
    {
      Fluid.default_config with
      Fluid.mode = Fluid.Fluid;
      clients = 10;
      think_time_s = 0.15;
    }
  in
  let load = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  Fluid.start load;
  Engine.run ~until:20.0 e;
  Fluid.stop load;
  check_float ~eps:1e-6 "X = N / (Z + S)" 50.0
    (Fluid.throughput_between load ~lo:5.0 ~hi:15.0);
  check_in_band "completed ~ X * t" ~lo:950.0 ~hi:1050.0
    (float_of_int (Fluid.completed load));
  check_true "no tracer events in pure fluid" (Fluid.tracer_requests load = 0);
  check_true "no tracer handle" (Fluid.tracer load = None)

let test_fluid_capacity_clamp () =
  let e = Engine.create () in
  let server =
    Fluid.static_server ~capacity_rps:100.0 ~service_time_s:0.05 ()
  in
  let cfg =
    { Fluid.default_config with Fluid.mode = Fluid.Fluid; clients = 1_000_000 }
  in
  let load = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  Fluid.start load;
  Engine.run ~until:20.0 e;
  Fluid.stop load;
  check_float ~eps:1e-6 "capacity bounds a million clients" 100.0
    (Fluid.throughput_between load ~lo:5.0 ~hi:15.0)

let test_fluid_outage_and_ramp () =
  let e = Engine.create () in
  let up = ref true in
  let server =
    Fluid.static_server ~up:(fun () -> !up) ~capacity_rps:1000.0
      ~service_time_s:0.1 ()
  in
  let cfg =
    { Fluid.default_config with Fluid.mode = Fluid.Fluid; clients = 50 }
  in
  let load = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  Fluid.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> up := false));
  ignore (Engine.schedule e ~delay:30.0 (fun () -> up := true));
  ignore
    (Engine.schedule e ~delay:15.0 (fun () ->
         check_float ~eps:1e-6 "whole population backlogged while down" 50.0
           (Fluid.backlog load)));
  Engine.run ~until:60.0 e;
  Fluid.stop load;
  check_in_band "stall spans the outage" ~lo:19.5 ~hi:20.5
    (Fluid.longest_stall_s load);
  (* 50 flows x one attempt per 0.5 s backoff x 20 s down. *)
  check_in_band "failed retries through the outage" ~lo:1900.0 ~hi:2100.0
    (float_of_int (Fluid.failed load));
  check_float ~eps:1e-9 "nothing served while down" 0.0
    (Fluid.throughput_between load ~lo:11.0 ~hi:29.0);
  check_float ~eps:1e-9 "backlog cleared after the ramp" 0.0
    (Fluid.backlog load);
  (* M/G/1-PS latency view is live once traffic flows again. *)
  (match (Fluid.latency_mean_s load, Fluid.latency_quantile_s load ~p:0.99) with
  | Some m, Some q99 -> check_true "p99 above mean" (q99 > m)
  | _ -> Alcotest.fail "expected fluid latency estimates");
  match Fluid.latency_quantile_s load ~p:1.5 with
  | _ -> Alcotest.fail "quantile p outside (0,1) accepted"
  | exception Invalid_argument _ -> ()

let test_hybrid_capacity_shared () =
  (* 2 tracer connections at 0.02 s/request consume ~100 req/s of a
     200 req/s server; the 998 bulk flows must only get the remainder —
     the combined throughput saturates at capacity instead of
     double-counting the shared server. *)
  let e = Engine.create () in
  let request k = ignore (Engine.schedule e ~delay:0.02 (fun () -> k true)) in
  let server =
    Fluid.static_server ~capacity_rps:200.0 ~service_time_s:0.02 ()
  in
  let cfg =
    {
      Fluid.default_config with
      Fluid.mode = Fluid.Hybrid;
      clients = 1000;
      tracers = 2;
    }
  in
  let load = Fluid.create e ~config:cfg ~request ~server () in
  Fluid.start load;
  Engine.run ~until:30.0 e;
  Fluid.stop load;
  check_in_band "tracer + bulk saturate at capacity" ~lo:190.0 ~hi:206.0
    (Fluid.throughput_between load ~lo:5.0 ~hi:25.0);
  check_true "tracer cohort really runs per-request"
    (Fluid.tracer_requests load > 1000);
  check_float ~eps:1e-9 "flows gauge counts the population" 1000.0
    (Fluid.flows load)

(* --- the equivalence law ------------------------------------------------- *)

(* Hybrid with [tracers = clients] leaves the fluid bulk empty, so every
   observable must equal Per_request bit-for-bit — same completions,
   same failures, same windows, same stall — under an outage and
   recovery. *)
let run_mode_for_law mode ~clients ~service_s =
  let e = Engine.create () in
  let up = ref true in
  let request k =
    if !up then ignore (Engine.schedule e ~delay:service_s (fun () -> k true))
    else k false
  in
  let server =
    Fluid.static_server ~up:(fun () -> !up)
      ~capacity_rps:(2.0 *. float_of_int clients /. service_s)
      ~service_time_s:service_s ()
  in
  let cfg =
    { Fluid.default_config with Fluid.mode; clients; tracers = clients }
  in
  let load = Fluid.create e ~config:cfg ~request ~server () in
  Fluid.start load;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> up := false));
  ignore (Engine.schedule e ~delay:17.0 (fun () -> up := true));
  ignore (Engine.schedule e ~delay:40.0 (fun () -> Fluid.stop load));
  Engine.run e;
  ( Fluid.completed load,
    Fluid.failed load,
    Fluid.throughput_between load ~lo:1.0 ~hi:39.0,
    Fluid.mean_window_throughput load ~every:10,
    Fluid.longest_stall_s load )

let qcheck_hybrid_equals_per_request =
  qtest ~count:40 "hybrid = per-request when every flow is a tracer"
    QCheck.(pair (int_range 1 6) (float_range 0.02 0.3))
    (fun (clients, service_s) ->
      run_mode_for_law Fluid.Per_request ~clients ~service_s
      = run_mode_for_law Fluid.Hybrid ~clients ~service_s)

(* --- small-n cross-mode agreement ---------------------------------------- *)

let test_modes_agree_small_n () =
  (* The fig7 shape on a static server: 4 zero-think clients, outage at
     t=30..50. All three modes must agree on steady throughput and
     outage width within 5%. *)
  let run mode =
    let e = Engine.create () in
    let up = ref true in
    let request k =
      if !up then ignore (Engine.schedule e ~delay:0.02 (fun () -> k true))
      else k false
    in
    let server =
      Fluid.static_server ~up:(fun () -> !up) ~capacity_rps:250.0
        ~service_time_s:0.02 ()
    in
    let cfg = { Fluid.default_config with Fluid.mode; clients = 4 } in
    let load = Fluid.create e ~config:cfg ~request ~server () in
    Fluid.start load;
    ignore (Engine.schedule e ~delay:30.0 (fun () -> up := false));
    ignore (Engine.schedule e ~delay:50.0 (fun () -> up := true));
    ignore (Engine.schedule e ~delay:80.0 (fun () -> Fluid.stop load));
    Engine.run e;
    (Fluid.throughput_between load ~lo:5.0 ~hi:25.0, Fluid.longest_stall_s load)
  in
  let x_pr, o_pr = run Fluid.Per_request in
  let x_fl, o_fl = run Fluid.Fluid in
  let x_hy, o_hy = run Fluid.Hybrid in
  check_close ~tolerance:0.05 "fluid steady = per-request" x_pr x_fl;
  check_close ~tolerance:0.05 "hybrid steady = per-request" x_pr x_hy;
  check_close ~tolerance:0.05 "fluid outage = per-request" o_pr o_fl;
  check_close ~tolerance:0.05 "hybrid outage = per-request" o_pr o_hy

(* --- open-loop dispatcher stream ----------------------------------------- *)

let test_open_stream_loss_accounting () =
  let e = Engine.create () in
  let s = Fluid.Open.create e ~rate_per_s:100.0 () in
  Fluid.Open.start s;
  ignore (Engine.schedule e ~delay:10.0 (fun () -> Fluid.Open.set_served s 0.0));
  ignore (Engine.schedule e ~delay:20.05 (fun () -> Fluid.Open.stop s));
  Engine.run e;
  check_int "offered = rate x horizon" 2000 (Fluid.Open.offered s);
  check_int "lost only while unserved" 1000 (Fluid.Open.lost s);
  check_float ~eps:1e-9 "loss ratio" 0.5 (Fluid.Open.loss_ratio s);
  check_int "no engine event of its own" 2 (Engine.events_processed e);
  match Fluid.Open.create e ~rate_per_s:(-1.0) () with
  | _ -> Alcotest.fail "negative rate accepted"
  | exception Invalid_argument _ -> ()

(* The change-driven stream against the engine-ticked oracle it
   replaced, under random push schedules: pushes come either from the
   coordinator at a barrier (the engine has run every event strictly
   before it, as Par_engine does before [on_quantum]) or from an event
   queued at that barrier — so a tick due at the same instant was
   queued first and fires first, as in a fleet. Push and stop times are
   random or exactly on a virtual tick; served fractions are 0, 1,
   fractional or out of range. Both integrals must agree to the bit. *)
module Oracle = Fluid_open_oracle

type push_from = Barrier | Event

type open_schedule = {
  rate : float;
  epoch : float;
  start_at : float;
  initial : float;
  pushes : (float * push_from * float) list;  (* time order *)
  stop_at : float * push_from;
}

let gen_open_schedule =
  let open QCheck.Gen in
  let* rate =
    oneof
      [ oneofl [ 0.0; 5.0; 50.0; 100.0; 12.5; 1.0 /. 3.0 ]; float_range 0.01 500.0 ]
  in
  let* epoch =
    oneof [ oneofl [ 0.1; 0.05; 0.25; 0.3; 1.0 ]; float_range 0.01 2.0 ]
  in
  let* start_at = oneof [ return 0.0; float_range 0.0 5.0 ] in
  let* span = int_range 0 400 in
  (* The oracle's tick times: start + epoch, then + epoch each. *)
  let ticks = Array.make (span + 2) 0.0 in
  let t = ref start_at in
  for i = 0 to span + 1 do
    t := !t +. epoch;
    ticks.(i) <- !t
  done;
  let time =
    oneof
      [
        map (fun i -> ticks.(i)) (int_range 0 (span + 1));
        float_range start_at ticks.(span + 1);
      ]
  in
  let value = oneof [ oneofl [ 0.0; 1.0; 0.5; 1.5; -0.25 ]; float_range 0.0 1.0 ] in
  let from = oneofl [ Barrier; Event ] in
  let* initial = value in
  let* pushes = list_size (int_range 0 12) (triple time from value) in
  let pushes = List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) pushes in
  let* stop_time, stop_from = pair time from in
  let last = List.fold_left (fun acc (t, _, _) -> Float.max acc t) start_at pushes in
  return
    {
      rate;
      epoch;
      start_at;
      initial;
      pushes;
      stop_at = (Float.max stop_time last, stop_from);
    }

let print_open_schedule s =
  let from = function Barrier -> "barrier" | Event -> "event" in
  Printf.sprintf "rate %h epoch %h start %h initial %h pushes [%s] stop %h (%s)"
    s.rate s.epoch s.start_at s.initial
    (String.concat "; "
       (List.map (fun (t, f, v) -> Printf.sprintf "%h %s %h" t (from f) v) s.pushes))
    (fst s.stop_at) (from (snd s.stop_at))

let run_open_schedule s =
  let e = Engine.create () in
  Engine.run ~until:s.start_at e;
  let served = ref s.initial in
  let oracle =
    Oracle.create e ~rate_per_s:s.rate ~epoch_s:s.epoch ~served_fraction:(fun () ->
        !served)
  in
  let stream =
    Fluid.Open.create e ~rate_per_s:s.rate ~epoch_s:s.epoch
      ~served_fraction:(fun () -> s.initial)
      ()
  in
  Oracle.start oracle;
  Fluid.Open.start stream;
  List.iter
    (fun (at, from, x) ->
      Engine.run_before e ~bound:at;
      match from with
      | Barrier ->
        served := x;
        Fluid.Open.set_served stream ~from:at x
      | Event ->
        ignore
          (Engine.schedule_at e ~time:at (fun () ->
               served := x;
               Fluid.Open.set_served stream x)))
    s.pushes;
  (match s.stop_at with
  | at, Barrier ->
    Engine.run_before e ~bound:(Float.succ at);
    Oracle.stop oracle;
    Fluid.Open.stop ~until:at stream
  | at, Event ->
    Engine.run_before e ~bound:at;
    ignore
      (Engine.schedule_at e ~time:at (fun () ->
           Oracle.stop oracle;
           Fluid.Open.stop stream)));
  Engine.run e;
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  same (Oracle.offered_load oracle) (Fluid.Open.offered_load stream)
  && same (Oracle.lost_load oracle) (Fluid.Open.lost_load stream)

let qcheck_open_matches_oracle =
  qtest ~count:500 "change-driven open stream = ticking oracle, bit for bit"
    (QCheck.make ~print:print_open_schedule gen_open_schedule)
    run_open_schedule

(* --- validation ----------------------------------------------------------- *)

let test_create_validation () =
  let e = Engine.create () in
  let server = Fluid.static_server ~capacity_rps:10.0 ~service_time_s:0.1 () in
  let mk cfg = Fluid.create e ~config:cfg ~request:(fun k -> k false) ~server () in
  let rejects name cfg =
    match mk cfg with
    | _ -> Alcotest.fail (name ^ " accepted")
    | exception Invalid_argument _ -> ()
  in
  rejects "clients = 0" { Fluid.default_config with Fluid.clients = 0 };
  rejects "epoch <= 0" { Fluid.default_config with Fluid.epoch_s = 0.0 };
  rejects "backoff <= 0" { Fluid.default_config with Fluid.retry_backoff_s = 0.0 };
  rejects "negative think" { Fluid.default_config with Fluid.think_time_s = -1.0 };
  rejects "hybrid tracers > clients"
    { Fluid.default_config with Fluid.mode = Fluid.Hybrid; clients = 2; tracers = 3 }

(* --- obs gauges ----------------------------------------------------------- *)

let test_traffic_gauges () =
  let e = Engine.create () in
  let request k = ignore (Engine.schedule e ~delay:0.1 (fun () -> k true)) in
  let server = Fluid.static_server ~capacity_rps:100.0 ~service_time_s:0.1 () in
  let cfg =
    {
      Fluid.default_config with
      Fluid.mode = Fluid.Hybrid;
      clients = 100;
      tracers = 2;
    }
  in
  let load = Fluid.create e ~name:"web" ~config:cfg ~request ~server () in
  let reg = Obs.Registry.create () in
  Fluid.observe reg load;
  Fluid.start load;
  Engine.run ~until:10.0 e;
  Fluid.stop load;
  let json = Obs.Export.to_json ~now:10.0 reg in
  List.iter
    (fun g ->
      check_true ("gauge " ^ g)
        (contains ~needle:("netsim.traffic.web." ^ g) json))
    [ "flows"; "offered_rps"; "backlog"; "tracer_requests" ];
  match Obs.Registry.find reg "netsim.traffic.web.flows" with
  | Some (Obs.Registry.Gauge g) ->
    check_float "flows gauge reads the population" 100.0
      (Obs.Metric.gauge_value g)
  | _ -> Alcotest.fail "flows gauge missing from registry"

(* --- golden experiment JSON ----------------------------------------------- *)

(* Every traffic mode's elastic_traffic cell reproduces its pinned
   Result JSON byte for byte, so a change of behaviour in any layer the
   cell runs through — engine, fluid model, httperf — shows up here. *)
let test_traffic_cell_golden_modes () =
  List.iter
    (fun (mode, golden) ->
      Alcotest.(check string)
        (Fluid.mode_name mode ^ ": pinned bytes")
        golden
        (Experiment.Result.to_json
           (Experiment.Result.Traffic
              [ Experiment.run_traffic_cell ~seed:7 (mode, 200, Strategy.Warm) ])))
    [
      ( Fluid.Per_request,
        {|{"kind":"traffic","data":[{"traffic":"per-request","clients":200,"strategy":"warm","steady_rps":240,"outage_s":45.8623206034,"completed":17600,"failed":17000,"tracer_requests":34600}]}|}
      );
      ( Fluid.Fluid,
        {|{"kind":"traffic","data":[{"traffic":"fluid","clients":200,"strategy":"warm","steady_rps":238.418579102,"outage_s":42.7,"completed":17488,"failed":17080,"tracer_requests":0}]}|}
      );
      ( Fluid.Hybrid,
        {|{"kind":"traffic","data":[{"traffic":"hybrid","clients":200,"strategy":"warm","steady_rps":239.399060059,"outage_s":42.7,"completed":17681,"failed":17082,"tracer_requests":16808}]}|}
      );
    ]

(* A fleet cell carrying fluid/hybrid host traffic stays byte-identical
   across partition counts — the partitioned-time invariant extends to
   the new flow streams (which draw no RNG). *)
let test_fleet_traffic_golden_partitions () =
  let cell ~mode ~partitions () =
    Experiment.Result.to_json
      (Experiment.Result.Fleet
         [
           Experiment.fleet_cell
             ~traffic:{ Fluid.default_config with Fluid.mode }
             ~partitions ~load_rate_per_s:20.0 ~seed:11 ~hosts:6 ~width:2
             ~slo:0.5
             ~strategy:(Rejuv.Wave.Reboot Strategy.Warm)
             ();
         ])
  in
  List.iter
    (fun mode ->
      let tag = Fluid.mode_name mode in
      let one = cell ~mode ~partitions:1 () in
      check_true (tag ^ ": non-trivial payload") (String.length one > 100);
      Alcotest.(check string)
        (tag ^ ": partitions 1 = 2")
        one
        (cell ~mode ~partitions:2 ());
      Alcotest.(check string)
        (tag ^ ": partitions 1 = 4")
        one
        (cell ~mode ~partitions:4 ()))
    [ Fluid.Fluid; Fluid.Hybrid ]

let suite =
  ( "traffic",
    [
      Alcotest.test_case "mode enum round-trips" `Quick test_mode_enum;
      Alcotest.test_case "httperf throughput_between is closed-interval"
        `Quick test_throughput_between_closed_interval;
      Alcotest.test_case "httperf mean_window edge behavior" `Quick
        test_mean_window_edge_behavior;
      Alcotest.test_case "fluid steady state matches closed form" `Quick
        test_fluid_steady_closed_form;
      Alcotest.test_case "capacity clamps a million clients" `Quick
        test_fluid_capacity_clamp;
      Alcotest.test_case "fluid outage, retries and recovery ramp" `Quick
        test_fluid_outage_and_ramp;
      Alcotest.test_case "hybrid shares capacity with the tracer" `Quick
        test_hybrid_capacity_shared;
      qcheck_hybrid_equals_per_request;
      Alcotest.test_case "all modes agree at small n" `Slow
        test_modes_agree_small_n;
      Alcotest.test_case "open stream loss accounting" `Quick
        test_open_stream_loss_accounting;
      qcheck_open_matches_oracle;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "traffic gauges registered" `Quick
        test_traffic_gauges;
      Alcotest.test_case "elastic_traffic golden across modes" `Slow
        test_traffic_cell_golden_modes;
      Alcotest.test_case "fleet traffic golden across partitions" `Slow
        test_fleet_traffic_golden_partitions;
    ] )
