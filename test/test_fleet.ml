(* The fleet control plane: wave planning, the SLO admission guard
   (as a QCheck law), migrate-then-reboot waves, determinism of the
   fleet_rolling experiment output, and the measured Figure 9 cluster
   run as a width-1 fleet. *)
open Helpers
module Fleet = Rejuv.Fleet
module Wave = Rejuv.Wave
module Strategy = Rejuv.Strategy

(* --- Wave.plan ----------------------------------------------------------- *)

let test_plan_partitions_consecutively () =
  let p = Wave.plan_exn ~hosts:10 ~width:3 ~slo:0.5 in
  check_int "floor = ceil(0.5 * 10)" 5 p.Wave.slo_floor;
  check_int "width kept (below slack)" 3 p.Wave.width;
  Alcotest.(check (list (list int)))
    "consecutive waves"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ]; [ 9 ] ]
    p.Wave.waves;
  Alcotest.(check (list int))
    "covers every host exactly once"
    (List.init 10 Fun.id)
    (List.concat p.Wave.waves)

let test_plan_clamps_width_to_slack () =
  let p = Wave.plan_exn ~hosts:10 ~width:8 ~slo:0.7 in
  check_int "floor" 7 p.Wave.slo_floor;
  check_int "width clamped to hosts - floor" 3 p.Wave.width;
  check_true "no wave exceeds the clamp"
    (List.for_all (fun w -> List.length w <= 3) p.Wave.waves)

let test_plan_rejects_impossible_inputs () =
  let err ~hosts ~width ~slo =
    match Wave.plan ~hosts ~width ~slo with
    | Error (`Msg _) -> true
    | Ok _ -> false
  in
  check_true "no hosts" (err ~hosts:0 ~width:2 ~slo:0.5);
  check_true "no width" (err ~hosts:8 ~width:0 ~slo:0.5);
  check_true "no slack: every host needed" (err ~hosts:8 ~width:2 ~slo:1.0)

(* --- the control plane --------------------------------------------------- *)

let test_create_rejects_impossible_plan () =
  (* 0.7 of 3 hosts needs all 3 healthy: no slack for any wave. The
     plan is the user's input, checked before a single host is built or
     booted. *)
  let before = Simkit.Engine.domain_events_processed () in
  (match Fleet.create { Fleet.Config.default with hosts = 3; slo = 0.7 } with
  | _ -> Alcotest.fail "created a fleet with no SLO slack"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun load_rate_per_s ->
      match Fleet.create { Fleet.Config.default with load_rate_per_s } with
      | _ -> Alcotest.failf "created a fleet under load %g" load_rate_per_s
      | exception Invalid_argument _ -> ())
    [ -1.0; Float.nan; Float.infinity ];
  check_int "no event ran" before (Simkit.Engine.domain_events_processed ())

let test_check_strategy_before_boot () =
  (* Migrate waves funnel through the one spare: a partitioned migrate
     plan is refused before a fleet is built, and again by [run]. *)
  let cfg = { Fleet.Config.default with hosts = 8; partitions = 2 } in
  let before = Simkit.Engine.domain_events_processed () in
  (match Fleet.check_strategy cfg Wave.Migrate with
  | () -> Alcotest.fail "accepted a partitioned migrate plan"
  | exception Invalid_argument _ -> ());
  Fleet.check_strategy cfg (Wave.Reboot Strategy.Warm);
  Fleet.check_strategy { cfg with partitions = 1 } Wave.Migrate;
  Fleet.check_strategy { cfg with hosts = 1 } Wave.Migrate;
  check_int "no event ran" before (Simkit.Engine.domain_events_processed ());
  let f = Fleet.create { cfg with hosts = 4; slo = 0.5 } in
  match Fleet.run f ~strategy:Wave.Migrate with
  | _ -> Alcotest.fail "ran a partitioned migrate plan"
  | exception Invalid_argument _ -> ()

let small_fleet ?(hosts = 6) ?(wave_width = 2) ?(slo = 0.5) ?(seed = 42) () =
  let f =
    Fleet.create
      {
        Fleet.Config.default with
        hosts;
        wave_width;
        slo;
        host = { Rejuv.Scenario.Config.default with seed };
        load_rate_per_s = 20.0;
        gap_s = 2.0;
        sample_interval_s = 2.0;
      }
  in
  Fleet.start f;
  f

let test_warm_pass_meets_slo_and_recovers () =
  let f = small_fleet () in
  let r = Fleet.run f ~strategy:(Wave.Reboot Strategy.Warm) in
  check_true "SLO met" r.Fleet.slo_met;
  check_true "no host skipped" (r.Fleet.skipped = []);
  check_int "all hosts rejuvenated" 6
    (List.length (List.concat_map (fun w -> w.Fleet.wave_hosts) r.Fleet.waves));
  check_int "fleet healthy after" 6 (Fleet.healthy_hosts f);
  check_true "some load served" (r.Fleet.offered > 100)

let test_migrate_waves_lose_no_capacity_headroom () =
  (* Migrating the guests away before the reboot keeps each host's VMs
     reachable; the pass still honours the floor and hosts come back. *)
  let f = small_fleet ~hosts:4 ~wave_width:1 () in
  let r = Fleet.run f ~strategy:Wave.Migrate in
  check_true "SLO met" r.Fleet.slo_met;
  check_true "nothing skipped" (r.Fleet.skipped = []);
  check_int "fleet healthy after" 4 (Fleet.healthy_hosts f)

(* QCheck law: whatever the (hosts, width, slo) cell, the admission
   guard never lets observed healthy capacity fall below the floor. *)
let qcheck_slo_guard =
  qtest ~count:6 "admission guard holds the SLO floor"
    QCheck.(
      triple (int_range 5 10) (int_range 1 4)
        (map (fun k -> 0.5 +. (0.1 *. float_of_int k)) (int_range 0 3)))
    (fun (hosts, width, slo) ->
      match Wave.plan ~hosts ~width ~slo with
      | Error _ -> QCheck.assume_fail () (* no slack: nothing to run *)
      | Ok _ ->
        let f = small_fleet ~hosts ~wave_width:width ~slo () in
        let r = Fleet.run f ~strategy:(Wave.Reboot Strategy.Warm) in
        r.Fleet.min_healthy >= r.Fleet.slo_floor)

(* [Experiment.fleet_cell]'s fleet, optionally with blind dispatch
   (which the registered cell does not expose). *)
let cell_report ?(blind = false) ?(load_rate_per_s = 50.0) ~mode ~seed
    ~strategy ~partitions () =
  let traffic = { Netsim.Fluid.default_config with Netsim.Fluid.mode } in
  if not blind then
    Rejuv.Experiment.fleet_cell ~traffic ~partitions ~load_rate_per_s ~seed
      ~hosts:10 ~width:3 ~slo:0.7 ~strategy ()
  else begin
    let f =
      Fleet.create
        {
          Fleet.Config.default with
          hosts = 10;
          wave_width = 3;
          slo = 0.7;
          host = { Rejuv.Scenario.Config.default with seed; traffic };
          load_rate_per_s;
          partitions;
          blind_dispatch = true;
        }
    in
    Fleet.start f;
    Fleet.run f ~strategy
  end

let test_zero_load_completes () =
  (* With nothing offered the engine idles through every inter-wave
     gap; that is waiting, not a stall. Per-request builds no Poisson
     stream at rate 0. *)
  List.iter
    (fun (mode, blind, partitions) ->
      let r =
        cell_report ~blind ~load_rate_per_s:0.0 ~mode ~seed:42
          ~strategy:(Wave.Reboot Strategy.Warm) ~partitions ()
      in
      let tag =
        Printf.sprintf "%s blind=%b p=%d" (Netsim.Fluid.mode_name mode) blind
          partitions
      in
      check_int (tag ^ ": offered") 0 r.Fleet.offered;
      check_int (tag ^ ": lost") 0 r.Fleet.lost;
      check_true (tag ^ ": SLO met") r.Fleet.slo_met;
      check_true (tag ^ ": nothing skipped") (r.Fleet.skipped = []))
    (List.concat_map
       (fun mode ->
         List.concat_map
           (fun blind -> [ (mode, blind, 1); (mode, blind, 2) ])
           [ false; true ])
       Netsim.Fluid.[ Per_request; Fluid; Hybrid ])

(* Report JSON of fleet cells carrying bulk fluid streams, recorded
   with the engine-ticked Fluid.Open (one event per host per 0.1 s
   epoch, polling host health) before the change-driven stream
   replaced it. One line per cell:
   "<mode> seed=<s> blind=<b> <strategy> p=<partitions> <json>". *)
let test_fleet_open_goldens () =
  let lines =
    In_channel.with_open_text "golden/fleet_open.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "golden cells" 40 (List.length lines);
  List.iter
    (fun line ->
      Scanf.sscanf line "%s seed=%d blind=%B %s p=%d %s"
        (fun mode seed blind strategy partitions golden ->
          let mode =
            match Simkit.Enum.of_string Netsim.Fluid.mode_enum mode with
            | Ok m -> m
            | Error (`Msg m) -> Alcotest.fail m
          in
          let strategy =
            match Simkit.Enum.of_string Wave.strategy_enum strategy with
            | Ok s -> s
            | Error (`Msg m) -> Alcotest.fail m
          in
          Alcotest.(check string)
            (String.sub line 0 (String.index line '{'))
            golden
            (Rejuv.Experiment.Result.to_json
               (Rejuv.Experiment.Result.Fleet
                  [ cell_report ~blind ~mode ~seed ~strategy ~partitions () ]))))
    lines

(* --- determinism --------------------------------------------------------- *)

let fleet_json () =
  let r =
    Rejuv.Experiment.fleet_cell ~seed:7 ~hosts:8 ~width:3 ~slo:0.6
      ~strategy:(Wave.Reboot Strategy.Warm) ()
  in
  Rejuv.Experiment.Result.to_json (Rejuv.Experiment.Result.Fleet [ r ])

let test_same_seed_same_json () =
  let a = fleet_json () and b = fleet_json () in
  Alcotest.(check string) "byte-identical reports" a b;
  check_true "non-trivial payload" (String.length a > 100)

(* --- the measured Figure 9 cluster -------------------------------------- *)

(* 4 hosts x 3 VMs under 100 req/s, rolled one host at a time (a 0.75
   SLO leaves a slack of one) with 20 s between hosts. Each pass runs
   once and is shared by the cases that read it. *)
let cluster_hosts = 4

let cluster_fleet ~blind_dispatch =
  Fleet.create
    {
      Fleet.Config.default with
      hosts = cluster_hosts;
      host = Rejuv.Scenario.Config.(default |> with_vms 3);
      wave_width = 1;
      slo = 0.75;
      gap_s = 20.0;
      load_rate_per_s = 100.0;
      blind_dispatch;
    }

let cluster_pass ~blind_dispatch strategy =
  lazy
    (let f = cluster_fleet ~blind_dispatch in
     Fleet.start f;
     let r = Fleet.run f ~strategy:(Wave.Reboot strategy) in
     (r, Fleet.healthy_hosts f))

let blind_warm = cluster_pass ~blind_dispatch:true Strategy.Warm
let blind_cold = cluster_pass ~blind_dispatch:true Strategy.Cold
let aware_warm = cluster_pass ~blind_dispatch:false Strategy.Warm
let aware_cold = cluster_pass ~blind_dispatch:false Strategy.Cold

let test_cluster_start () =
  let f = cluster_fleet ~blind_dispatch:true in
  Fleet.start f;
  check_int "all healthy" cluster_hosts (Fleet.healthy_hosts f)

let test_cluster_aware_serves_everything () =
  (* Health-aware dispatch redirects a rebooting host's requests to the
     three healthy ones, even through long cold outages. *)
  let r, _ = Lazy.force aware_cold in
  check_true "requests flowed" (r.Fleet.offered > 2000);
  check_int "no losses" 0 r.Fleet.lost

let test_cluster_blind_warm () =
  let r, healthy_after = Lazy.force blind_warm in
  check_int "one wave per host" cluster_hosts (List.length r.Fleet.waves);
  List.iter
    (fun w -> check_in_band "per-host procedure" ~lo:40.0 ~hi:75.0
        w.Fleet.wave_makespan_s)
    r.Fleet.waves;
  (* Round-robin: 1/4 of requests hit the down host during its ~57 s
     outage. Over the whole pass the loss ratio stays small. *)
  check_in_band "loss ratio" ~lo:0.05 ~hi:0.35 r.Fleet.loss_ratio;
  check_int "cluster healthy after" cluster_hosts healthy_after

let test_cluster_warm_loses_less_than_cold () =
  let warm, _ = Lazy.force blind_warm in
  let cold, _ = Lazy.force blind_cold in
  check_true "warm loses far fewer requests"
    (float_of_int cold.Fleet.lost > 2.0 *. float_of_int warm.Fleet.lost)

let test_cluster_dips_one_host_at_a_time () =
  let r, healthy_after = Lazy.force blind_warm in
  check_int "dips to m-1, never below" (cluster_hosts - 1) r.Fleet.min_healthy;
  check_int "recovered" cluster_hosts healthy_after

let test_cluster_never_fully_dark () =
  (* Even a rolling cold reboot keeps the cluster serving. *)
  let r, _ = Lazy.force blind_cold in
  check_true "always at least m-1 hosts"
    (r.Fleet.min_healthy >= cluster_hosts - 1)

let test_cluster_aware_beats_blind () =
  let aware, _ = Lazy.force aware_warm in
  let blind, _ = Lazy.force blind_warm in
  check_true "served nearly everything" (aware.Fleet.loss_ratio < 0.01);
  check_true "blind dispatch loses more"
    (float_of_int blind.Fleet.lost
    > 10.0 *. float_of_int (max aware.Fleet.lost 1))

(* The cluster cases keep the suite name and test ids they had when a
   separate cluster simulator ran them. *)
let cluster_suite =
  ( "cluster_sim",
    [
      Alcotest.test_case "start brings hosts up" `Quick test_cluster_start;
      Alcotest.test_case "load served when healthy" `Slow
        test_cluster_aware_serves_everything;
      Alcotest.test_case "rolling warm" `Slow test_cluster_blind_warm;
      Alcotest.test_case "warm loses less than cold" `Slow
        test_cluster_warm_loses_less_than_cold;
      Alcotest.test_case "capacity timeline" `Slow
        test_cluster_dips_one_host_at_a_time;
      Alcotest.test_case "never fully dark" `Slow test_cluster_never_fully_dark;
      Alcotest.test_case "healthy dispatch avoids down hosts" `Slow
        test_cluster_aware_beats_blind;
    ] )

let suite =
  ( "fleet",
    [
      Alcotest.test_case "plan partitions consecutively" `Quick
        test_plan_partitions_consecutively;
      Alcotest.test_case "plan clamps width to slack" `Quick
        test_plan_clamps_width_to_slack;
      Alcotest.test_case "plan rejects impossible inputs" `Quick
        test_plan_rejects_impossible_inputs;
      Alcotest.test_case "create rejects impossible plan" `Quick
        test_create_rejects_impossible_plan;
      Alcotest.test_case "strategy checked before boot" `Quick
        test_check_strategy_before_boot;
      Alcotest.test_case "zero load completes" `Slow test_zero_load_completes;
      Alcotest.test_case "fluid and hybrid reports pinned" `Slow
        test_fleet_open_goldens;
      Alcotest.test_case "warm pass meets SLO" `Slow
        test_warm_pass_meets_slo_and_recovers;
      Alcotest.test_case "migrate waves keep capacity" `Slow
        test_migrate_waves_lose_no_capacity_headroom;
      qcheck_slo_guard;
      Alcotest.test_case "same seed, same JSON" `Slow test_same_seed_same_json;
    ] )
