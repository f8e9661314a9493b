(* Rolling VMM rejuvenation across a load-balanced cluster (Section 6).

   Simulates m hosts of 3 VMs each as a width-1 rolling fleet under a
   blind round-robin 100 req/s load, reboots them one at a time with
   the chosen strategy, and prints the cluster capacity timeline — the
   measured version of Figure 9 — next to the analytic model.

   Run with: dune exec examples/cluster_rolling.exe [m] [warm|saved|cold] *)

let pf = Format.printf

let () =
  let m = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4 in
  let strategy =
    if Array.length Sys.argv > 2 then
      Option.value (Rejuv.Strategy.of_string Sys.argv.(2))
        ~default:Rejuv.Strategy.Warm
    else Rejuv.Strategy.Warm
  in
  pf "Rolling rejuvenation of %d hosts with the %s@.@." m
    (Rejuv.Strategy.name strategy);

  (* An SLO of (m-1)/m leaves a slack of exactly one host, so the
     control plane rolls the hosts one at a time, 20 s apart. *)
  let registry = Obs.reset_ambient () in
  let fleet =
    Rejuv.Fleet.create
      {
        Rejuv.Fleet.Config.default with
        hosts = m;
        host = Rejuv.Scenario.Config.(default |> with_vms 3);
        wave_width = 1;
        slo = float_of_int (m - 1) /. float_of_int m;
        gap_s = 20.0;
        load_rate_per_s = 100.0;
        blind_dispatch = true;
      }
  in
  Rejuv.Fleet.start fleet;
  (* Sample the capacity gauge on shard 0 every 10 s. [until] lies well
     past the slowest (saved) pass; it only matters if the pass wedges,
     since a perpetual sampler would keep the engine from going idle. *)
  let shard0 = Simkit.Par_engine.shard (Rejuv.Fleet.par fleet) 0 in
  let t0 = Simkit.Engine.now shard0 in
  let every_s = 10.0 in
  let timeline =
    Obs.Timeline.attach registry shard0 ~every_s
      ~until:(t0 +. (float_of_int m *. 400.0))
      ()
  in
  let r = Rejuv.Fleet.run fleet ~strategy:(Rejuv.Wave.Reboot strategy) in
  let outages = List.map (fun w -> w.Rejuv.Fleet.wave_makespan_s) r.waves in
  let outage =
    List.fold_left ( +. ) 0.0 outages /. float_of_int (List.length outages)
  in
  pf "per-host outage with 3 VMs: %.1f s; requests lost %d of %d@." outage
    r.lost r.offered;

  pf "@.cluster capacity (healthy hosts of %d):@." m;
  let healthy =
    List.map
      (fun (s : Obs.Timeline.snapshot) ->
        (s.at -. t0, List.assoc "fleet.healthy_hosts" s.values))
      (Obs.Timeline.snapshots timeline)
  in
  let last_v = ref nan in
  List.iter
    (fun (t, v) ->
      if v <> !last_v then begin
        pf "  t=%7.0f s  healthy %3.0f@." t v;
        last_v := v
      end)
    healthy;
  pf "  t=%7.0f s  healthy %3d (pass settled)@."
    (Simkit.Engine.now shard0 -. t0)
    (Rejuv.Fleet.healthy_hosts fleet);
  let measured =
    List.fold_left
      (fun acc (_, v) -> acc +. ((float_of_int m -. v) *. every_s))
      0.0 healthy
  in
  pf "@.measured lost capacity: %.0f host-seconds over %.0f s@." measured
    r.makespan_s;

  (* Compare against the analytic Section 6 model (p = 1 host), with
     the paper's outages and the measured pass's reboot spacing. *)
  let params = Rejuv.Cluster.paper_params ~m ~p:1.0 () in
  let analytic =
    Rejuv.Cluster.rolling_rejuvenation params ~strategy ~start_at:0.0
      ~gap_s:(outage +. 20.0)
  in
  pf "analytic model lost capacity: %.0f host-seconds over %.0f s@."
    (Rejuv.Cluster.lost_capacity params analytic ~horizon_s:r.makespan_s)
    r.makespan_s
