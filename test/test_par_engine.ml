(* The conservative coordinator: lookahead/barrier protocol unit
   tests, partition-count invariance as a QCheck law, and the golden
   byte-identity of the fleet_rolling grid across partition counts. *)
open Helpers
module Par = Simkit.Par_engine
module Engine = Simkit.Engine
module Fault = Simkit.Fault
module Wave = Rejuv.Wave
module Strategy = Rejuv.Strategy

let invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let faults f =
  match f () with
  | exception Fault.Error (Fault.Invariant _) -> true
  | _ -> false

(* --- construction and channel registration ------------------------------- *)

let test_create_and_connect_validation () =
  check_true "shards must be >= 1" (invalid (fun () -> Par.create ~shards:0 ()));
  check_true "quantum must be positive"
    (invalid (fun () -> Par.create ~quantum:0.0 ~shards:2 ()));
  let p = Par.create ~shards:3 () in
  check_int "shard count" 3 (Par.shards p);
  check_true "self loop rejected"
    (invalid (fun () -> Par.connect p ~src:1 ~dst:1 ~lookahead:1.0));
  check_true "zero lookahead rejected"
    (invalid (fun () -> Par.connect p ~src:0 ~dst:1 ~lookahead:0.0));
  check_true "unconnected pair has no lookahead"
    (Par.lookahead p ~src:0 ~dst:1 = None);
  Par.connect p ~src:0 ~dst:1 ~lookahead:2.0;
  Par.connect p ~src:0 ~dst:1 ~lookahead:0.5;
  Par.connect p ~src:0 ~dst:1 ~lookahead:1.5;
  check_true "repeated connects keep the minimum"
    (Par.lookahead p ~src:0 ~dst:1 = Some 0.5);
  check_true "direction matters" (Par.lookahead p ~src:1 ~dst:0 = None);
  check_true "min lookahead exported"
    ((Par.stats p).Par.par_min_lookahead_s = 0.5)

let test_send_respects_lookahead () =
  let p = Par.create ~shards:2 () in
  Par.connect p ~src:0 ~dst:1 ~lookahead:1.0;
  check_true "under-lookahead send faults"
    (faults (fun () -> Par.send p ~src:0 ~dst:1 ~time:0.5 ignore));
  check_true "unconnected pair faults"
    (faults (fun () -> Par.send p ~src:1 ~dst:0 ~time:10.0 ignore));
  let hit = Atomic.make false in
  Par.send p ~src:0 ~dst:1 ~time:1.0 (fun () -> Atomic.set hit true);
  Par.run p;
  check_true "exactly-at-lookahead send delivers" (Atomic.get hit);
  check_true "channels drained" (Par.idle p);
  check_int "message counted" 1 (Par.stats p).Par.par_messages

(* Cross-shard deliveries merge in (time, sender shard, channel
   sequence) order — never arrival order. All four events land on
   shard 0, which runs inline on this (the coordinator's) domain, so a
   plain ref records the execution order race-free. *)
let test_merge_order_is_deterministic () =
  let p = Par.create ~shards:3 () in
  Par.connect p ~src:1 ~dst:0 ~lookahead:0.5;
  Par.connect p ~src:2 ~dst:0 ~lookahead:0.5;
  let order = ref [] in
  let tag s () = order := s :: !order in
  Par.send p ~src:2 ~dst:0 ~time:1.0 (tag "src2");
  Par.send p ~src:1 ~dst:0 ~time:1.0 (tag "src1-first");
  Par.send p ~src:1 ~dst:0 ~time:1.0 (tag "src1-second");
  Par.send p ~src:2 ~dst:0 ~time:0.8 (tag "earliest");
  Par.run p;
  Alcotest.(check (list string))
    "(time, src shard, sequence) order"
    [ "earliest"; "src1-first"; "src1-second"; "src2" ]
    (List.rev !order)

(* The protocol guarantee itself: a shard never executes an event
   earlier than a neighbor's unsent message could arrive. Shard 0
   sends at t = 6 from an event at t = 5; shard 1 — kept busy with a
   dense local schedule that would race far past 6 if it were ever
   released beyond its lower bound — must observe the message's effect
   from its own t = 6.5 event. *)
let test_no_shard_outruns_a_neighbors_message () =
  let p = Par.create ~shards:2 () in
  Par.connect p ~src:0 ~dst:1 ~lookahead:1.0;
  let flag = Atomic.make false and saw = Atomic.make false in
  ignore
    (Engine.schedule_at (Par.shard p 0) ~time:5.0 (fun () ->
         Par.send p ~src:0 ~dst:1 ~time:6.0 (fun () -> Atomic.set flag true)));
  for i = 0 to 19 do
    ignore
      (Engine.schedule_at (Par.shard p 1)
         ~time:((0.5 *. float_of_int i) +. 0.25)
         ignore)
  done;
  ignore
    (Engine.schedule_at (Par.shard p 1) ~time:6.5 (fun () ->
         Atomic.set saw (Atomic.get flag)));
  Par.run p;
  check_true "message delivered" (Atomic.get flag);
  check_true "shard 1's t=6.5 event ran after the t=6 message"
    (Atomic.get saw);
  let s = Par.stats p in
  check_true "took multiple barrier rounds" (s.Par.par_rounds > 1)

let test_quantum_grid_is_absolute_and_persistent () =
  let p = Par.create ~quantum:1.0 ~shards:2 () in
  Par.connect p ~src:0 ~dst:1 ~lookahead:0.25;
  ignore (Engine.schedule_at (Par.shard p 0) ~time:2.5 ignore);
  let qs = ref [] in
  let tick stop_at q =
    qs := q :: !qs;
    if q >= stop_at then `Stop else `Continue
  in
  Par.run p ~on_quantum:(tick 3.0);
  Alcotest.(check (list (float 1e-9)))
    "barriers on the absolute grid" [ 1.0; 2.0; 3.0 ] (List.rev !qs);
  check_int "ticks counted" 3 (Par.stats p).Par.par_quantum_ticks;
  (* A later run call continues the same grid — it never restarts. *)
  qs := [];
  ignore (Engine.schedule_at (Par.shard p 0) ~time:4.2 ignore);
  Par.run p ~on_quantum:(tick 5.0);
  Alcotest.(check (list (float 1e-9)))
    "grid persists across run calls" [ 4.0; 5.0 ] (List.rev !qs);
  check_true "last_quantum tracks the grid" (Par.last_quantum p = 5.0)

let test_until_is_inclusive_and_leaves_the_future () =
  let p = Par.create ~shards:2 () in
  Par.connect p ~src:0 ~dst:1 ~lookahead:0.25;
  let ran = Array.make 3 false in
  let e = Par.shard p 0 in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> ran.(0) <- true));
  ignore (Engine.schedule_at e ~time:2.0 (fun () -> ran.(1) <- true));
  ignore (Engine.schedule_at e ~time:3.0 (fun () -> ran.(2) <- true));
  Par.run p ~until:2.0;
  check_true "below until ran" ran.(0);
  check_true "exactly at until ran (inclusive)" ran.(1);
  check_true "beyond until still pending" (not ran.(2));
  check_true "not idle: the future remains" (not (Par.idle p));
  Par.run p;
  check_true "finished on the unbounded run" (ran.(2) && Par.idle p)

let test_cross_link_delivers_and_rejects_round_trips () =
  let p = Par.create ~shards:2 () in
  let l =
    Netsim.Link.create_cross p ~src:0 ~dst:1 ~latency_ms:10.0 ~gbit_per_s:1.0
      ()
  in
  check_true "latency registered as the pair's lookahead"
    (Par.lookahead p ~src:0 ~dst:1 = Some (Netsim.Link.latency_s l));
  let done_at = Atomic.make nan in
  Netsim.Link.send l ~bytes:125_000 (fun () ->
      Atomic.set done_at (Engine.now (Par.shard p 1)));
  Par.run p;
  (* 125 kB over 1 Gbit/s = 1 ms of wire, plus 10 ms of flight. *)
  Alcotest.(check (float 1e-6))
    "arrives at wire-exit + latency" 0.011 (Atomic.get done_at);
  check_true "round_trip is local-only"
    (invalid (fun () ->
         Netsim.Link.round_trip l ~request_bytes:1 ~response_bytes:1 ignore))

(* --- partition invariance ------------------------------------------------- *)

let fleet_json ~partitions ~seed ~hosts ~width =
  let r =
    Rejuv.Experiment.fleet_cell ~partitions ~load_rate_per_s:20.0 ~seed ~hosts
      ~width ~slo:0.5
      ~strategy:(Wave.Reboot Strategy.Warm)
      ()
  in
  Rejuv.Experiment.Result.to_json (Rejuv.Experiment.Result.Fleet [ r ])

(* QCheck law: a fleet cell's report is a function of its parameters
   alone — never of how many shards carried it. *)
let qcheck_partition_invariance =
  qtest ~count:4 "fleet cell is partition-invariant"
    QCheck.(triple (int_range 1 1000) (int_range 4 7) (int_range 1 2))
    (fun (seed, hosts, width) ->
      let run partitions = fleet_json ~partitions ~seed ~hosts ~width in
      let one = run 1 in
      String.length one > 100 && one = run 2 && one = run 4)

(* Golden: the fleet_rolling smoke cell, via the registry exactly as
   the sweep runner drives it, is byte-identical for partitions 1/2/4.
   This is the identity the sweep cache relies on when it serves a cell
   computed at a different partitioning (partitions is deliberately
   absent from params_key). *)
let test_fleet_rolling_golden_across_partitions () =
  let module E = Rejuv.Experiment in
  let spec = E.Spec.find_exn "fleet_rolling" in
  let rolling ~partitions =
    let params = { E.Spec.default_params with smoke = true; partitions } in
    let shards = spec.E.Spec.shards params in
    check_true "smoke grid is non-empty" (shards <> []);
    E.Result.to_json
      (E.Result.merge (List.map (fun (_, p) -> spec.E.Spec.run p) shards))
  in
  let one = rolling ~partitions:1 in
  check_true "non-trivial payload" (String.length one > 100);
  Alcotest.(check string) "partitions 1 = 2" one (rolling ~partitions:2);
  Alcotest.(check string) "partitions 1 = 4" one (rolling ~partitions:4)

let suite =
  ( "par_engine",
    [
      Alcotest.test_case "create/connect validation" `Quick
        test_create_and_connect_validation;
      Alcotest.test_case "send respects lookahead" `Quick
        test_send_respects_lookahead;
      Alcotest.test_case "deterministic merge order" `Quick
        test_merge_order_is_deterministic;
      Alcotest.test_case "no shard outruns a message" `Quick
        test_no_shard_outruns_a_neighbors_message;
      Alcotest.test_case "absolute persistent quantum grid" `Quick
        test_quantum_grid_is_absolute_and_persistent;
      Alcotest.test_case "until is inclusive" `Quick
        test_until_is_inclusive_and_leaves_the_future;
      Alcotest.test_case "cross-partition link" `Quick
        test_cross_link_delivers_and_rejects_round_trips;
      qcheck_partition_invariance;
      Alcotest.test_case "fleet_rolling golden across partitions" `Slow
        test_fleet_rolling_golden_across_partitions;
    ] )
