(* The engine's event queue: a stable binary min-heap with bulk
   tombstone compaction. The engine's determinism guarantee rides on
   its ordering law — keys ascending, equal keys in insertion order,
   across any interleaving of adds, pops and compactions — so the
   headline properties drive the heap against a list-based reference
   queue, and whole engines across every compaction setting, with the
   same randomized schedules and demand identical pop/fire sequences. *)

open Helpers
module Heap = Simkit.Heap
module Engine = Simkit.Engine

let drain q =
  let rec go acc =
    match Heap.pop q with
    | Some (k, v) -> go ((k, v) :: acc)
    | None -> List.rev acc
  in
  go []

let test_compact_preserves_fifo () =
  let q = Heap.create () in
  List.iter (fun v -> Heap.add q ~key:1.0 v) [ 1; 2; 3; 4 ];
  (* drop the middle of a tie run, then add more of the same key *)
  let removed = Heap.filter_inplace q ~keep:(fun v -> v <> 2 && v <> 3) in
  check_int "removed" 2 removed;
  Heap.add q ~key:1.0 5;
  Alcotest.(check (list int)) "fifo after compact" [ 1; 4; 5 ]
    (List.map snd (drain q))

(* --- the ordering law against a reference queue --------------------------- *)

(* One op stream drives the heap and the reference; [Cancel] is
   modelled the way the engine uses it — values are marked dead and
   compacted mid-stream. *)
type op = Add of float | Pop | Compact

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Add (float_of_int k /. 8.0)) (int_range 0 160));
        (3, return Pop);
        (1, return Compact);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add k -> Printf.sprintf "add %g" k
             | Pop -> "pop"
             | Compact -> "compact")
           ops))
    QCheck.Gen.(list_size (int_range 1 300) op_gen)

let run_ops ~add ~pop ~compact ~drain ops =
  let trace = ref [] in
  let id = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Add k ->
        incr id;
        (* every 5th value is dead-on-arrival, awaiting compaction *)
        add ~key:k (!id, !id mod 5 <> 0)
      | Pop ->
        (match pop () with
        | Some (k, (v, _)) -> trace := (k, v) :: !trace
        | None -> trace := (-1.0, -1) :: !trace)
      | Compact -> trace := (0.0, -compact ~keep:snd) :: !trace)
    ops;
  List.rev_append !trace (List.map (fun (k, (v, _)) -> (k, v)) (drain ()))

(* The reference is a list kept sorted by key, where an add goes after
   every entry whose key is not larger — stable by construction. *)
let prop_heap_matches_reference =
  qtest "heap pops like a stable reference queue" ops_arb (fun ops ->
      let h = Heap.create () and r = ref [] in
      let rec insert key v = function
        | ((k, _) as e) :: tl when k <= key -> e :: insert key v tl
        | l -> (key, v) :: l
      in
      run_ops ops ~add:(Heap.add h)
        ~pop:(fun () -> Heap.pop h)
        ~compact:(Heap.filter_inplace h)
        ~drain:(fun () -> drain h)
      = run_ops ops
          ~add:(fun ~key v -> r := insert key v !r)
          ~pop:(fun () ->
            match !r with
            | [] -> None
            | e :: tl ->
              r := tl;
              Some e)
          ~compact:(fun ~keep ->
            let before = List.length !r in
            r := List.filter (fun (_, v) -> keep v) !r;
            before - List.length !r)
          ~drain:(fun () -> !r))

(* The same property at the engine level, with real cancels and nested
   scheduling, across every compaction setting. *)
let engine_fire_log ~compaction plan =
  let e = Engine.create ~compaction () in
  let log = ref [] in
  let handles =
    List.mapi
      (fun i (delay, cancel_it, nest) ->
        let h =
          Engine.schedule e ~delay (fun () ->
              log := (i, Engine.now e) :: !log;
              if nest then
                ignore
                  (Engine.schedule e ~delay:(delay /. 2.0) (fun () ->
                       log := (1000 + i, Engine.now e) :: !log)))
        in
        (h, cancel_it))
      plan
  in
  List.iter (fun (h, cancel_it) -> if cancel_it then Engine.cancel e h) handles;
  Engine.run e;
  List.rev !log

let plan_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (fun (d, c, n) -> Printf.sprintf "(%g,%b,%b)" d c n)
           l))
    QCheck.Gen.(
      list_size (int_range 1 120)
        (triple
           (map (fun k -> float_of_int k /. 4.0) (int_range 0 100))
           bool bool))

let prop_engine_compaction_identical =
  qtest ~count:100 "engines agree across compaction settings" plan_arb
    (fun plan ->
      let reference = engine_fire_log ~compaction:`Off plan in
      List.for_all
        (fun compaction -> engine_fire_log ~compaction plan = reference)
        [ `Auto; `Threshold 0.1 ])

(* --- engine tombstone compaction ------------------------------------------ *)

let test_compaction_bounds_tombstones () =
  let e = Engine.create ~compaction:`Auto () in
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule e ~delay:(100.0 +. float_of_int i) (fun () -> ()))
  in
  List.iteri (fun i h -> if i mod 100 <> 0 then Engine.cancel e h) handles;
  let s = Engine.queue_stats e in
  check_true "compacted at least once" (s.Engine.qs_compactions > 0);
  (* Auto keeps tombstones under half the pending count, except below
     the 64-event floor where compaction deliberately stops bothering. *)
  check_true "tombstones bounded"
    (s.Engine.qs_tombstones <= Stdlib.max 63 ((s.Engine.qs_pending / 2) + 1));
  check_true "queue shrank" (Engine.pending e < 200);
  Engine.run e;
  check_int "survivors all fired" 10 (Engine.events_processed e)

let test_compaction_off_accumulates () =
  let e = Engine.create ~compaction:`Off () in
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule e ~delay:(100.0 +. float_of_int i) (fun () -> ()))
  in
  List.iter (fun h -> Engine.cancel e h) handles;
  let s = Engine.queue_stats e in
  check_int "no compactions" 0 s.Engine.qs_compactions;
  check_int "every tombstone retained" 1000 (Engine.pending e);
  Engine.run e;
  check_int "nothing fired" 0 (Engine.events_processed e)

let suite =
  ( "eventq",
    [
      Alcotest.test_case "compact preserves FIFO" `Quick
        test_compact_preserves_fifo;
      prop_heap_matches_reference;
      prop_engine_compaction_identical;
      Alcotest.test_case "engine compaction bounds tombstones" `Quick
        test_compaction_bounds_tombstones;
      Alcotest.test_case "engine compaction off accumulates" `Quick
        test_compaction_off_accumulates;
    ] )
