open Helpers
module Engine = Simkit.Engine

let test_clock_starts_at_zero () =
  let e = Engine.create () in
  check_float "t=0" 0.0 (Engine.now e)

let test_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock advanced" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let e = Engine.create () in
  let fired_at = ref nan in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         ignore
           (Engine.schedule e ~delay:2.0 (fun () ->
                fired_at := Engine.now e))));
  Engine.run e;
  check_float "nested at 3" 3.0 !fired_at

let test_zero_delay_runs_after_pending_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:0.0 (fun () -> log := "inner" :: !log))));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "second" :: !log));
  Engine.run e;
  Alcotest.(check (list string))
    "zero-delay after same-time pending" [ "outer"; "second"; "inner" ]
    (List.rev !log)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  check_false "cancelled" !fired

let test_cancel_twice_is_noop () =
  let e = Engine.create () in
  let h = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  Engine.cancel e h;
  Engine.cancel e h;
  Engine.run e

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.0 e;
  check_int "five fired" 5 !count;
  check_float "clock at limit" 5.0 (Engine.now e);
  Engine.run e;
  check_int "rest fired" 10 !count

let test_run_until_exact_boundary () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> fired := true));
  Engine.run ~until:5.0 e;
  check_true "boundary inclusive" !fired

let test_run_until_advances_clock_when_idle () =
  let e = Engine.create () in
  Engine.run ~until:42.0 e;
  check_float "idle clock advance" 42.0 (Engine.now e)

let test_run_until_skips_cancelled_head () =
  (* A cancelled event before the limit must not cause an event beyond
     the limit to run (regression test for head-skipping). *)
  let e = Engine.create () in
  let late = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> late := true));
  Engine.cancel e h;
  Engine.run ~until:5.0 e;
  check_false "late not fired" !late;
  check_float "clock at limit" 5.0 (Engine.now e)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  check_true "raises"
    (try
       ignore (Engine.schedule_at e ~time:1.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_negative_delay_rejected () =
  let e = Engine.create () in
  check_true "raises"
    (try
       ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* A NaN key compares false against everything and would silently break
   the queue's ordering, so non-finite times are rejected up front and
   leave the queue untouched. *)
let test_non_finite_time_rejected () =
  let e = Engine.create () in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun time ->
      check_true
        (Printf.sprintf "schedule_at %g raises" time)
        (raises (fun () -> Engine.schedule_at e ~time (fun () -> ()))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun delay ->
      check_true
        (Printf.sprintf "schedule ~delay:%g raises" delay)
        (raises (fun () -> Engine.schedule e ~delay (fun () -> ()))))
    [ Float.nan; Float.infinity ];
  check_int "nothing queued" 0 (Engine.pending e);
  check_int "nothing scheduled" 0 (Engine.events_scheduled e);
  let log = ref [] in
  List.iter
    (fun t ->
      ignore (Engine.schedule_at e ~time:t (fun () -> log := t :: !log)))
    [ 3.0; 1.0; 2.0 ];
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "queue still ordered" [ 1.0; 2.0; 3.0 ]
    (List.rev !log)

let test_events_processed () =
  let e = Engine.create () in
  for i = 1 to 7 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> ()))
  done;
  Engine.run e;
  check_int "processed" 7 (Engine.events_processed e)

let test_step () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> incr count));
  check_true "step 1" (Engine.step e);
  check_int "one fired" 1 !count;
  check_true "step 2" (Engine.step e);
  check_false "exhausted" (Engine.step e)

let prop_monotonic_clock =
  qtest "clock is monotonic across random schedules"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.0))
    (fun delays ->
      let e = Engine.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule e ~delay:d (fun () ->
                 times := Engine.now e :: !times)))
        delays;
      Engine.run e;
      let observed = List.rev !times in
      let rec monotonic = function
        | a :: (b :: _ as rest) -> a <= b && monotonic rest
        | _ -> true
      in
      monotonic observed)

let suite =
  ( "engine",
    [
      Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
      Alcotest.test_case "schedule order" `Quick test_schedule_order;
      Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "zero delay ordering" `Quick
        test_zero_delay_runs_after_pending_same_time;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "cancel twice" `Quick test_cancel_twice_is_noop;
      Alcotest.test_case "run until" `Quick test_run_until;
      Alcotest.test_case "run until boundary" `Quick test_run_until_exact_boundary;
      Alcotest.test_case "run until idle clock" `Quick
        test_run_until_advances_clock_when_idle;
      Alcotest.test_case "run until skips cancelled head" `Quick
        test_run_until_skips_cancelled_head;
      Alcotest.test_case "past schedule rejected" `Quick
        test_schedule_in_past_rejected;
      Alcotest.test_case "negative delay rejected" `Quick
        test_negative_delay_rejected;
      Alcotest.test_case "non-finite time rejected" `Quick
        test_non_finite_time_rejected;
      Alcotest.test_case "events processed" `Quick test_events_processed;
      Alcotest.test_case "step" `Quick test_step;
      prop_monotonic_clock;
    ] )
