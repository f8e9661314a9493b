(* Conservative parallel coordinator over an array of Engine shards.

   Classic null-message-free PDES in the YAWNS/Chandy–Misra family:
   time advances in rounds. At a round boundary every shard is parked,
   the coordinator drains the cross-shard channels in a deterministic
   order, computes for each shard a lower bound on the timestamp of
   anything a neighbour could still send it

     lbts(dst) = min over connected src of
                   (src's next event time + lookahead(src -> dst))

   and then releases each shard to execute events strictly below
   min(lbts, next quantum barrier, until). With every lookahead > 0
   the globally-earliest shard always makes progress, so the protocol
   cannot deadlock.

   Determinism: messages crossing shards carry (timestamp, sender
   shard, per-channel sequence) and are merged into the destination
   queue sorted by exactly that triple — never by arrival order — so a
   seeded run is byte-identical for any worker interleaving. The
   1-shard case runs fully inline through the *same* round loop, which
   is what lets callers (Rejuv.Fleet) promise byte-identical output
   for partitions=1 vs partitions=N.

   Threading: shard i is touched only by its worker during a round and
   only by the coordinator between rounds; the barrier mutex provides
   the happens-before edges, so no other synchronization is needed on
   the engines themselves. The [on_quantum] callback always runs on
   the coordinator's domain with every worker parked — it may freely
   read and schedule on any shard. *)

(* One directed cross-shard mailbox. [ch_seq] is written only by the
   sending shard (inside the lock), and the queue is drained only by
   the coordinator between rounds. *)
type channel = {
  ch_lock : Mutex.t;
  ch_q : (float * int * (unit -> unit)) Queue.t;  (* time, seq, event *)
  mutable ch_seq : int;
  mutable ch_lookahead : float;
}

type stats = {
  par_shards : int;
  par_rounds : int;  (** barrier rounds driven so far *)
  par_quantum_ticks : int;  (** [on_quantum] barrier times reached *)
  par_messages : int;  (** cross-shard events delivered *)
  par_barrier_waits : int;  (** worker parks on the round barrier *)
  par_max_skew_s : float;  (** max inter-shard clock spread observed *)
  par_min_lookahead_s : float;  (** [infinity] when nothing is connected *)
}

type t = {
  shards : Engine.t array;
  chans : channel option array array;  (* chans.(src).(dst) *)
  quantum : float option;
  lock : Mutex.t;
  work : Condition.t;  (* coordinator -> workers: new round *)
  donec : Condition.t;  (* workers -> coordinator: round finished *)
  bounds : float array;  (* per-shard exclusive bound for this round *)
  seen : int array;  (* worker i's last completed epoch *)
  mutable epoch : int;
  mutable live : bool;  (* false parks workers permanently *)
  mutable done_count : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable next_q : float;  (* next quantum barrier (absolute grid) *)
  mutable rounds : int;
  mutable ticks : int;
  mutable messages : int;
  mutable barrier_waits : int;
  mutable max_skew : float;
}

let create ?(seed = 42) ?compaction ?quantum ~shards () =
  if shards < 1 then invalid_arg "Par_engine.create: shards < 1";
  (match quantum with
  | Some q when q <= 0.0 -> invalid_arg "Par_engine.create: quantum <= 0"
  | _ -> ());
  {
    shards =
      Array.init shards (fun _ -> Engine.create ~seed ?compaction ());
    chans = Array.make_matrix shards shards None;
    quantum;
    lock = Mutex.create ();
    work = Condition.create ();
    donec = Condition.create ();
    bounds = Array.make shards infinity;
    seen = Array.make shards 0;
    epoch = 0;
    live = false;
    done_count = 0;
    failure = None;
    next_q = (match quantum with Some q -> q | None -> infinity);
    rounds = 0;
    ticks = 0;
    messages = 0;
    barrier_waits = 0;
    max_skew = 0.0;
  }

let shards t = Array.length t.shards

let check_rank t what i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Par_engine.%s: shard %d out of range" what i)

let shard t i =
  check_rank t "shard" i;
  t.shards.(i)

let quantum t = t.quantum

(* Time of the last quantum barrier crossed — the coordinator's notion
   of "now", stable across [run] calls because the grid is absolute. *)
let last_quantum t =
  match t.quantum with None -> 0.0 | Some q -> t.next_q -. q

let connect t ~src ~dst ~lookahead =
  check_rank t "connect" src;
  check_rank t "connect" dst;
  if src = dst then invalid_arg "Par_engine.connect: src = dst";
  if not (lookahead > 0.0) then
    invalid_arg "Par_engine.connect: lookahead must be positive";
  match t.chans.(src).(dst) with
  | Some c -> c.ch_lookahead <- Float.min c.ch_lookahead lookahead
  | None ->
    t.chans.(src).(dst) <-
      Some
        {
          ch_lock = Mutex.create ();
          ch_q = Queue.create ();
          ch_seq = 0;
          ch_lookahead = lookahead;
        }

let lookahead t ~src ~dst =
  check_rank t "lookahead" src;
  check_rank t "lookahead" dst;
  Option.map (fun c -> c.ch_lookahead) t.chans.(src).(dst)

let min_lookahead t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc -> function
          | None -> acc
          | Some c -> Float.min acc c.ch_lookahead)
        acc row)
    infinity t.chans

let send t ~src ~dst ~time f =
  check_rank t "send" src;
  check_rank t "send" dst;
  if src = dst then ignore (Engine.schedule_at t.shards.(src) ~time f)
  else
    match t.chans.(src).(dst) with
    | None ->
      Fault.fail
        (Fault.Invariant
           (Printf.sprintf "Par_engine.send: shards %d -> %d not connected"
              src dst))
    | Some c ->
      let now = Engine.now t.shards.(src) in
      if time < now +. c.ch_lookahead then
        Fault.fail
          (Fault.Invariant
             (Printf.sprintf
                "Par_engine.send: time %g under lookahead (now %g + %g)" time
                now c.ch_lookahead));
      Mutex.lock c.ch_lock;
      let seq = c.ch_seq in
      c.ch_seq <- seq + 1;
      Queue.push (time, seq, f) c.ch_q;
      Mutex.unlock c.ch_lock

(* Coordinator-only, workers parked: drain every inbound channel of
   [dst] and schedule the messages sorted by (time, sender, sequence).
   Sorting here — not at send time — is what erases arrival order. *)
let merge t =
  let s = Array.length t.shards in
  for dst = 0 to s - 1 do
    let batch = ref [] in
    for src = 0 to s - 1 do
      match t.chans.(src).(dst) with
      | None -> ()
      | Some c ->
        Mutex.lock c.ch_lock;
        while not (Queue.is_empty c.ch_q) do
          let time, seq, f = Queue.pop c.ch_q in
          batch := (time, src, seq, f) :: !batch
        done;
        Mutex.unlock c.ch_lock
    done;
    if !batch <> [] then
      List.sort
        (fun (ta, sa, qa, _) (tb, sb, qb, _) ->
          compare (ta, sa, qa) (tb, sb, qb))
        !batch
      |> List.iter (fun (time, _, _, f) ->
             t.messages <- t.messages + 1;
             ignore (Engine.schedule_at t.shards.(dst) ~time f))
  done

let channels_empty t =
  Array.for_all
    (fun row ->
      Array.for_all
        (function
          | None -> true
          | Some c ->
            Mutex.lock c.ch_lock;
            let e = Queue.is_empty c.ch_q in
            Mutex.unlock c.ch_lock;
            e)
        row)
    t.chans

let idle t =
  channels_empty t
  && Array.for_all (fun e -> Engine.next_event_time e = None) t.shards

let lbts t ~next dst =
  let s = Array.length t.shards in
  let b = ref infinity in
  for src = 0 to s - 1 do
    if src <> dst then
      match t.chans.(src).(dst) with
      | None -> ()
      | Some c -> b := Float.min !b (next.(src) +. c.ch_lookahead)
  done;
  !b

let record_failure t e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.lock t.lock;
  if t.failure = None then t.failure <- Some (e, bt);
  Mutex.unlock t.lock

(* Worker loop for shard [i]: park on the barrier, run the assigned
   window, report back; returns the domain's event counter so the
   coordinator can credit the events to the calling domain. *)
let worker t i =
  let continue = ref true in
  while !continue do
    Mutex.lock t.lock;
    while t.live && t.epoch = t.seen.(i) do
      t.barrier_waits <- t.barrier_waits + 1;
      Condition.wait t.work t.lock
    done;
    if not t.live then begin
      continue := false;
      Mutex.unlock t.lock
    end
    else begin
      let ep = t.epoch and b = t.bounds.(i) in
      Mutex.unlock t.lock;
      (try Engine.run_before t.shards.(i) ~bound:b
       with e -> record_failure t e);
      Mutex.lock t.lock;
      t.seen.(i) <- ep;
      t.done_count <- t.done_count + 1;
      Condition.signal t.donec;
      Mutex.unlock t.lock
    end
  done;
  Engine.domain_events_processed ()

let observe_skew t =
  if Array.length t.shards > 1 then begin
    let mn = ref infinity and mx = ref neg_infinity in
    Array.iter
      (fun e ->
        let c = Engine.now e in
        if c < !mn then mn := c;
        if c > !mx then mx := c)
      t.shards;
    t.max_skew <- Float.max t.max_skew (!mx -. !mn)
  end

(* One synchronized round: publish bounds, run shard 0 inline on the
   coordinator, wait for the workers, observe. *)
let drive_round t bounds =
  let s = Array.length t.shards in
  t.rounds <- t.rounds + 1;
  if s = 1 then Engine.run_before t.shards.(0) ~bound:bounds.(0)
  else begin
    Mutex.lock t.lock;
    Array.blit bounds 0 t.bounds 0 s;
    t.epoch <- t.epoch + 1;
    t.done_count <- 0;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (try Engine.run_before t.shards.(0) ~bound:bounds.(0)
     with e -> record_failure t e);
    Mutex.lock t.lock;
    while t.done_count < s - 1 do
      Condition.wait t.donec t.lock
    done;
    Mutex.unlock t.lock
  end;
  observe_skew t

let run ?until ?on_quantum t =
  let s = Array.length t.shards in
  (* Inclusive [until]: the next float above it is the exclusive bound. *)
  let until_bound =
    match until with None -> infinity | Some u -> Float.succ u
  in
  t.live <- true;
  t.epoch <- 0;
  Array.fill t.seen 0 s 0;
  t.done_count <- 0;
  t.failure <- None;
  let doms =
    Array.init (s - 1) (fun k ->
        Domain.spawn (fun () -> worker t (k + 1)))
  in
  let finish () =
    Mutex.lock t.lock;
    t.live <- false;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter (fun d -> Engine.add_domain_events (Domain.join d)) doms;
    match t.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  in
  Fun.protect ~finally:finish @@ fun () ->
  let stop = ref false in
  while not !stop do
    merge t;
    let next =
      Array.map
        (fun e -> Option.value (Engine.next_event_time e) ~default:infinity)
        t.shards
    in
    let global_min = Array.fold_left Float.min infinity next in
    let tickable = Option.is_some on_quantum && t.next_q < until_bound in
    if global_min >= until_bound && not tickable then stop := true
    else if global_min >= t.next_q then begin
      (* Every shard has drained up to the barrier: cross it. *)
      let q = t.next_q in
      t.next_q <- t.next_q +. Option.value t.quantum ~default:infinity;
      if q < until_bound then begin
        t.ticks <- t.ticks + 1;
        match on_quantum with
        | Some f when f q = `Stop -> stop := true
        | Some _ | None -> ()
      end
    end
    else begin
      let bounds =
        Array.init s (fun i ->
            Float.min (lbts t ~next i) (Float.min t.next_q until_bound))
      in
      drive_round t bounds;
      if t.failure <> None then stop := true
    end
  done

let stats t =
  {
    par_shards = Array.length t.shards;
    par_rounds = t.rounds;
    par_quantum_ticks = t.ticks;
    par_messages = t.messages;
    par_barrier_waits = t.barrier_waits;
    par_max_skew_s = t.max_skew;
    par_min_lookahead_s = min_lookahead t;
  }
