(** Conservative parallel coordinator: N {!Engine} shards on N domains.

    A partitioned simulation places mutually-independent component
    stacks on separate shards (each a full {!Engine} with its own clock
    and queue) and declares the cross-shard couplings as directed
    channels, each with a positive {e lookahead} — a lower bound on how
    far in the future anything sent over it must land (for a network
    link, its minimum latency).

    Time then advances in barrier-synchronized rounds in the
    YAWNS/Chandy–Misra style: between rounds the coordinator drains the
    channels, and each shard is released to execute events strictly
    below

    {v min over inbound channels (sender's next event + lookahead) v}

    optionally capped at the next {e quantum} barrier — a fixed
    absolute time grid on which the caller's [on_quantum] callback runs
    with every worker parked, the hook for a global control plane
    ([Rejuv.Fleet]'s admission guard).

    {b Determinism.} Cross-shard events are merged into the destination
    sorted by (timestamp, sender shard, per-channel sequence), never by
    arrival order, and the 1-shard case runs the very same round loop
    inline — a seeded simulation whose shards share no mutable state
    and whose cross-shard coupling flows through [send]/[on_quantum]
    produces byte-identical results for any shard count and any worker
    interleaving.

    {b Threading.} [create], [connect], [run] and everything else here
    belong to one owning domain (the coordinator). [send] alone may
    also be called from within a shard's events during a round. All
    shard engines are plain single-domain {!Engine} values; the round
    barrier provides the happens-before edges between their worker and
    the coordinator. *)

type t

val create :
  ?seed:int ->
  ?compaction:Engine.compaction ->
  ?quantum:float ->
  shards:int ->
  unit ->
  t
(** [shards] engines (each seeded with the same [seed] — derive
    per-component streams from stable component identities, not from
    shard-local split order, to keep runs partition-invariant).
    [quantum], when given, must be positive and fixes the absolute
    barrier grid [quantum, 2*quantum, ...] for the engine's whole life.
    Raises [Invalid_argument] on [shards < 1] or a non-positive
    quantum. *)

val shards : t -> int
val shard : t -> int -> Engine.t
(** The shard engines. Between [run] calls (and inside [on_quantum])
    the coordinator may freely schedule on and read any of them. *)

val quantum : t -> float option

val last_quantum : t -> float
(** Time of the most recent quantum barrier crossed (0 before the
    first); the coordinator's "now", stable across {!run} calls. *)

val connect : t -> src:int -> dst:int -> lookahead:float -> unit
(** Declare the directed coupling [src -> dst]. Repeated connects keep
    the {e minimum} lookahead, so a channel carrying several links ends
    up with the tightest bound. Raises [Invalid_argument] when
    [src = dst] or [lookahead <= 0]. *)

val lookahead : t -> src:int -> dst:int -> float option
(** Registered lookahead of the pair, if connected. *)

val send : t -> src:int -> dst:int -> time:float -> (unit -> unit) -> unit
(** Deliver an event to shard [dst] at absolute [time]. With
    [src = dst] this is a plain [Engine.schedule_at]. Across shards the
    pair must be {!connect}ed and [time >= now(src) + lookahead] must
    hold (fails with [Fault.Invariant] otherwise) — the guarantee the
    whole protocol rests on. Delivery is deferred to the next round
    boundary and ordered by (time, sender shard, channel sequence). *)

val run :
  ?until:float -> ?on_quantum:(float -> [ `Continue | `Stop ]) -> t -> unit
(** Drive the shards, spawning one worker domain per shard beyond the
    first (the first runs inline on the caller). Stops when every queue
    and channel is drained — or, with [until], when nothing at or below
    [until] remains (shard clocks are {e not} advanced to [until]); or
    when [on_quantum] returns [`Stop].

    [on_quantum q] fires on the caller's domain at every grid point [q]
    once all shards have drained up to it, with all workers parked.
    With [on_quantum] present the loop keeps crossing barriers even
    when all queues are empty — pair it with {!idle} (or [`Stop]) so a
    wedged simulation terminates. An exception raised by any shard's
    event stops the run at the next barrier and is re-raised on the
    caller after the workers are joined.

    Worker domains' executed-event counts are credited back to the
    caller via {!Engine.add_domain_events}, so per-run accounting (the
    sweep runner) sees the whole partitioned run. May be called
    repeatedly; the quantum grid does not restart. *)

val idle : t -> bool
(** No live event pending on any shard and no message in any channel.
    Coordinator-only (call it between runs or inside [on_quantum]). *)

type stats = {
  par_shards : int;
  par_rounds : int;  (** barrier rounds driven so far *)
  par_quantum_ticks : int;  (** [on_quantum] barrier times reached *)
  par_messages : int;  (** cross-shard events delivered *)
  par_barrier_waits : int;  (** worker parks on the round barrier *)
  par_max_skew_s : float;  (** max inter-shard clock spread observed *)
  par_min_lookahead_s : float;  (** [infinity] when nothing is connected *)
}

val stats : t -> stats
(** Protocol counters, exported as gauges by
    [Obs.instrument_par_engine]. *)
