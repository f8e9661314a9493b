(** Fleet-scale rolling rejuvenation control plane.

    Scales the paper's single-host picture up to a consolidated
    {e fleet}: from the 4-host cluster of the measured Figure 9 to
    hundreds of hosts — each a full {!Scenario} stack — in
    one simulation, plus one spare host kept empty as a migration
    target. A {!Wave.plan} partitions the fleet into rolling waves; the
    control plane walks the waves, rejuvenating each wave's hosts
    concurrently (or migrating their guests away first), under an
    open-loop Poisson client stream dispatched across the fleet.

    {b Partitioned time.} Host stacks share no mutable simulation
    state, so the fleet can spread them over
    [Config.partitions] shards of a [Simkit.Par_engine] (host [i] on
    shard [i mod partitions]; the spare pinned to shard 0) and run them
    on as many domains. All cross-host coupling — SLO admission,
    redirect freshness, task launches, capacity sampling — happens on
    the coordinator at the fixed [sync_quantum_s] barrier grid, and
    per-host load streams are seeded from (fleet seed, host index):
    together these make a seeded run {e byte-identical for every
    partition count}, 1 included (which runs the same barrier loop
    inline). Migrate waves funnel through the shared spare, so they
    require [partitions = 1].

    The SLO guard is enforced twice. Statically, {!Wave.plan} caps the
    wave width at the capacity slack above the SLO floor. Dynamically,
    before each host is admitted into its wave the control plane checks
    that the {e projected} healthy-host count — current healthy hosts
    minus those the wave is about to take down — stays at or above the
    floor; a host that would breach it is deferred (bounded retries)
    and ultimately skipped rather than admitted.

    Instrumented through [Obs]: [fleet.healthy_hosts] and
    [fleet.capacity_fraction] pull gauges, a [fleet.wave_index] push
    gauge, a [fleet.hosts_rejuvenated] counter, and a capacity sampler
    whose series backs the [min_healthy]/[mean_healthy] report fields. *)

module Config : sig
  type t = {
    hosts : int;  (** fleet size; default 16 *)
    host : Scenario.Config.t;
        (** per-host template; [name_prefix] is extended per host and
            [engine] overwritten with the host's shard engine *)
    wave_width : int;
        (** requested hosts per wave — clamped to the SLO slack by
            {!Wave.plan}; default 4 *)
    slo : float;
        (** fraction of hosts that must stay healthy; default 0.7 *)
    gap_s : float;  (** idle time between waves; default 10 s *)
    load_rate_per_s : float;
        (** client stream offered across the fleet; default 200 req/s.
            With [host.traffic] mode [Per_request] this is the
            historical per-host Poisson split. [Fluid]/[Hybrid] carry
            the bulk as one epoch-integrated flow stream per host
            ({!Netsim.Fluid.Open}), pushed a new served fraction when
            the host's health or redirect eligibility flips — no
            events and no RNG, so a host can model 1M+ flows; when [host.traffic] has a
            positive think time the per-host rate becomes
            [clients / think_time_s] (each closed-loop flow offers
            ~1/think req/s), otherwise this knob split as before.
            [Hybrid] additionally keeps a tracer-sized Poisson cohort
            per-request, seeded exactly like the per-request
            streams. A zero rate builds no stream; must be finite and
            non-negative. *)
    blind_dispatch : bool;
        (** round-robin requests onto a host whatever its health —
            the paper's lost-request model (Figure 9). By default a
            request aimed at an unhealthy host is redirected when some
            other host was healthy at the last barrier. *)
    sample_interval_s : float;  (** capacity sampling period; default 5 s *)
    partitions : int;
        (** shards the host stacks are spread over (clamped to the
            fleet size); default 1 — the classic single-domain run *)
    sync_quantum_s : float;
        (** control-plane barrier period: admission checks, deferral
            retries and wave starts all happen on this grid; default
            2 s (the old admission retry period) *)
  }

  val default : t
end

type t

val create : Config.t -> t
(** Plan the waves, then build the fleet (and its spare host) on a
    partitioned engine seeded from [host.seed], and register the fleet
    and [par.*] shard gauges into the ambient [Obs] registry. Raises
    [Invalid_argument] on a non-positive fleet size, partition count or
    quantum, a negative or non-finite load, and when {!Wave.plan}
    rejects the (hosts, width, slo) cell — all before any host is
    built. *)

val check_strategy : Config.t -> Wave.strategy -> unit
(** Raises [Invalid_argument] when a fleet of this config cannot roll
    [strategy]: [Migrate] waves funnel through the one spare host and
    its migration link, so they need a single shard ([partitions],
    clamped to the fleet size, must be 1). {!run} checks it; call it
    before {!create} to refuse the plan without booting a fleet. *)

val config : t -> Config.t

val par : t -> Simkit.Par_engine.t
(** The partitioned engine; [Par_engine.shard] exposes the per-shard
    engines (shard 0 doubles as the control/spare shard). *)

val spare : t -> Scenario.t
val healthy_hosts : t -> int

val start : t -> unit
(** Boot every fleet host and the spare, driving the shards until all
    are up. *)

type wave_report = {
  wave_index : int;
  wave_hosts : int list;  (** hosts actually admitted *)
  started_at_s : float;
  wave_makespan_s : float;  (** admission start to last host recovered *)
  deferred : int;  (** admission retries taken by this wave *)
}

type report = {
  fr_strategy : Wave.strategy;
  hosts : int;
  wave_width : int;  (** effective width, after the SLO clamp *)
  slo : float;
  slo_floor : int;
  waves : wave_report list;
  makespan_s : float;  (** first wave start to last wave settled *)
  offered : int;
  lost : int;
  loss_ratio : float;
  min_healthy : int;  (** over capacity samples during the run *)
  mean_healthy : float;
  slo_met : bool;  (** [min_healthy >= slo_floor] *)
  skipped : int list;
      (** hosts never admitted — SLO guard exhausted its retries *)
}

val run : t -> strategy:Wave.strategy -> report
(** Execute one full rolling pass over a started fleet: start the
    per-host load streams, walk the waves one quantum barrier
    at a time (admission, launches and sampling all happen at barriers,
    on the coordinator, with every shard parked), settle, stop the
    load, and report. [Reboot] waves rejuvenate their hosts
    concurrently — across domains when partitioned; [Migrate] waves go
    host by host, because the spare's memory and the migration link are
    shared (see {!check_strategy}, which [run] applies first).
    Per-host faults are traced and do not wedge the pass — an
    unrecovered host simply stays unhealthy (and counts against
    [min_healthy]). Fails with [Fault.Stalled] when the engine runs dry
    while a host task is in flight, and with [Fault.Invariant] when a
    bulk stream's served fraction disagrees with its host's health at a
    barrier (a health change that reached no watcher). *)
