(* The benchmark's cells: the paper's Figure 7/8 runs and one rolling
   fleet pass, rebuilt from the libraries' public functions so that
   set-up (create + start) is timed apart from the run and every call
   into a layer can carry a span. Each cell mirrors its registered
   experiment in lib/rejuv/experiment.ml ([fig7], [fig8_web],
   [fig8_file], [fleet_cell]) except that it takes the seed;
   [registered_paper] and [registered_fleet] check that they still do. *)

module Scenario = Rejuv.Scenario
module Engine = Simkit.Engine

type size = {
  f7_vms : int;
  f7_docs : int;
  f8_docs : int;
  f8_mem_gib : int;
  f8_file_mib : int;
  fleet_hosts : int;  (** fleet-request *)
  fluid_hosts : int;  (** fleet-fluid *)
  paper : bool;  (** the paper's sizes: check against its values *)
}

let full =
  {
    f7_vms = 11;
    f7_docs = 1000;
    f8_docs = 10_000;
    f8_mem_gib = 11;
    f8_file_mib = 512;
    fleet_hosts = 2000;
    fluid_hosts = 400;
    paper = true;
  }

let tiny =
  {
    f7_vms = 2;
    f7_docs = 40;
    f8_docs = 200;
    f8_mem_gib = 2;
    f8_file_mib = 32;
    fleet_hosts = 40;
    fluid_hosts = 16;
    paper = false;
  }

(* Everything one pass counts. Timings are host seconds; the rest are
   exact counts of simulated work. *)
type counters = {
  mutable attempted : int;
  mutable failures : string list;
  mutable setups : (string * float) list;  (** (cell kind, host s) *)
  mutable cell_s : (string * float) list;  (** (cell, host s), latest first *)
  mutable compactions : int;
  mutable par_rounds : int;
  mutable par_barrier_waits : int;
  mutable par_messages : int;
  mutable pc_hits : int;
  mutable pc_misses : int;
  mutable warm_s : float;
  mutable warm_words : float;
  mutable cache_capacity : int;  (** of the fig8_web VM, for the replay *)
  mutable httpd_requests : int;
  mutable httpd_s : float;  (** host time inside request closures (traced) *)
  mutable httperf_completed : int;
  mutable paper_events : int;  (** engine events of the httperf cells *)
  mutable scenario_create_s : float;
  mutable fleet_create_s : float;
  mutable fleet_start_s : float;
  mutable fleet_run_s : float;
  mutable fleet_run_words : float;
  mutable fleet_run_events : int;
  mutable fleet_host_quanta : float;
  mutable fleet_makespan_s : float;
  mutable fidelity : (string * float * float) list;
      (** (quantity, measured, paper) *)
  mutable observed : (string * float) list;
      (** the outputs the registered experiments also give *)
}

let counters () =
  {
    attempted = 0;
    failures = [];
    setups = [];
    cell_s = [];
    compactions = 0;
    par_rounds = 0;
    par_barrier_waits = 0;
    par_messages = 0;
    pc_hits = 0;
    pc_misses = 0;
    warm_s = 0.0;
    warm_words = 0.0;
    cache_capacity = 0;
    httpd_requests = 0;
    httpd_s = 0.0;
    httperf_completed = 0;
    paper_events = 0;
    scenario_create_s = 0.0;
    fleet_create_s = 0.0;
    fleet_start_s = 0.0;
    fleet_run_s = 0.0;
    fleet_run_words = 0.0;
    fleet_run_events = 0;
    fleet_host_quanta = 0.0;
    fleet_makespan_s = 0.0;
    fidelity = [];
    observed = [];
  }

let now = Span.now

(* Words allocated so far by every domain, live or joined. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let check what ok = if not ok then failwith ("check failed: " ^ what)

(* One cell: a failure — fault, exception or failed check — is counted
   against the cell, never raised out of the pass. *)
let cell c name f =
  c.attempted <- c.attempted + 1;
  Obs.reset_ambient () |> ignore;
  let t0 = now () in
  (match Span.with_ ("perfbench.cell." ^ name) f with
   | () -> ()
   | exception Simkit.Fault.Error fault ->
     c.failures <- (name ^ ": " ^ Simkit.Fault.to_string fault) :: c.failures
   | exception e -> c.failures <- (name ^ ": " ^ Printexc.to_string e) :: c.failures);
  c.cell_s <- (name, now () -. t0) :: c.cell_s

(* --- single-host cells -------------------------------------------------- *)

let timed_warm c f =
  let t0 = now () and w0 = allocated_words () in
  Span.with_ "guest.page_cache.warm" f;
  c.warm_s <- c.warm_s +. (now () -. t0);
  c.warm_words <- c.warm_words +. (allocated_words () -. w0)

(* Scenario.create + Scenario.start, driven until every VM answers.
   Web documents are warmed here, in the start continuation, exactly
   where [Scenario.start] warms them for a [warm_cache = true] config —
   so the warm can be timed on its own. *)
let boot c ~kind cfg =
  let t0 = now () in
  let s = Span.with_ "rejuv.scenario.create" (fun () -> Scenario.create cfg) in
  c.scenario_create_s <- c.scenario_create_s +. (now () -. t0);
  Span.with_ "rejuv.scenario.start" (fun () ->
      let started = ref false in
      Scenario.start s (fun () ->
          timed_warm c (fun () ->
              List.iter
                (fun v -> Option.iter Guest.Httpd.warm_all (Scenario.vm_httpd v))
                (Scenario.vms s));
          started := true);
      Span.with_ "simkit.engine.run" (fun () -> Engine.run (Scenario.engine s));
      if not !started then Simkit.Fault.fail (Simkit.Fault.Stalled "perfbench boot"));
  c.setups <- (kind, now () -. t0) :: c.setups;
  s

let finish_engine c engine =
  c.compactions <- c.compactions + (Engine.queue_stats engine).Engine.qs_compactions

(* Page caches seen during a cell, by identity: a cold reboot replaces
   a VM's cache, and the old one keeps the pre-reboot hit counts.
   [finish] also counts the engine's queue compactions. *)
let cache_tracker s =
  let seen = ref [] in
  let sample () =
    List.iter
      (fun v ->
        let pc = Guest.Kernel.page_cache (Scenario.vm_kernel v) in
        if not (List.memq pc !seen) then seen := pc :: !seen)
      (Scenario.vms s)
  in
  sample ();
  let finish c =
    sample ();
    finish_engine c (Scenario.engine s);
    List.iter
      (fun pc ->
        c.pc_hits <- c.pc_hits + Guest.Page_cache.hits pc;
        c.pc_misses <- c.pc_misses + Guest.Page_cache.misses pc)
      !seen;
    List.iter
      (fun v ->
        match Guest.Page_cache.check_invariants (Guest.Kernel.page_cache (Scenario.vm_kernel v)) with
        | Ok () -> ()
        | Error e -> failwith ("page cache invariant: " ^ e))
      (Scenario.vms s)
  in
  (sample, finish)

let reboot strategy scenario k =
  Rejuv.Roothammer.rejuvenate scenario ~strategy (fun outcome ->
      match outcome.Rejuv.Recovery.fatal with Some f -> Simkit.Fault.fail f | None -> k ())

let run_until_done engine ~flag ~deadline =
  Span.with_ "simkit.engine.run" (fun () ->
      while (not !flag) && Engine.now engine <= deadline && Engine.step engine do
        ()
      done);
  if not !flag then
    Simkit.Fault.fail (Simkit.Fault.Timeout { what = "perfbench cell"; deadline_s = deadline })

let engine_run ?until engine =
  Span.with_ "simkit.engine.run" (fun () -> Engine.run ?until engine)

(* The httperf request closure, timed when tracing. *)
let request c httpd_of ~rng k =
  match httpd_of () with
  | None -> k false
  | Some httpd ->
    c.httpd_requests <- c.httpd_requests + 1;
    if !Span.enabled then begin
      let t0 = now () in
      Guest.Httpd.handle_request httpd ~rng k;
      c.httpd_s <- c.httpd_s +. (now () -. t0)
    end
    else Guest.Httpd.handle_request httpd ~rng k

let web ~docs =
  Scenario.Web { file_count = docs; file_bytes = Simkit.Units.kib 512; warm_cache = false }

(* Figure 7: 11 VMs serving the web workload, 4 closed-loop httperf
   connections against the first, VMM rejuvenated at t = 20 s. *)
let fig7 c size ~seed strategy =
  cell c ("fig7." ^ Rejuv.Strategy.id strategy) (fun () ->
      let s =
        boot c ~kind:"fig7"
          { Scenario.Config.default with
            vm_count = size.f7_vms; workload = web ~docs:size.f7_docs; seed }
      in
      let sample, finish = cache_tracker s in
      let engine = Scenario.engine s in
      let epoch = Engine.now engine in
      let target = List.hd (Scenario.vms s) in
      let rng = Scenario.rng s in
      let load =
        Netsim.Httperf.create engine ~connections:4
          ~request:(request c (fun () -> Scenario.vm_httpd target) ~rng)
          ()
      in
      let prober =
        Netsim.Prober.create engine ~name:"web" ~is_up:(fun () -> Scenario.vm_is_up target) ()
      in
      Netsim.Prober.start prober;
      Netsim.Httperf.start load;
      let reboot_at = 20.0 in
      let finished = ref false in
      ignore
        (Engine.schedule engine ~delay:reboot_at (fun () ->
             sample ();
             reboot strategy s (fun () -> finished := true)));
      run_until_done engine ~flag:finished ~deadline:(epoch +. 600.0);
      engine_run ~until:(Engine.now engine +. 90.0) engine;
      Netsim.Httperf.stop load;
      Netsim.Prober.stop prober;
      engine_run ~until:(Engine.now engine +. 5.0) engine;
      finish c;
      c.httperf_completed <- c.httperf_completed + Netsim.Httperf.completed load;
      c.paper_events <- c.paper_events + Engine.events_processed engine;
      match List.rev (Netsim.Prober.outages prober) with
      | [] -> failwith "fig7: the web service never went down"
      | (down, up) :: _ ->
        let down = down -. epoch and up = up -. epoch in
        let id = "fig7." ^ Rejuv.Strategy.id strategy in
        c.observed <- (id ^ ".web_down_at", down) :: (id ^ ".web_up_at", up) :: c.observed;
        let f =
          match strategy with
          | Rejuv.Strategy.Warm ->
            [ ("fig7.warm.web_stops_s", down, 34.0); ("fig7.warm.outage_s", up -. down, 42.0) ]
          | _ -> [ ("fig7.cold.web_stops_s", down, 27.0) ]
        in
        c.fidelity <- c.fidelity @ f)

let degradation ~before ~after =
  if before <= 0.0 then 0.0 else Float.max 0.0 (1.0 -. (after /. before))

let record_degradation c size ~fig ~paper_cold strategy deg =
  c.observed <- (Printf.sprintf "%s.%s.degradation" fig (Rejuv.Strategy.id strategy), deg) :: c.observed;
  match strategy with
  | Rejuv.Strategy.Warm ->
    if size.paper then check (fig ^ " warm degradation ~0") (deg <= 0.05)
  | _ ->
    c.fidelity <- c.fidelity @ [ (fig ^ ".cold.degradation", deg, paper_cold) ];
    if size.paper then
      check
        (Printf.sprintf "%s cold degradation %.3f within 5%% of %.2f" fig deg paper_cold)
        (Float.abs (deg -. paper_cold) <= 0.05 *. paper_cold)

(* Figure 8b: one 11 GiB VM serving 10,000 x 512 KiB warm documents to
   10 connections; throughput in the window before vs just after. *)
let fig8_web c size ~seed strategy =
  cell c ("fig8_web." ^ Rejuv.Strategy.id strategy) (fun () ->
      let s =
        boot c ~kind:"fig8_web"
          Scenario.Config.(
            default
            |> with_vms 1 ~mem_bytes:(Simkit.Units.gib size.f8_mem_gib)
            |> with_workload (web ~docs:size.f8_docs)
            |> with_seed seed)
      in
      let sample, finish = cache_tracker s in
      let engine = Scenario.engine s in
      let vm = List.hd (Scenario.vms s) in
      c.cache_capacity <-
        Guest.Page_cache.capacity_bytes (Guest.Kernel.page_cache (Scenario.vm_kernel vm));
      let rng = Scenario.rng s in
      let load =
        Netsim.Httperf.create engine ~connections:10
          ~request:(request c (fun () -> Scenario.vm_httpd vm) ~rng)
          ()
      in
      Netsim.Httperf.start load;
      let window = 20.0 in
      let epoch = Engine.now engine in
      let marks = ref [] in
      ignore
        (Engine.schedule engine ~delay:(2.0 *. window) (fun () ->
             let t = Engine.now engine in
             marks := [ ("b2", epoch +. window, t) ];
             sample ();
             reboot strategy s (fun () ->
                 let up = Engine.now engine in
                 marks := ("a1", up, up +. window) :: !marks;
                 ignore
                   (Engine.schedule engine ~delay:(2.0 *. window) (fun () ->
                        Netsim.Httperf.stop load)))));
      engine_run ~until:(epoch +. 1200.0) engine;
      finish c;
      c.httperf_completed <- c.httperf_completed + Netsim.Httperf.completed load;
      c.paper_events <- c.paper_events + Engine.events_processed engine;
      let rate tag =
        match List.assoc_opt tag (List.map (fun (l, a, b) -> (l, (a, b))) !marks) with
        | Some (lo, hi) -> Netsim.Httperf.throughput_between load ~lo ~hi
        | None -> failwith ("fig8_web: window " ^ tag ^ " missing")
      in
      record_degradation c size ~fig:"fig8_web" ~paper_cold:0.69 strategy
        (degradation ~before:(rate "b2") ~after:(rate "a1")))

(* Figure 8a: sequential reads of a 512 MiB cached file in an 11 GiB VM,
   first pass before vs first pass after the reboot. *)
let fig8_file c size ~seed strategy =
  cell c ("fig8_file." ^ Rejuv.Strategy.id strategy) (fun () ->
      let s =
        boot c ~kind:"fig8_file"
          Scenario.Config.(
            default |> with_vms 1 ~mem_bytes:(Simkit.Units.gib size.f8_mem_gib) |> with_seed seed)
      in
      let sample, finish = cache_tracker s in
      let engine = Scenario.engine s in
      let vm = List.hd (Scenario.vms s) in
      let bytes = Simkit.Units.mib size.f8_file_mib in
      let mib = float_of_int size.f8_file_mib in
      let fs () = Guest.Kernel.filesystem (Scenario.vm_kernel vm) in
      let file = Guest.Filesystem.create_file (fs ()) ~name:"bigfile" ~bytes () in
      timed_warm c (fun () -> Guest.Filesystem.warm_file (fs ()) file);
      let read_rate file k =
        let t0 = Engine.now engine in
        Guest.Filesystem.read (fs ()) file ~access:Guest.Filesystem.Sequential (fun () ->
            k (mib /. Float.max (Engine.now engine -. t0) 1e-9))
      in
      let result = ref None in
      read_rate file (fun before ->
          read_rate file (fun _second ->
              sample ();
              reboot strategy s (fun () ->
                  (* A cold reboot gives a fresh filesystem: re-create the
                     file uncached, as the registered experiment does. *)
                  let file =
                    match
                      List.find_opt
                        (fun f -> Guest.Filesystem.file_name f = "bigfile")
                        (Guest.Filesystem.files (fs ()))
                    with
                    | Some f -> f
                    | None -> Guest.Filesystem.create_file (fs ()) ~name:"bigfile" ~bytes ()
                  in
                  read_rate file (fun after -> result := Some (before, after)))));
      engine_run engine;
      finish c;
      match !result with
      | None -> Simkit.Fault.fail (Simkit.Fault.Stalled "fig8_file")
      | Some (before, after) ->
        record_degradation c size ~fig:"fig8_file" ~paper_cold:0.91 strategy
          (degradation ~before ~after))

(* --- fleet cells -------------------------------------------------------- *)

(* Fleet.create + Fleet.start in the [fleet_cell] shape — waves of 16,
   SLO 0.75, 50 req/s, 1 GiB Ssh guests — timed as one set-up of kind
   [name]. Returns the fleet and the create and start times. *)
let fleet_boot c ~seed ~hosts ~partitions ~traffic name =
  let cfg =
    {
      Rejuv.Fleet.Config.default with
      hosts;
      wave_width = 16;
      slo = 0.75;
      host = { Scenario.Config.default with seed; traffic };
      load_rate_per_s = 50.0;
      partitions;
    }
  in
  let t0 = now () in
  let fleet = Span.with_ "rejuv.fleet.create" (fun () -> Rejuv.Fleet.create cfg) in
  let t1 = now () in
  Span.with_ "rejuv.fleet.start" (fun () -> Rejuv.Fleet.start fleet);
  let t2 = now () in
  c.setups <- (name, t2 -. t0) :: c.setups;
  (fleet, t1 -. t0, t2 -. t1)

(* One rolling warm pass over a booted fleet. Returns the report's
   JSON. *)
let fleet c ~seed ~hosts ~partitions ~traffic name =
  let json = ref "" in
  cell c name (fun () ->
      let fleet, create_s, start_s = fleet_boot c ~seed ~hosts ~partitions ~traffic name in
      let t2 = now () in
      let w0 = allocated_words () and e0 = Engine.domain_events_processed () in
      let report =
        Span.with_ "rejuv.fleet.run" (fun () ->
            Rejuv.Fleet.run fleet ~strategy:(Rejuv.Wave.Reboot Rejuv.Strategy.Warm))
      in
      let run_s = now () -. t2 in
      let par = Rejuv.Fleet.par fleet in
      let st = Simkit.Par_engine.stats par in
      for i = 0 to Simkit.Par_engine.shards par - 1 do
        finish_engine c (Simkit.Par_engine.shard par i)
      done;
      c.par_rounds <- c.par_rounds + st.Simkit.Par_engine.par_rounds;
      c.par_barrier_waits <- c.par_barrier_waits + st.par_barrier_waits;
      c.par_messages <- c.par_messages + st.par_messages;
      c.fleet_create_s <- c.fleet_create_s +. create_s;
      c.fleet_start_s <- c.fleet_start_s +. start_s;
      c.fleet_run_s <- c.fleet_run_s +. run_s;
      c.fleet_run_words <- c.fleet_run_words +. (allocated_words () -. w0);
      c.fleet_run_events <- c.fleet_run_events + (Engine.domain_events_processed () - e0);
      c.fleet_host_quanta <- c.fleet_host_quanta +. float_of_int (hosts * st.par_quantum_ticks);
      c.fleet_makespan_s <- Float.max c.fleet_makespan_s report.Rejuv.Fleet.makespan_s;
      (* The spare is the only host stack the fleet exposes. *)
      List.iter
        (fun v ->
          match Guest.Page_cache.check_invariants (Guest.Kernel.page_cache (Scenario.vm_kernel v)) with
          | Ok () -> ()
          | Error e -> failwith ("spare page cache invariant: " ^ e))
        (Scenario.vms (Rejuv.Fleet.spare fleet));
      check "fleet slo_met" report.slo_met;
      check "fleet offered load" (report.offered > 0);
      json := Rejuv.Experiment.Result.(to_json (Fleet [ report ])));
  !json

(* --- agreement with the registered experiments -------------------------- *)

(* The seed the registered experiments run at: the config default. *)
let registered_seed = Scenario.Config.default.Scenario.Config.seed

let same name observed registered =
  match List.assoc_opt name observed with
  | None -> failwith (name ^ " not observed")
  | Some v ->
    check (Printf.sprintf "%s %.17g, registered experiment %.17g" name v registered) (v = registered)

(* Runs the registered [fig7], [fig8_web] and [fig8_file] and checks
   that [observed], the paper cells' outputs at [registered_seed] and
   the paper's sizes, equal theirs exactly. One cell per experiment. *)
let registered_paper c ~observed =
  List.iter
    (fun strategy ->
      let id = Rejuv.Strategy.id strategy in
      cell c ("registered.fig7." ^ id) (fun () ->
          let r = Rejuv.Experiment.fig7 ~strategy () in
          let at what = function Some t -> t | None -> failwith ("registered fig7: no " ^ what) in
          same ("fig7." ^ id ^ ".web_down_at") observed (at "outage" r.web_down_at);
          same ("fig7." ^ id ^ ".web_up_at") observed (at "recovery" r.web_up_at));
      cell c ("registered.fig8_web." ^ id) (fun () ->
          same ("fig8_web." ^ id ^ ".degradation") observed
            (Rejuv.Experiment.fig8_web ~strategy ()).degradation);
      cell c ("registered.fig8_file." ^ id) (fun () ->
          same ("fig8_file." ^ id ^ ".degradation") observed
            (Rejuv.Experiment.fig8_file ~strategy ()).degradation))
    Rejuv.Strategy.[ Warm; Cold ]

(* Runs the registered [fleet_cell] in the shape of [fleet] and checks
   that its report's JSON equals [report], a [fleet] cell's at
   [registered_seed]. *)
let registered_fleet c ~hosts ~traffic ~report =
  cell c "registered.fleet_cell" (fun () ->
      let r =
        Rejuv.Experiment.fleet_cell ~traffic ~seed:registered_seed ~hosts ~width:16 ~slo:0.75
          ~strategy:(Rejuv.Wave.Reboot Rejuv.Strategy.Warm) ()
      in
      check "fleet report equals the registered fleet_cell's"
        (Rejuv.Experiment.Result.(to_json (Fleet [ r ])) = report))
