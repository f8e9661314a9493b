(* The simulator benchmark. One workload per run:

     perfbench --workload paper-web|fleet-request|fleet-fluid
               [--seed N] [--seconds S] [--trace 0|1]

   With --trace 0 it repeats whole passes of the workload's cells for
   about S seconds and reports the end-to-end metrics (medians over
   passes; timings scaled by the host speed a reference kernel measures
   between cells, see speed.ml). With --trace 1 it runs a warm-up pass
   checked against the registered experiments, then one untraced and
   one traced pass, and reports the per-layer metrics, writing the
   traced pass's host-time spans as a Chrome trace. Informational lines start with "# "; the
   last line of stdout is the JSON result. See README.md. *)

module Engine = Simkit.Engine

type workload = Paper_web | Fleet_request | Fleet_fluid

let workloads =
  [ ("paper-web", Paper_web); ("fleet-request", Fleet_request); ("fleet-fluid", Fleet_fluid) ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Cells.size;
  commit : string;
  out_dir : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload paper-web|fleet-request|fleet-fluid [--seed N] \
     [--seconds S] [--trace 0|1] [--size full|tiny] [--commit SHA] [--out DIR]";
  exit 2

let parse_args () =
  let o =
    ref
      {
        workload = "";
        seed = 42;
        seconds = 10.0;
        trace = false;
        size = Cells.full;
        commit = "unknown";
        out_dir = ".perfbench/out";
      }
  in
  let rec go = function
    | [] -> ()
    | flag :: v :: rest ->
      (match flag with
       | "--workload" -> o := { !o with workload = v }
       | "--seed" -> o := { !o with seed = int_of_string v }
       | "--seconds" -> o := { !o with seconds = float_of_string v }
       | "--trace" ->
         o := { !o with trace = (match v with "0" -> false | "1" -> true | _ -> usage ()) }
       | "--size" ->
         o :=
           { !o with
             size = (match v with "full" -> Cells.full | "tiny" -> Cells.tiny | _ -> usage ()) }
       | "--commit" -> o := { !o with commit = v }
       | "--out" -> o := { !o with out_dir = v }
       | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !o.workload workloads) then usage ();
  !o

let cores = Domain.recommended_domain_count ()

(* --- one pass ----------------------------------------------------------- *)

type pass = {
  c : Cells.counters;
  wall : float;
  cpu : float;
  words : float;
  events : int;
  peak_mb : float;  (** the process's top heap so far, at the pass's end *)
  reports : string list;  (** each fleet cell's report JSON *)
}

let fluid_traffic = { Netsim.Fluid.default_config with Netsim.Fluid.mode = Netsim.Fluid.Fluid }

let relative_error (_, measured, paper) = Float.abs (measured -. paper) /. paper

let paper_err c = List.fold_left (fun acc f -> Float.max acc (relative_error f)) 0.0 c.Cells.fidelity

(* A workload's timed fleet cells: (name, hosts, partitions, traffic). *)
let fleet_cells o =
  match List.assoc o.workload workloads with
  | Paper_web -> []
  | Fleet_request -> [ ("fleet.p1", o.size.Cells.fleet_hosts, 1, Netsim.Fluid.default_config) ]
  | Fleet_fluid -> [ ("fleet.fluid", o.size.fluid_hosts, 1, fluid_traffic) ]

(* [timed] runs each cell and adds its cost to the pass. *)
let run_cells o c ~timed =
  let seed = o.seed and size = o.size in
  if List.assoc o.workload workloads = Paper_web then begin
    List.iter
      (fun cell ->
        List.iter (fun s -> timed (fun () -> cell c size ~seed s)) Rejuv.Strategy.[ Warm; Cold ])
      Cells.[ fig7; fig8_web; fig8_file ];
    if size.Cells.paper && paper_err c > 0.15 then
      c.failures <- Printf.sprintf "fidelity: paper_err %.3f > 0.15" (paper_err c) :: c.failures;
    []
  end
  else
    List.map
      (fun (name, hosts, partitions, traffic) ->
        let report = ref "" in
        timed (fun () -> report := Cells.fleet c ~seed ~hosts ~partitions ~traffic name);
        !report)
      (fleet_cells o)

(* A fleet boots in tens of milliseconds and runs for seconds: sample
   its set-up twice more per pass, outside the pass's timing. *)
let extra_setups o p =
  List.iter
    (fun (name, hosts, partitions, traffic) ->
      for _ = 1 to 2 do
        Cells.cell p.c (name ^ ".setup") (fun () ->
            ignore (Cells.fleet_boot p.c ~seed:o.seed ~hosts ~partitions ~traffic name))
      done)
    (fleet_cells o)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A pass's cost is the sum of its cells'. Every cell starts from a
   compacted heap, so that one cell's garbage does not tax the next;
   [between] runs before each cell, outside the pass's timing. *)
let run_pass ?(between = ignore) o =
  let c = Cells.counters () in
  let wall = ref 0.0 and cpu = ref 0.0 and words = ref 0.0 and events = ref 0 in
  let timed f =
    between ();
    Gc.compact ();
    let t0 = Span.now () and cpu0 = Sys.time () in
    let w0 = Cells.allocated_words () and e0 = Engine.domain_events_processed () in
    f ();
    wall := !wall +. (Span.now () -. t0);
    cpu := !cpu +. (Sys.time () -. cpu0);
    words := !words +. (Cells.allocated_words () -. w0);
    events := !events + (Engine.domain_events_processed () - e0)
  in
  let reports = Span.with_ "perfbench.pass" (fun () -> run_cells o c ~timed) in
  {
    c;
    reports;
    wall = !wall;
    cpu = !cpu;
    words = !words;
    events = !events;
    peak_mb = peak_heap_mb ();
  }

(* A cell records at most one failure; the pass-level checks (fidelity,
   partition agreement) add one more to a pass whose cells all ran. *)
let failed_of (c : Cells.counters) = min c.attempted (List.length c.failures)

(* --- statistics --------------------------------------------------------- *)

let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5

(* A timing's summary: median, and the highest percentile with at least
   ten samples beyond it (none below eleven samples). *)
let summary name unit_ xs =
  let n = List.length xs in
  let tail =
    if n < 11 then "no tail percentile (< 11 samples)"
    else
      let q = 1.0 -. (10.0 /. float_of_int n) in
      Printf.sprintf "p%.0f %.4f" (100.0 *. q) (quantile xs q)
  in
  Printf.printf "# %-22s median %.4f %s, %s, n=%d\n" name (median xs) unit_ tail n

(* Set-up cost of a pass: per cell kind, the median over every set-up
   of that kind in the run, summed over kinds. *)
let setup_s passes =
  let all = List.concat_map (fun p -> p.c.Cells.setups) passes in
  List.sort_uniq compare (List.map fst all)
  |> List.fold_left
       (fun acc kind ->
         let xs = List.filter_map (fun (k, s) -> if k = kind then Some s else None) all in
         summary ("setup." ^ kind) "s" xs;
         acc +. median xs)
       0.0

(* --- probes (traced run only) ------------------------------------------- *)

(* A fig8_web-shaped replay straight through the page cache: insert
   every block of [docs] 512 KiB documents, then read as many random
   documents block by block. *)
let page_cache_replay ~capacity ~docs ~seed =
  Span.with_ "guest.page_cache.replay" (fun () ->
      let pc = Guest.Page_cache.create ~capacity_bytes:capacity () in
      let per_doc = Simkit.Units.kib 512 / Guest.Page_cache.block_bytes pc in
      let blocks = float_of_int (docs * per_doc) in
      let w0 = Cells.allocated_words () and t0 = Span.now () in
      for file = 0 to docs - 1 do
        for block = 0 to per_doc - 1 do
          Guest.Page_cache.insert pc ~file ~block
        done
      done;
      let t1 = Span.now () and w1 = Cells.allocated_words () in
      let rng = Random.State.make [| seed |] in
      for _ = 1 to docs do
        let file = Random.State.int rng docs in
        for block = 0 to per_doc - 1 do
          ignore (Guest.Page_cache.touch pc ~file ~block)
        done
      done;
      let t2 = Span.now () in
      (match Guest.Page_cache.check_invariants pc with
       | Ok () -> ()
       | Error e -> failwith ("replay page cache invariant: " ^ e));
      ((t1 -. t0) /. blocks *. 1e9, (t2 -. t1) /. blocks *. 1e9, (w1 -. w0) /. blocks))

(* One open-loop fluid stream on an empty engine over [horizon]
   simulated seconds: host ns per 0.1 s epoch tick, median of 5. *)
let fluid_open_probe ~horizon =
  Span.with_ "netsim.fluid.open_probe" (fun () ->
      median
        (List.init 5 (fun _ ->
             let e = Engine.create () in
             let s =
               Netsim.Fluid.Open.create e ~rate_per_s:50.0 ~served_fraction:(fun () -> 1.0) ()
             in
             Netsim.Fluid.Open.start s;
             let t0 = Span.now () in
             Engine.run ~until:horizon e;
             let dt = Span.now () -. t0 in
             Netsim.Fluid.Open.stop s;
             dt /. float_of_int (max 1 (Engine.events_processed e)) *. 1e9)))

(* --- output ------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit_) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit_)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed (String.concat ", " m);
  print_newline ()

(* Whether the address space is randomised (see run.py). *)
let aslr () =
  match In_channel.with_open_text "/proc/self/personality" In_channel.input_all with
  | s -> if int_of_string ("0x" ^ String.trim s) land 0x0040000 <> 0 then "off" else "on"
  | exception _ -> "unknown"

let provenance o =
  Printf.printf
    "# provenance {\"workload\": \"%s\", \"seed\": %d, \"cores\": %d, \"ocaml\": \"%s\", \
     \"profile\": \"%s\", \"commit\": \"%s\", \"size\": \"%s\", \"trace\": %b, \"aslr\": \"%s\"}\n"
    o.workload o.seed cores Sys.ocaml_version Build_info.profile o.commit
    (if o.size.Cells.paper then "full" else "tiny")
    o.trace (aslr ())

let report_cells (c : Cells.counters) =
  print_string "#  ";
  List.iter (fun (n, s) -> Printf.printf " %s %.3f s" n s) (List.rev c.cell_s);
  print_newline ();
  List.iter (fun f -> Printf.printf "# FAILED %s\n" f) (List.rev c.failures);
  if c.fidelity <> [] then begin
    List.iter
      (fun ((q, m, paper) as f) ->
        Printf.printf "# fidelity %-28s measured %8.3f  paper %6.2f  rel.err %.3f\n" q m paper
          (relative_error f))
      c.fidelity;
    Printf.printf "# fidelity paper_err %.4f (max rel. error vs the paper)\n" (paper_err c)
  end

let report_pass label p =
  Printf.printf "# %s: wall %.3f s, cpu %.3f s, %.3f Mwords, %d events, %d/%d cells ok\n" label
    p.wall p.cpu (p.words /. 1e6) p.events
    (p.c.Cells.attempted - failed_of p.c)
    p.c.attempted;
  report_cells p.c

(* fleet-request's partitions=2 cell: the same pass on 2 shards, whose
   report must match the partitions=1 one byte for byte. It runs once
   per run, outside the timed passes: on 2 vCPUs of a shared host its
   host time swings 3x with the neighbours' load (2.3-8.2 s for one
   cell in one set of runs), which would drown every timed metric. *)
let partition_check o ~p1 =
  let c = Cells.counters () in
  let p2 =
    Cells.fleet c ~seed:o.seed ~hosts:o.size.fleet_hosts ~partitions:2
      ~traffic:Netsim.Fluid.default_config "fleet.p2"
  in
  if p1 <> "" && p2 <> "" && p2 <> p1 then
    c.failures <- "fleet.p2: report differs from partitions=1" :: c.failures;
  print_endline "# partition check, untimed:";
  report_cells c;
  c

(* The run's host-speed factor: [Speed.nominal_s] over the median of
   the reference kernel's times. *)
let host_speed samples =
  summary "reference_kernel" "s" samples;
  let factor = Speed.nominal_s /. median samples in
  Printf.printf "# host speed factor %.4f (reference kernel nominal %.3f s)\n" factor Speed.nominal_s;
  factor

let end_to_end o =
  let start = Span.now () in
  let samples = ref [] in
  let between () = samples := Speed.sample () @ !samples in
  let rec loop acc =
    let p = run_pass ~between o in
    extra_setups o p;
    report_pass (Printf.sprintf "pass %d" (List.length acc + 1)) p;
    let acc = p :: acc in
    if Span.now () -. start +. p.wall <= o.seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  between ();
  let check =
    if List.assoc o.workload workloads = Fleet_request then
      partition_check o ~p1:(List.hd (List.hd passes).reports)
    else Cells.counters ()
  in
  let over f = List.map f passes in
  let setup = setup_s passes in
  summary "wall_s, unscaled" "s" (over (fun p -> p.wall));
  summary "cpu_s, unscaled" "s" (over (fun p -> p.cpu));
  let speed = host_speed !samples in
  let failed = List.fold_left (fun a p -> a + failed_of p.c) (failed_of check) passes in
  let attempted = List.fold_left (fun a p -> a + p.c.Cells.attempted) check.attempted passes in
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("setup_s", setup *. speed, "s");
      ("wall_s", median (over (fun p -> p.wall)) *. speed, "s");
      ("cpu_s", median (over (fun p -> p.cpu)) *. speed, "s");
      ("alloc_mwords", median (over (fun p -> p.words /. 1e6)), "Mwords");
      (* The first pass's peak: later ones depend on how many passes
         fit in the run. *)
      ("peak_heap_mb", (List.hd passes).peak_mb, "MB");
    ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The traced run's warm-up: an untraced pass at the registered
   experiments' seed, whose outputs must equal theirs (paper-web only at
   the paper's sizes, which are the registered ones). Afterwards the
   untraced and the traced pass both start warm, so trace.overhead_s
   does not carry the first pass's cold start. *)
let registered_check o =
  let warm = run_pass { o with seed = Cells.registered_seed } in
  report_pass (Printf.sprintf "warm-up pass, seed %d" Cells.registered_seed) warm;
  let c = Cells.counters () in
  (match List.assoc o.workload workloads with
   | Paper_web -> if o.size.Cells.paper then Cells.registered_paper c ~observed:warm.c.observed
   | Fleet_request | Fleet_fluid ->
     let _, hosts, _, traffic = List.hd (fleet_cells o) in
     Cells.registered_fleet c ~hosts ~traffic ~report:(List.hd warm.reports));
  print_endline "# registered experiments, untimed:";
  report_cells c;
  [ warm.c; c ]

let per_layer o =
  let checks = registered_check o in
  let base = run_pass o in
  report_pass "pass 1, untraced" base;
  Span.enabled := true;
  let p = run_pass o in
  report_pass "pass 2, traced" p;
  let w = List.assoc o.workload workloads in
  (* par.* come from the partitions=2 cell alone: the par_engine's
     barriers and messages exist only there. *)
  let p2 = if w = Fleet_request then partition_check o ~p1:(List.hd p.reports) else Cells.counters () in
  let c = p.c and size = o.size in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* Probes run as cells of their own, so a failed one is counted. *)
  let probes = Cells.counters () in
  let replay = ref (0.0, 0.0, 0.0) in
  if w = Paper_web then
    Cells.cell probes "page_cache.replay" (fun () ->
        replay := page_cache_replay ~capacity:c.cache_capacity ~docs:size.f8_docs ~seed:o.seed);
  let insert_ns, touch_ns, words_per_block = !replay in
  let slope_wall, slope_alloc =
    match w with
    | Paper_web -> (0.0, 0.0)
    | Fleet_request | Fleet_fluid ->
      let _, hosts, _, traffic = List.hd (fleet_cells o) in
      ignore (Cells.fleet probes ~seed:o.seed ~hosts:(hosts / 4) ~partitions:1 ~traffic "fleet.quarter");
      let k = log (float_of_int hosts /. float_of_int (hosts / 4)) in
      ( log (ratio c.fleet_run_s probes.fleet_run_s) /. k,
        log (ratio c.fleet_run_words probes.fleet_run_words) /. k )
  in
  List.iter (fun f -> Printf.printf "# FAILED %s\n" f) probes.failures;
  let horizon = if c.fleet_makespan_s > 0.0 then c.fleet_makespan_s else 3600.0 in
  let open_ns = fluid_open_probe ~horizon in
  let speedup =
    if w = Fleet_request && cores >= 2 then ratio c.fleet_run_s p2.fleet_run_s else 0.0
  in
  if w = Fleet_request then
    if cores < 2 then print_endline "# par.speedup unmeasured: fewer than 2 cores (reported as 0)"
    else Printf.printf "# par.speedup %.3f on %d cores (fleet.run, partitions 1 vs 2)\n" speedup cores;
  Span.enabled := false;
  (* Spans stay in memory until here. *)
  mkdir_p o.out_dir;
  let stem = Printf.sprintf "%s/%s-seed%d" o.out_dir o.workload o.seed in
  write_file (stem ^ ".trace.json") (Span.to_chrome_json ());
  (* Request closures run inside engine events; with no span each, their
     summed time moves from the engine's self time to the httpd's. *)
  let selfs =
    List.map
      (fun (l, s) -> if l = "simkit.engine" then (l, s -. c.httpd_s) else (l, s))
      (Span.self_times ())
  in
  let selfs = if c.httpd_s > 0.0 then List.sort compare (("guest.httpd", c.httpd_s) :: selfs) else selfs in
  write_file (stem ^ ".self.json")
    ("{"
    ^ String.concat ", " (List.map (fun (l, s) -> Printf.sprintf {|"%s": %.6f|} l s) selfs)
    ^ "}\n");
  List.iter (fun (l, s) -> Printf.printf "# self %-18s %9.3f s\n" l s) selfs;
  Printf.printf "# trace written to %s.trace.json, self times to %s.self.json\n" stem stem;
  let f = float_of_int in
  let mw x = x /. 1e6 in
  let all = checks @ [ base.c; c; p2; probes ] in
  let failed = List.fold_left (fun a x -> a + failed_of x) 0 all in
  print_result ~correct:(failed = 0)
    ~attempted:(List.fold_left (fun a (x : Cells.counters) -> a + x.attempted) 0 all)
    ~failed
    [
      ("engine.events", f p.events, "count");
      ("engine.ns_per_event", ratio p.wall (f p.events) *. 1e9, "ns");
      ("engine.queue.compactions", f c.compactions, "count");
      ("par.rounds", f p2.par_rounds, "count");
      ("par.barrier_waits", f p2.par_barrier_waits, "count");
      ("par.messages", f p2.par_messages, "count");
      ("par.speedup", speedup, "x");
      ("par.cores", f cores, "count");
      ("page_cache.hits", f c.pc_hits, "count");
      ("page_cache.misses", f c.pc_misses, "count");
      ("page_cache.warm_s", c.warm_s, "s");
      ("page_cache.warm_alloc_mwords", mw c.warm_words, "Mwords");
      ("page_cache.insert_ns", insert_ns, "ns");
      ("page_cache.touch_ns", touch_ns, "ns");
      ("page_cache.words_per_block", words_per_block, "words");
      ("httpd.requests", f c.httpd_requests, "count");
      ("httpd.request_ns", ratio c.httpd_s (f c.httpd_requests) *. 1e9, "ns");
      ("httperf.completed", f c.httperf_completed, "count");
      ("httperf.events_per_request", ratio (f c.paper_events) (f c.httperf_completed), "events");
      ("fluid.events", f c.fleet_run_events, "count");
      ("fluid.open.ns_per_epoch", open_ns, "ns");
      ("scenario.create_s", c.scenario_create_s, "s");
      ("fleet.create_s", c.fleet_create_s, "s");
      ("fleet.start_s", c.fleet_start_s, "s");
      ("fleet.run_s", c.fleet_run_s, "s");
      ("fleet.run_alloc_mwords", mw c.fleet_run_words, "Mwords");
      ("fleet.ns_per_host_quantum", ratio c.fleet_run_s c.fleet_host_quanta *. 1e9, "ns");
      ("fleet.scaling_slope.wall", slope_wall, "ratio");
      ("fleet.scaling_slope.alloc", slope_alloc, "ratio");
      ("trace.overhead_s", p.wall -. base.wall, "s");
    ]

let () =
  let o = parse_args () in
  provenance o;
  if o.trace then per_layer o else end_to_end o
