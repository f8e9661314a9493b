(* Shared Cmdliner plumbing: the strategy/workload converters (built on
   the library parsers, not inline lambdas) and the generic --csv/--json
   exporter that works for every Experiment.Result. *)

open Cmdliner

(* Every enum-valued flag goes through one converter built on
   [Simkit.Enum]: uniform parsing, uniform "expected one of ..."
   rejections, and the doc string enumerates the same names. *)
let enum_conv e = Arg.conv (Simkit.Enum.of_string e, Simkit.Enum.pp e)

let enum_doc e what =
  Printf.sprintf "%s: %s" what
    (String.concat ", " (Simkit.Enum.names e))

let strategy_conv = enum_conv Rejuv.Strategy.enum

let workload_conv =
  let print ppf w =
    Format.pp_print_string ppf (Rejuv.Scenario.workload_name w)
  in
  Arg.conv (Rejuv.Scenario.workload_of_string, print)

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Rejuv.Strategy.Warm
    & info [ "strategy" ]
        ~doc:(enum_doc Rejuv.Strategy.enum "Reboot strategy"))

let workload_arg =
  Arg.(
    value
    & opt workload_conv Rejuv.Scenario.Ssh
    & info [ "workload" ]
        ~doc:(enum_doc Rejuv.Scenario.workload_enum "Service in each VM"))

let wave_strategy_conv = enum_conv Rejuv.Wave.strategy_enum

let wave_strategy_arg =
  Arg.(
    value
    & opt (some wave_strategy_conv) None
    & info [ "wave-strategy" ]
        ~doc:
          (enum_doc Rejuv.Wave.strategy_enum
             "Per-wave rejuvenation strategy (default: all)"))

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the data as CSV to $(docv)")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the data as JSON to $(docv)")

let memdyn_conv = enum_conv Mem.Memdyn.mode_enum

let memdyn_arg =
  Arg.(
    value
    & opt memdyn_conv Mem.Memdyn.Off
    & info [ "memdyn" ] ~docv:"MODE"
        ~doc:
          (enum_doc Mem.Memdyn.mode_enum
             "Memory-dynamics mode (dirty-page tracking, pre-suspend \
              ballooning, streamed demand-paged restore); off is the exact \
              static-memory model"))

let traffic_conv = enum_conv Netsim.Fluid.mode_enum

let traffic_arg =
  Arg.(
    value
    & opt (some traffic_conv) None
    & info [ "traffic" ] ~docv:"MODE"
        ~doc:
          (enum_doc Netsim.Fluid.mode_enum
             "Client traffic model — per-request simulates every request \
              event-by-event, fluid integrates the whole population as a \
              flow at rate-change epochs, hybrid carries the bulk as fluid \
              plus a small per-request tracer cohort. Default: the \
              experiment's own axis/default"))

let clients_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "clients" ] ~docv:"N,..."
        ~doc:
          "Client populations for the elastic_traffic grid (default \
           10,1000,100000; per-request cells cap at 1000)")

let jobs_arg =
  Arg.(
    value
    & opt int (Runner.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for parallel sweeps (1 = sequential)")

let partitions_arg =
  Arg.(
    value & opt int 1
    & info [ "partitions" ] ~docv:"N"
        ~doc:
          "Shards (worker domains) a fleet simulation is partitioned \
           across. Results are byte-identical for every value; this only \
           spreads one run's hosts over cores. Migrate strategies require \
           1.")

(* --- metrics plane --------------------------------------------------------- *)

let metrics_format_conv = enum_conv Obs.Export.format_enum

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some Obs.Export.Json) (some metrics_format_conv) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "After the run, print the collected metrics (engine, disk, VMM \
           heap, page caches, request latencies) as $(docv): json \
           (default), csv or prom")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the runner's sweep metrics as JSON to $(docv)")

(* The export's [now] (for counter rates): the instrumented engine
   publishes its clock as a gauge, so read it back from the registry. *)
let registry_now reg =
  match Obs.Registry.find reg "sim.engine.now_s" with
  | Some (Obs.Registry.Gauge g) -> Obs.Metric.gauge_value g
  | _ -> 0.0

let print_metrics ~registry fmt =
  Option.iter
    (fun f ->
      print_string (Obs.Export.render f ~now:(registry_now registry) registry))
    fmt

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Format.printf "wrote %s@." path

let csv_string ~header rows =
  let line cells = String.concat "," cells in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

(* One call exports a whole batch: a single result is written bare, a
   multi-experiment batch becomes a JSON object / sectioned CSV. *)
let export ~csv ~json (named : (string * Rejuv.Experiment.Result.t) list) =
  Option.iter
    (fun path ->
      let section (id, r) =
        let header, rows = Rejuv.Experiment.Result.csv r in
        match named with
        | [ _ ] -> csv_string ~header rows
        | _ -> Printf.sprintf "# %s\n%s" id (csv_string ~header rows)
      in
      write_file path (String.concat "\n" (List.map section named)))
    csv;
  Option.iter
    (fun path ->
      let body =
        match named with
        | [ (_, r) ] -> Rejuv.Experiment.Result.to_json r
        | _ ->
          "{"
          ^ String.concat ","
              (List.map
                 (fun (id, r) ->
                   Simkit.Jsonx.escape id ^ ":"
                   ^ Rejuv.Experiment.Result.to_json r)
                 named)
          ^ "}"
      in
      write_file path body)
    json
