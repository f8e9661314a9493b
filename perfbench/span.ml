(* Host-time spans around the benchmark's calls into each layer.

   Tracing is off by default: [with_] then only calls its thunk. When
   on, every span records its name, host start/stop and parent, kept in
   memory and written once at the end of the run. Span names are
   [<library>.<module>.<what>]; the first two components name the
   layer whose self time the span counts towards. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span; -1 at the top *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let completed : t list ref = ref []
let open_ : t list ref = ref []
let next_id = ref 0

let now () = Unix.gettimeofday ()

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_ with s :: _ -> s.id | [] -> -1 in
    let s = { id = !next_id; name; parent; start = now (); stop = 0.0 } in
    incr next_id;
    open_ := s :: !open_;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        open_ := List.tl !open_;
        completed := s :: !completed)
  end

let spans () = List.sort (fun a b -> compare a.id b.id) !completed

let layer name =
  match String.split_on_char '.' name with
  | a :: b :: _ :: _ -> a ^ "." ^ b
  | _ -> name

(* Self time: a span's duration minus the part its children cover,
   summed per layer. *)
let self_times () =
  let all = spans () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    all;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let children = Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 in
      let l = layer s.name in
      let prev = Option.value (Hashtbl.find_opt per_layer l) ~default:0.0 in
      Hashtbl.replace per_layer l (prev +. (s.stop -. s.start -. children)))
    all;
  List.sort compare (List.of_seq (Hashtbl.to_seq per_layer))

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The event format of [Simkit.Trace.to_chrome_json] — complete ("X")
   events, microsecond timestamps — with host seconds since the first
   span instead of simulated seconds, and the parent in [args]. *)
let to_chrome_json () =
  let all = spans () in
  let origin = match all with s :: _ -> s.start | [] -> 0.0 in
  let names = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) all;
  let event s =
    Printf.sprintf
      {|{"name":"%s","ph":"X","ts":%.0f,"dur":%.0f,"pid":1,"tid":1,"args":{"id":%d,"parent":%d,"parent_name":"%s"}}|}
      (json_escape s.name)
      ((s.start -. origin) *. 1e6)
      ((s.stop -. s.start) *. 1e6)
      s.id s.parent
      (json_escape (Option.value (Hashtbl.find_opt names s.parent) ~default:""))
  in
  "[" ^ String.concat ",\n" (List.map event all) ^ "]"
