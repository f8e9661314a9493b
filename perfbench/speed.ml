(* The host's speed, measured by a fixed reference kernel.

   On a shared host the same pass can take 1.1 s or 2.4 s, depending
   on what the neighbours run on the same host: the simulator's CPU
   time grows with its wall time, so the slowdown is in instructions per
   second, not in time taken away. A kernel that uses none of the
   simulator's code, timed between the cells of a run, slows with it,
   if by somewhat less. The end-to-end timings are scaled by
   [nominal_s / median kernel time], which gives each one in seconds at
   the speed where the kernel takes [nominal_s]. A change to the
   simulator cannot move the kernel: it uses the standard library
   only. *)

module FMap = Map.Make (Float)

(* An event loop in miniature: pop the earliest of 20 000 timestamps
   from a balanced tree, push a later one, and overwrite a small hash
   table, much as the engine and its handlers allocate and chase
   pointers. *)
let kernel () =
  let rng = Random.State.make [| 1 |] in
  let table = Hashtbl.create 16 in
  let queue = ref FMap.empty in
  for i = 0 to 19_999 do
    queue := FMap.add (Random.State.float rng 1.0) i !queue
  done;
  for _ = 1 to 40_000 do
    let t, i = FMap.min_binding !queue in
    queue := FMap.remove t !queue;
    Hashtbl.replace table (i land 4095) [ t; float_of_int i ];
    queue := FMap.add (t +. Random.State.float rng 1.0) i !queue
  done;
  ignore (Sys.opaque_identity (!queue, table))

(* The kernel's host time on a quiet shared 2-vCPU Intel Xeon VM,
   OCaml 5.1.1, release build. *)
let nominal_s = 0.055

(* Two timed runs of the kernel from a collected heap. *)
let sample () =
  List.init 2 (fun _ ->
      Gc.full_major ();
      let t0 = Span.now () in
      kernel ();
      Span.now () -. t0)
