(* LRU cache over (file, block) keys, stored as block extents.

   A per-block LRU keeps one list of blocks, most recently used first.
   Here an extent [(file, [lo, hi))] stands for the list entries
   hi-1, hi-2, ..., lo: adjacent in that list, of one file, each block
   one below the one before it. The extents form one intrusive circular
   list around a sentinel, most recently used first, so recency rises
   with the block number inside an extent and the LRU block is [lo] of
   the last extent. Every operation acts on this run-length encoding
   exactly as the per-block operation acts on the blocks it stands for,
   so hits, misses, residency and eviction order are those of a
   per-block LRU (test/test_page_cache.ml checks this against one).

   Each file has an ordered index from [lo] to its (disjoint) extents
   and a count of its resident blocks. *)

module Ix = Map.Make (Int)

type extent = {
  owner : file;
  mutable lo : int;
  mutable hi : int;
  mutable prev : extent;
  mutable next : extent;
}

and file = {
  fid : int;
  mutable index : extent Ix.t;
  mutable blocks : int;
}

type t = {
  mutable capacity : int; (* blocks *)
  block_size : int;
  files : (int, file) Hashtbl.t;
  sentinel : extent; (* next: most recently used; prev: least *)
  mutable count : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~capacity_bytes ?(block_bytes = Simkit.Units.page_bytes) () =
  if capacity_bytes < 0 then invalid_arg "Page_cache.create: negative capacity";
  if block_bytes <= 0 then invalid_arg "Page_cache.create: block_bytes <= 0";
  (* The sentinel's owner is in no table, so it never matches a file. *)
  let rec sentinel =
    {
      owner = { fid = -1; index = Ix.empty; blocks = 0 };
      lo = 0;
      hi = 0;
      prev = sentinel;
      next = sentinel;
    }
  in
  {
    capacity = capacity_bytes / block_bytes;
    block_size = block_bytes;
    files = Hashtbl.create 16;
    sentinel;
    count = 0;
    hit_count = 0;
    miss_count = 0;
  }

let capacity_bytes t = t.capacity * t.block_size
let block_bytes t = t.block_size
let used_bytes t = t.count * t.block_size
let resident_blocks t = t.count
let hits t = t.hit_count
let misses t = t.miss_count

let hit_ratio t =
  let lookups = t.hit_count + t.miss_count in
  if lookups = 0 then 1.0
  else float_of_int t.hit_count /. float_of_int lookups

let file_entry t file =
  match Hashtbl.find_opt t.files file with
  | Some fe -> fe
  | None ->
    let fe = { fid = file; index = Ix.empty; blocks = 0 } in
    Hashtbl.add t.files file fe;
    fe

(* The extent of [fe] holding [block], if it is resident. *)
let extent_at fe block =
  match Ix.find_last_opt (fun lo -> lo <= block) fe.index with
  | Some (_, e) when block < e.hi -> Some e
  | _ -> None

(* Start of the first extent of [fe] above [block], capped at [limit]. *)
let next_lo fe block ~limit =
  match Ix.find_first_opt (fun lo -> lo > block) fe.index with
  | Some (lo, _) when lo < limit -> lo
  | _ -> limit

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let link_before next e =
  e.prev <- next.prev;
  e.next <- next;
  next.prev.next <- e;
  next.prev <- e

(* Index a new extent for [lo, hi) of [fe] and link it before [next]. *)
let add_extent fe lo hi next =
  let e = { owner = fe; lo; hi; prev = next; next } in
  link_before next e;
  fe.index <- Ix.add lo e fe.index

(* Make blocks [lo, hi) of [fe], held by no extent, the most recently
   used, growing the head extent when they continue its run. *)
let push_front t fe lo hi =
  let h = t.sentinel.next in
  if h.owner == fe && h.hi = lo then h.hi <- hi else add_extent fe lo hi h

(* Move blocks [a, b) of extent [e] to the MRU end: what touching them
   one by one in ascending order does. The blocks of [e] above [b] keep
   its place in the list, and the blocks below [a] follow them. *)
let promote t e a b =
  let fe = e.owner in
  if b < e.hi then begin
    add_extent fe b e.hi e;
    e.hi <- b
  end;
  if a > e.lo then begin
    e.hi <- a;
    push_front t fe a b
  end
  else if t.sentinel.next != e then begin
    unlink e;
    let h = t.sentinel.next in
    if h.owner == fe && h.hi = a then begin
      h.hi <- b;
      fe.index <- Ix.remove a fe.index
    end
    else link_before h e
  end

(* Drop the [k] least recently used blocks ([k <= count]). *)
let rec evict t k =
  if k > 0 then begin
    let e = t.sentinel.prev in
    let fe = e.owner in
    let n = Int.min k (e.hi - e.lo) in
    fe.index <- Ix.remove e.lo fe.index;
    if n = e.hi - e.lo then unlink e
    else begin
      e.lo <- e.lo + n;
      fe.index <- Ix.add e.lo e fe.index
    end;
    fe.blocks <- fe.blocks - n;
    t.count <- t.count - n;
    evict t (k - n)
  end

(* Insert the non-resident blocks [a, b) of [fe] in ascending order,
   each evicting the LRU block when the cache is full ([capacity > 0]).
   While the old blocks last, the evictions are the LRU end of the old
   list; a run longer than the whole cache evicts everything and keeps
   only its own top [capacity] blocks. *)
let add_run t fe a b =
  let over = t.count + (b - a) - t.capacity in
  let a = if over > t.count then b - t.capacity else a in
  evict t (Int.min over t.count);
  push_front t fe a b;
  fe.blocks <- fe.blocks + (b - a);
  t.count <- t.count + (b - a)

(* Walk [lo, hi) of [fe] upward: promote each resident run and fold
   [gap] over each maximal non-resident one. The index is read afresh
   per run, so a [gap] that evicts blocks further up the range sees
   them as missing, as the per-block loop would. *)
let rec walk t fe ~gap cursor hi acc =
  if cursor >= hi then acc
  else
    match extent_at fe cursor with
    | Some e ->
      let b = Int.min e.hi hi in
      promote t e cursor b;
      walk t fe ~gap b hi acc
    | None ->
      let b = next_lo fe cursor ~limit:hi in
      let acc = gap cursor b acc in
      walk t fe ~gap b hi acc

let touch_range t ~file ~lo ~hi =
  if hi <= lo then []
  else begin
    let missing =
      match Hashtbl.find_opt t.files file with
      | Some fe ->
        List.rev (walk t fe ~gap:(fun a b acc -> (a, b) :: acc) lo hi [])
      | None -> [ (lo, hi) ]
    in
    let missed = List.fold_left (fun n (a, b) -> n + (b - a)) 0 missing in
    t.miss_count <- t.miss_count + missed;
    t.hit_count <- t.hit_count + (hi - lo - missed);
    missing
  end

let insert_range t ~file ~lo ~hi =
  if t.capacity > 0 && lo < hi then begin
    let fe = file_entry t file in
    walk t fe ~gap:(fun a b () -> add_run t fe a b) lo hi ()
  end

let mem t ~file ~block =
  match Hashtbl.find_opt t.files file with
  | Some fe -> Option.is_some (extent_at fe block)
  | None -> false

let touch t ~file ~block =
  match touch_range t ~file ~lo:block ~hi:(block + 1) with
  | [] -> true
  | _ :: _ -> false

let insert t ~file ~block = insert_range t ~file ~lo:block ~hi:(block + 1)

let resize t ~capacity_bytes =
  if capacity_bytes < 0 then invalid_arg "Page_cache.resize: negative capacity";
  t.capacity <- capacity_bytes / t.block_size;
  evict t (t.count - t.capacity)

let invalidate_file t ~file =
  match Hashtbl.find_opt t.files file with
  | None -> ()
  | Some fe ->
    Ix.iter (fun _ e -> unlink e) fe.index;
    t.count <- t.count - fe.blocks;
    Hashtbl.remove t.files file

let clear t =
  Hashtbl.reset t.files;
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel;
  t.count <- 0;
  t.hit_count <- 0;
  t.miss_count <- 0

let resident_blocks_of t ~file =
  match Hashtbl.find_opt t.files file with Some fe -> fe.blocks | None -> 0

(* Getter-based for the same reason as [Vmm_heap.observe]: a cold
   reboot re-outfits the kernel with a fresh cache, and gauges should
   keep reading the live one. *)
let observe ?(prefix = "guest.page_cache") reg get =
  let g field read = Obs.Registry.gauge reg (prefix ^ "." ^ field) read in
  g "hits" (fun () -> float_of_int (hits (get ())));
  g "misses" (fun () -> float_of_int (misses (get ())));
  g "hit_ratio" (fun () -> hit_ratio (get ()));
  g "resident_bytes" (fun () -> float_of_int (used_bytes (get ())))

(* A file's index is keyed by each extent's [lo], its extents are its
   own, non-empty and disjoint, and their lengths sum to its count. *)
let file_ok file fe =
  let ok, _, sum =
    Ix.fold
      (fun lo e (ok, above, sum) ->
        ( ok && lo = e.lo && e.owner == fe && above <= lo && lo < e.hi,
          e.hi,
          sum + (e.hi - e.lo) ))
      fe.index (true, min_int, 0)
  in
  ok && file = fe.fid && sum = fe.blocks

let check_invariants t =
  let bad_files =
    Hashtbl.fold
      (fun file fe bad -> if file_ok file fe then bad else bad + 1)
      t.files 0
  in
  let indexed =
    Hashtbl.fold (fun _ fe n -> n + Ix.cardinal fe.index) t.files 0
  in
  let registered e =
    match Hashtbl.find_opt t.files e.owner.fid with
    | Some fe -> fe == e.owner
    | None -> false
  in
  let indexed_as e =
    match Ix.find_opt e.lo e.owner.index with Some x -> x == e | None -> false
  in
  (* Walk the list from the MRU end; the extent count bounds the walk. *)
  let rec walk e extents blocks =
    if e == t.sentinel then Ok (extents, blocks)
    else if extents >= indexed then Error "list longer than index"
    else if e.next.prev != e then Error "broken back-link"
    else if not (registered e && indexed_as e) then
      Error "list extent not in index"
    else walk e.next (extents + 1) (blocks + (e.hi - e.lo))
  in
  if bad_files > 0 then Error "file index inconsistent"
  else if t.sentinel.next.prev != t.sentinel then Error "broken back-link"
  else
    match walk t.sentinel.next 0 0 with
    | Error _ as err -> err
    | Ok (extents, blocks) ->
      if extents <> indexed then Error "index extent not in list"
      else if blocks <> t.count then Error "block count <> extent lengths"
      else if t.count > t.capacity then Error "over capacity"
      else Ok ()
