(* Reference model for Guest.Page_cache: the per-block LRU it replaced,
   one hash-table entry and one list node per (file, block), most
   recently used first. The range operations are the per-block loops
   whose semantics the extent cache must reproduce exactly. *)

type key = { file : int; block : int }

type node = {
  nkey : key;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  mutable capacity : int; (* blocks *)
  index : (key, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable count : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~capacity_blocks =
  {
    capacity = capacity_blocks;
    index = Hashtbl.create 64;
    head = None;
    tail = None;
    count = 0;
    hit_count = 0;
    miss_count = 0;
  }

let resident_blocks t = t.count
let hits t = t.hit_count
let misses t = t.miss_count

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with
  | Some h -> h.prev <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node

let remove t node =
  unlink t node;
  Hashtbl.remove t.index node.nkey;
  t.count <- t.count - 1

let mem t ~file ~block = Hashtbl.mem t.index { file; block }

let touch t ~file ~block =
  match Hashtbl.find_opt t.index { file; block } with
  | Some node ->
    t.hit_count <- t.hit_count + 1;
    unlink t node;
    push_front t node;
    true
  | None ->
    t.miss_count <- t.miss_count + 1;
    false

let insert t ~file ~block =
  if t.capacity = 0 then ()
  else
    let k = { file; block } in
    match Hashtbl.find_opt t.index k with
    | Some node ->
      unlink t node;
      push_front t node
    | None ->
      (if t.count >= t.capacity then
         match t.tail with Some lru -> remove t lru | None -> ());
      let node = { nkey = k; prev = None; next = None } in
      Hashtbl.replace t.index k node;
      push_front t node;
      t.count <- t.count + 1

(* Missed blocks grouped into maximal ascending runs [lo, hi). *)
let touch_range t ~file ~lo ~hi =
  let runs = ref [] in
  for block = lo to hi - 1 do
    if not (touch t ~file ~block) then
      runs :=
        match !runs with
        | (a, b) :: rest when b = block -> (a, block + 1) :: rest
        | rs -> (block, block + 1) :: rs
  done;
  List.rev !runs

let insert_range t ~file ~lo ~hi =
  for block = lo to hi - 1 do
    insert t ~file ~block
  done

let resize t ~capacity_blocks =
  t.capacity <- capacity_blocks;
  while t.count > t.capacity do
    match t.tail with Some lru -> remove t lru | None -> ()
  done

(* Walks the list rather than the table, so the removal order is the
   list's. *)
let invalidate_file t ~file =
  let rec go = function
    | None -> ()
    | Some node ->
      let next = node.next in
      if node.nkey.file = file then remove t node;
      go next
  in
  go t.head

let clear t =
  Hashtbl.reset t.index;
  t.head <- None;
  t.tail <- None;
  t.count <- 0;
  t.hit_count <- 0;
  t.miss_count <- 0

let resident_blocks_of t ~file =
  Hashtbl.fold (fun k _ acc -> if k.file = file then acc + 1 else acc) t.index 0
