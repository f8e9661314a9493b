(** Guest file cache (page cache) with LRU replacement.

    The cache is exactly a per-block LRU over [(file, block)] keys, but
    stores runs of blocks as extents, so reading or inserting a range of
    a file costs O(log extents of the file) per extent it meets, not one
    lookup per block.

    An operating system keeps file contents in free memory; losing this
    cache is exactly why the paper's cold-VM reboot degrades throughput
    by 91 % (file reads) and 69 % (web serving) right after the reboot.
    The cache object survives on-memory suspend/resume — its contents
    are part of the preserved memory image — and is cleared by an OS
    boot. *)

type t

val create : capacity_bytes:int -> ?block_bytes:int -> unit -> t
(** [block_bytes] defaults to the 4 KiB page size. *)

val capacity_bytes : t -> int
val block_bytes : t -> int
val used_bytes : t -> int
val resident_blocks : t -> int

val mem : t -> file:int -> block:int -> bool
(** Presence test without promoting the entry or counting a hit. *)

val touch : t -> file:int -> block:int -> bool
(** Look a block up for a read: on hit, promote to most-recently-used
    and count a hit; on miss count a miss. *)

val insert : t -> file:int -> block:int -> unit
(** Add a block (after reading it from disk), evicting least-recently-
    used blocks if the cache is full. Re-inserting promotes. *)

val touch_range : t -> file:int -> lo:int -> hi:int -> (int * int) list
(** [touch] every block of [\[lo, hi)] in ascending order and return the
    blocks that missed as maximal runs [(lo', hi')], ascending. Empty
    when [hi <= lo]. *)

val insert_range : t -> file:int -> lo:int -> hi:int -> unit
(** [insert] every block of [\[lo, hi)] in ascending order — so when the
    run is longer than the cache, its own first blocks are evicted. *)

val invalidate_file : t -> file:int -> unit
(** Drop every block of one file (truncate/unlink). O(extents of the
    file). *)

val clear : t -> unit
(** Drop everything and reset the counters — an OS reboot. *)

val resize : t -> capacity_bytes:int -> unit
(** Change the cache's capacity — what the balloon driver does to the
    page cache when the VM's memory is inflated or deflated. Shrinking
    evicts least-recently-used blocks immediately. *)

val hits : t -> int
val misses : t -> int

val hit_ratio : t -> float
(** Hits / lookups, 1.0 when no lookups were made. *)

val resident_blocks_of : t -> file:int -> int
(** O(1). *)

val check_invariants : t -> (unit, string) result
(** Extents are non-empty and disjoint, the LRU list and the per-file
    indexes hold the same extents, block counts equal the sum of extent
    lengths, and the cache is within capacity. For tests. *)

val observe : ?prefix:string -> Obs.Registry.t -> (unit -> t) -> unit
(** Register pull gauges (hits, misses, hit ratio, resident bytes)
    under [prefix] (default ["guest.page_cache"]). The cache is fetched
    through the getter on every read, so gauges follow a cache replaced
    by a cold reboot. *)
