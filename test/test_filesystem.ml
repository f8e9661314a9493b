open Helpers
module Fs = Guest.Filesystem
module Cache = Guest.Page_cache
module Engine = Simkit.Engine

let mib = Simkit.Units.mib

let make_disk e =
  Hw.Disk.create e ~read_mib_per_s:88.0 ~write_mib_per_s:85.0 ~seek_ms:4.0 ()

let make ?(cache_mib = 256) () =
  let e = Engine.create () in
  let cache = Cache.create ~capacity_bytes:(mib cache_mib) () in
  let fs = Fs.create e ~disk:(make_disk e) ~cache () in
  (e, fs)

let read_duration e fs file ?access () =
  task_duration e (fun k -> Fs.read fs file ?access k)

let test_create_file () =
  let _e, fs = make () in
  let f = Fs.create_file fs ~name:"data" ~bytes:(mib 1) () in
  check_int "size" (mib 1) (Fs.file_bytes f);
  check_true "name" (Fs.file_name f = "data");
  check_int "listed" 1 (List.length (Fs.files fs))

let test_cold_read_hits_disk () =
  let e, fs = make () in
  let f = Fs.create_file fs ~bytes:(mib 88) () in
  let d = read_duration e fs f () in
  (* 88 MiB at 88 MiB/s sequential + one seek. *)
  check_close ~tolerance:0.02 "disk speed" 1.004 d;
  check_float "fully cached after" 1.0 (Fs.cached_fraction fs f)

let test_warm_read_hits_memory () =
  let e, fs = make () in
  let f = Fs.create_file fs ~bytes:(mib 95) () in
  Fs.warm_file fs f;
  check_float "resident" 1.0 (Fs.cached_fraction fs f);
  let d = read_duration e fs f () in
  (* 95 MiB at 950 MiB/s. *)
  check_close ~tolerance:0.02 "memory speed" 0.1 d

let test_second_read_faster () =
  let e, fs = make () in
  let f = Fs.create_file fs ~bytes:(mib 32) () in
  let first = read_duration e fs f () in
  let second = read_duration e fs f () in
  check_true "second read ~10x faster" (second < first /. 5.0)

let test_partial_cache_mix () =
  let e, fs = make () in
  let f = Fs.create_file fs ~bytes:(mib 10) () in
  (* Cache the first half via a range read. *)
  run_task e (fun k -> Fs.read_range fs f ~offset:0 ~bytes:(mib 5) k);
  check_close ~tolerance:0.02 "half resident" 0.5 (Fs.cached_fraction fs f);
  let d = read_duration e fs f () in
  let expected = (5.0 /. 950.0) +. (5.0 /. 88.0) +. 0.004 in
  check_close ~tolerance:0.05 "mixed speed" expected d

let test_eviction_under_pressure () =
  let e, fs = make ~cache_mib:8 () in
  let f1 = Fs.create_file fs ~bytes:(mib 8) () in
  let f2 = Fs.create_file fs ~bytes:(mib 8) () in
  run_task e (fun k -> Fs.read fs f1 k);
  run_task e (fun k -> Fs.read fs f2 k);
  (* f2 displaced f1. *)
  check_true "f1 evicted" (Fs.cached_fraction fs f1 < 0.1);
  check_float "f2 resident" 1.0 (Fs.cached_fraction fs f2)

let test_read_range_bounds () =
  let _e, fs = make () in
  let f = Fs.create_file fs ~bytes:4096 () in
  check_true "negative offset"
    (try Fs.read_range fs f ~offset:(-1) ~bytes:1 (fun () -> ()); false
     with Invalid_argument _ -> true);
  check_true "past end"
    (try Fs.read_range fs f ~offset:0 ~bytes:8192 (fun () -> ()); false
     with Invalid_argument _ -> true)

let test_zero_byte_range () =
  let e, fs = make () in
  let f = Fs.create_file fs ~bytes:4096 () in
  check_float "instant" 0.0
    (task_duration e (fun k -> Fs.read_range fs f ~offset:0 ~bytes:0 k))

let test_random_access_slower_than_sequential () =
  let e, fs = make () in
  let f1 = Fs.create_file fs ~bytes:(mib 64) () in
  let f2 = Fs.create_file fs ~bytes:(mib 64) () in
  let seq = read_duration e fs f1 ~access:Fs.Sequential () in
  let rnd = read_duration e fs f2 ~access:Fs.Random () in
  check_true "penalty applies" (rnd > seq *. 1.3)

let test_analytic_times () =
  let _e, fs = make () in
  let f = Fs.create_file fs ~bytes:(mib 88) () in
  check_close ~tolerance:0.02 "uncached" 1.004 (Fs.uncached_read_time fs f);
  check_close ~tolerance:0.02 "cached" (88.0 /. 950.0)
    (Fs.cached_read_time fs f)

let test_invalid_create () =
  let _e, fs = make () in
  check_true "empty file rejected"
    (try ignore (Fs.create_file fs ~bytes:0 ()); false
     with Invalid_argument _ -> true)

let block = 4096

(* Blocks 4..7 cached, 0..3 and 8..15 not: one read is two disk
   requests (two seeks), 4 hit blocks and 12 missed ones. *)
let test_read_range_between_cached_blocks () =
  let e = Engine.create () in
  let disk = make_disk e in
  let cache = Cache.create ~capacity_bytes:(mib 1) () in
  let fs = Fs.create e ~disk ~cache () in
  let f = Fs.create_file fs ~bytes:(16 * block) () in
  run_task e (fun k ->
      Fs.read_range fs f ~offset:(4 * block) ~bytes:(4 * block) k);
  let hits = Cache.hits cache and misses = Cache.misses cache in
  let read0 = Hw.Disk.bytes_read disk in
  let d = task_duration e (fun k -> Fs.read fs f k) in
  check_int "hit blocks" 4 (Cache.hits cache - hits);
  check_int "missed blocks" 12 (Cache.misses cache - misses);
  check_int "disk bytes" (12 * block) (Hw.Disk.bytes_read disk - read0);
  let mem_s = float_of_int (4 * block) /. (950.0 *. 1048576.0) in
  let disk_s =
    (float_of_int (12 * block) /. (88.0 *. 1048576.0)) +. (2.0 *. 0.004)
  in
  check_float "two disk requests" (mem_s +. disk_s) d;
  check_float "all resident" 1.0 (Fs.cached_fraction fs f);
  check_true "invariants" (Cache.check_invariants cache = Ok ())

(* A small read of f's first blocks finishes (and g is warmed) while a
   whole-file read of f is still on the disk. The big read then
   re-inserts those blocks: they move ahead of g instead of being
   stored twice, so the cache fills exactly and g's first block is the
   next eviction. *)
let test_concurrent_reinsert_promotes () =
  let e = Engine.create () in
  let f_blocks = 256 and g_blocks = 4 in
  let cache =
    Cache.create ~capacity_bytes:((f_blocks + g_blocks) * block) ()
  in
  let fs = Fs.create e ~disk:(make_disk e) ~cache () in
  let f = Fs.create_file fs ~bytes:(f_blocks * block) () in
  let g = Fs.create_file fs ~bytes:(g_blocks * block) () in
  let h = Fs.create_file fs ~bytes:block () in
  let done_ = ref 0 in
  Fs.read fs f (fun () -> incr done_);
  Fs.read_range fs f ~offset:0 ~bytes:(4 * block) (fun () ->
      check_int "small read first" 4
        (Cache.resident_blocks_of cache ~file:(Fs.file_id f));
      Fs.warm_file fs g;
      incr done_);
  Engine.run e;
  check_int "both reads done" 2 !done_;
  check_int "cache exactly full" (f_blocks + g_blocks)
    (Cache.resident_blocks cache);
  check_float "f resident" 1.0 (Fs.cached_fraction fs f);
  check_float "g resident" 1.0 (Fs.cached_fraction fs g);
  check_true "invariants" (Cache.check_invariants cache = Ok ());
  run_task e (fun k -> Fs.read fs h k);
  check_false "g's first block evicted"
    (Cache.mem cache ~file:(Fs.file_id g) ~block:0);
  check_true "f's re-inserted block kept"
    (Cache.mem cache ~file:(Fs.file_id f) ~block:0)

let suite =
  ( "filesystem",
    [
      Alcotest.test_case "create file" `Quick test_create_file;
      Alcotest.test_case "cold read from disk" `Quick test_cold_read_hits_disk;
      Alcotest.test_case "warm read from memory" `Quick
        test_warm_read_hits_memory;
      Alcotest.test_case "second read faster" `Quick test_second_read_faster;
      Alcotest.test_case "partial cache mix" `Quick test_partial_cache_mix;
      Alcotest.test_case "eviction under pressure" `Quick
        test_eviction_under_pressure;
      Alcotest.test_case "range bounds" `Quick test_read_range_bounds;
      Alcotest.test_case "zero-byte range" `Quick test_zero_byte_range;
      Alcotest.test_case "random slower than sequential" `Quick
        test_random_access_slower_than_sequential;
      Alcotest.test_case "analytic times" `Quick test_analytic_times;
      Alcotest.test_case "invalid create" `Quick test_invalid_create;
      Alcotest.test_case "range read between cached blocks" `Quick
        test_read_range_between_cached_blocks;
      Alcotest.test_case "concurrent re-insert promotes" `Quick
        test_concurrent_reinsert_promotes;
    ] )
