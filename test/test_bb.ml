(* The burst-buffer tier: unit tests of the write-back shim driven with
   explicit timestamps, plus the end-to-end claim — all 17 applications
   run through the tier under session semantics and only FLASH fails,
   matching the paper's 16/17 result for the direct PFS. *)

module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Namespace = Hpcfs_fs.Namespace
module Fdata = Hpcfs_fs.Fdata
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Backoff = Hpcfs_util.Backoff
module Registry = Hpcfs_apps.Registry
module Validation = Hpcfs_apps.Validation

let s = Bytes.of_string
let str b = Bytes.to_string b

let make ?(semantics = Consistency.Session) ?(policy = Drain.Sync_on_close)
    ?(ranks_per_node = 2) ?capacity () =
  let pfs = Pfs.create semantics in
  let config =
    { Tier.ranks_per_node; policy; capacity_per_node = capacity;
      retry = Backoff.default }
  in
  (pfs, Tier.create ~config pfs)

(* Write-back basics ------------------------------------------------------- *)

let test_read_your_writes () =
  let pfs, tier = make () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "hello");
  Alcotest.(check int) "staged, not drained" 5 (Tier.occupancy tier);
  Alcotest.(check int) "nothing on the PFS yet" 0 (Pfs.file_size pfs "/f");
  let r = Tier.read tier ~time:3 ~rank:0 "/f" ~off:0 ~len:5 in
  Alcotest.(check string) "own write readable" "hello" (str r.Fdata.data);
  Alcotest.(check int) "not stale" 0 r.Fdata.stale_bytes;
  let st = Tier.stats tier in
  Alcotest.(check int) "served from the node log" 1 st.Tier.cache_hits;
  Alcotest.(check int) "no PFS read underneath" 0 st.Tier.cache_misses

let test_node_sharing () =
  (* ranks_per_node = 2: ranks 0 and 1 share a buffer, rank 2 does not. *)
  let _, tier = make () in
  Alcotest.(check int) "rank 1 node" 0 (Tier.node_of_rank tier 1);
  Alcotest.(check int) "rank 2 node" 1 (Tier.node_of_rank tier 2);
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  ignore (Tier.open_file tier ~time:1 ~rank:1 "/f");
  ignore (Tier.open_file tier ~time:1 ~rank:2 "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "abc");
  let peer = Tier.read tier ~time:3 ~rank:1 "/f" ~off:0 ~len:3 in
  Alcotest.(check string) "same node sees staged data" "abc"
    (str peer.Fdata.data);
  let remote = Tier.read tier ~time:4 ~rank:2 "/f" ~off:0 ~len:3 in
  (* The tier's size metadata is global, but undrained data is unreachable
     off-node: the remote read gets holes, all stale against the strong
     ground truth. *)
  Alcotest.(check string) "other node sees holes" "\000\000\000"
    (str remote.Fdata.data);
  Alcotest.(check int) "remote bytes stale" 3 remote.Fdata.stale_bytes;
  let st = Tier.stats tier in
  Alcotest.(check int) "peer read was a hit" 1 st.Tier.cache_hits

let test_sync_close_drains () =
  let pfs, tier = make () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "abcdef");
  Tier.close_file tier ~time:3 ~rank:0 "/f";
  Alcotest.(check int) "buffer empty after close" 0 (Tier.occupancy tier);
  let st = Tier.stats tier in
  Alcotest.(check int) "drained" 6 st.Tier.core.drained_bytes;
  Alcotest.(check int) "the close stalled" 1 st.Tier.core.stalls;
  Alcotest.(check int) "stalled bytes" 6 st.Tier.core.stalled_bytes;
  (* The drain replayed the write with its original timestamp, so a
     session reader that reopens sees exactly what a direct run shows. *)
  ignore (Pfs.open_file pfs ~time:4 ~rank:1 "/f");
  let r = Pfs.read pfs ~time:5 ~rank:1 "/f" ~off:0 ~len:6 in
  Alcotest.(check string) "visible on the PFS" "abcdef" (str r.Fdata.data)

let test_async_drain () =
  let policy = Drain.Async { bandwidth_bytes_per_tick = 4; drain_interval = 8 } in
  let _, tier = make ~policy () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (Bytes.make 16 'x');
  (* Before the interval elapses nothing drains in the background. *)
  Tier.write tier ~time:4 ~rank:0 "/f" ~off:16 (Bytes.make 16 'y');
  Alcotest.(check int) "all buffered" 32 (Tier.occupancy tier);
  (* t=40: 38 ticks since the last drain x 4 B/tick >= 32 B of backlog. *)
  Tier.write tier ~time:40 ~rank:0 "/f" ~off:32 (Bytes.make 4 'z');
  Alcotest.(check int) "background drained the backlog" 4
    (Tier.occupancy tier);
  Tier.close_file tier ~time:41 ~rank:0 "/f";
  let st = Tier.stats tier in
  Alcotest.(check int) "close flushed the remainder" 36
    st.Tier.core.drained_bytes;
  Alcotest.(check int) "only the remainder stalled" 4 st.Tier.core.stalled_bytes

let test_on_laminate_defers () =
  let pfs, tier = make ~policy:Drain.On_laminate () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "secret");
  Tier.close_file tier ~time:3 ~rank:0 "/f";
  Alcotest.(check int) "close drained nothing" 6 (Tier.occupancy tier);
  Alcotest.(check int) "PFS still empty" 0 (Pfs.file_size pfs "/f");
  Tier.stage_out tier ~time:4 "/f";
  Alcotest.(check int) "stage-out drained all" 0 (Tier.occupancy tier);
  let st = Tier.stats tier in
  Alcotest.(check int) "stage-out bytes" 6 st.Tier.stage_out_bytes;
  Alcotest.(check int) "no stall recorded" 0 st.Tier.core.stalls;
  (* Laminated: globally visible without reopening, and read-only. *)
  let r = Pfs.read pfs ~time:5 ~rank:3 "/f" ~off:0 ~len:6 in
  Alcotest.(check string) "published to everyone" "secret" (str r.Fdata.data);
  Alcotest.check_raises "write after lamination rejected"
    (Invalid_argument "Tier.write: file is laminated") (fun () ->
      Tier.write tier ~time:6 ~rank:0 "/f" ~off:0 (s "x"))

let test_capacity_eviction () =
  let _, tier = make ~capacity:8 () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (Bytes.make 6 'a');
  Tier.write tier ~time:3 ~rank:0 "/f" ~off:6 (Bytes.make 6 'b');
  (* 12 > 8: the oldest extent was force-drained to make room. *)
  Alcotest.(check int) "under capacity" 6 (Tier.occupancy tier);
  let st = Tier.stats tier in
  Alcotest.(check int) "eviction stalled" 1 st.Tier.core.stalls;
  Alcotest.(check int) "oldest extent evicted" 6 st.Tier.core.stalled_bytes;
  Alcotest.(check int) "peak saw the first write only" 6
    st.Tier.core.peak_occupancy

let test_stage_in () =
  let pfs, tier = make () in
  (* Seed the PFS directly, as input files are. *)
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/in");
  Pfs.write pfs ~time:2 ~rank:0 "/in" ~off:0 (s "input-data");
  Pfs.close_file pfs ~time:3 ~rank:0 "/in";
  ignore (Tier.open_file tier ~time:4 ~rank:2 "/in");
  let n = Tier.stage_in tier ~time:5 ~rank:2 "/in" in
  Alcotest.(check int) "whole file staged" 10 n;
  let r = Tier.read tier ~time:6 ~rank:2 "/in" ~off:2 ~len:4 in
  Alcotest.(check string) "served from the snapshot" "put-"
    (str r.Fdata.data);
  let st = Tier.stats tier in
  Alcotest.(check int) "stage-in bytes" 10 st.Tier.stage_in_bytes;
  Alcotest.(check int) "snapshot read is a hit" 1 st.Tier.cache_hits;
  (* Reopening invalidates the snapshot: the next read goes to the PFS. *)
  ignore (Tier.open_file tier ~time:7 ~rank:2 "/in");
  ignore (Tier.read tier ~time:8 ~rank:2 "/in" ~off:0 ~len:4);
  Alcotest.(check int) "miss after reopen" 1
    (Tier.stats tier).Tier.cache_misses

let test_close_to_open_invalidation () =
  let _, tier = make () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "abcd");
  Tier.close_file tier ~time:3 ~rank:0 "/f";
  (* Drained extents serve reads until the node reopens the file... *)
  let r = Tier.read tier ~time:4 ~rank:0 "/f" ~off:0 ~len:4 in
  Alcotest.(check string) "cached after drain" "abcd" (str r.Fdata.data);
  Alcotest.(check int) "still a hit" 1 (Tier.stats tier).Tier.cache_hits;
  ignore (Tier.open_file tier ~time:5 ~rank:0 "/f");
  ignore (Tier.read tier ~time:6 ~rank:0 "/f" ~off:0 ~len:4);
  Alcotest.(check int) "reopen dropped the cache" 1
    (Tier.stats tier).Tier.cache_misses

let test_truncate_and_size () =
  let pfs, tier = make () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "0123456789");
  Alcotest.(check int) "size includes staged bytes" 10
    (Tier.file_size tier "/f");
  Alcotest.(check int) "PFS size is 0" 0 (Pfs.file_size pfs "/f");
  Tier.truncate tier ~time:3 "/f" 4;
  Alcotest.(check int) "staged tail discarded" 4 (Tier.occupancy tier);
  Alcotest.(check int) "size follows" 4 (Tier.file_size tier "/f");
  Tier.close_file tier ~time:4 ~rank:0 "/f";
  ignore (Pfs.open_file pfs ~time:5 ~rank:1 "/f");
  let r = Pfs.read pfs ~time:6 ~rank:1 "/f" ~off:0 ~len:10 in
  Alcotest.(check string) "only the kept prefix drained" "0123"
    (str r.Fdata.data)

let test_staleness_accounting () =
  (* On_laminate and a remote reader: the data exists (strong ground
     truth) but is unreachable off-node — the read is stale. *)
  let _, tier = make ~policy:Drain.On_laminate () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "wxyz");
  Tier.close_file tier ~time:3 ~rank:0 "/f";
  ignore (Tier.open_file tier ~time:4 ~rank:2 "/f");
  let r = Tier.read tier ~time:5 ~rank:2 "/f" ~off:0 ~len:4 in
  Alcotest.(check int) "all four bytes stale" 4 r.Fdata.stale_bytes;
  let st = Tier.stats tier in
  Alcotest.(check int) "stale read counted" 1 st.Tier.core.stale_reads;
  Alcotest.(check int) "stale bytes counted" 4 st.Tier.core.stale_bytes;
  (* After publication the same read is clean. *)
  Tier.stage_out tier ~time:6 "/f";
  ignore (Tier.open_file tier ~time:7 ~rank:2 "/f");
  let r2 = Tier.read tier ~time:8 ~rank:2 "/f" ~off:0 ~len:4 in
  Alcotest.(check string) "published data" "wxyz" (str r2.Fdata.data);
  Alcotest.(check int) "no longer stale" 0 r2.Fdata.stale_bytes

let test_drain_preserves_composition () =
  (* Two nodes overwrite the same region; draining must not reorder them:
     the PFS composition equals a direct run's (issue-time order under
     lamination-free strong read-back). *)
  let pfs, tier = make ~ranks_per_node:1 () in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  ignore (Tier.open_file tier ~time:1 ~rank:1 "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (s "AAAA");
  Tier.write tier ~time:3 ~rank:1 "/f" ~off:2 (s "BBBB");
  (* Close in the opposite order of writing. *)
  Tier.close_file tier ~time:4 ~rank:1 "/f";
  Tier.close_file tier ~time:5 ~rank:0 "/f";
  let direct = Pfs.create Consistency.Session in
  ignore (Pfs.open_file direct ~time:1 ~rank:0 ~create:true "/f");
  ignore (Pfs.open_file direct ~time:1 ~rank:1 "/f");
  Pfs.write direct ~time:2 ~rank:0 "/f" ~off:0 (s "AAAA");
  Pfs.write direct ~time:3 ~rank:1 "/f" ~off:2 (s "BBBB");
  Pfs.close_file direct ~time:4 ~rank:1 "/f";
  Pfs.close_file direct ~time:5 ~rank:0 "/f";
  let tiered = Pfs.read_back pfs ~time:100 "/f" in
  let straight = Pfs.read_back direct ~time:100 "/f" in
  Alcotest.(check string) "identical final contents"
    (str straight.Fdata.data) (str tiered.Fdata.data)

(* End-to-end: the paper's 16/17 claim through the tier ------------------- *)

let nprocs = 16

(* One representative configuration per application (the first registry
   entry of each app). *)
let representatives () =
  List.rev
    (List.fold_left
       (fun acc entry ->
         if List.exists (fun e -> e.Registry.app = entry.Registry.app) acc
         then acc
         else entry :: acc)
       [] Registry.all)

let test_apps_through_tier () =
  let reps = representatives () in
  Alcotest.(check int) "17 applications" 17 (List.length reps);
  let correct, incorrect =
    List.partition
      (fun entry ->
        let outcomes =
          Validation.validate ~nprocs ~semantics:[ Consistency.Session ]
            ~tier:Tier.default_config entry.Registry.body
        in
        List.for_all Validation.correct outcomes)
      reps
  in
  Alcotest.(check int) "16 of 17 correct through the tier" 16
    (List.length correct);
  Alcotest.(check (list string)) "FLASH is the sole failure" [ "FLASH" ]
    (List.map (fun e -> e.Registry.app) incorrect)

let test_flash_heals_under_commit_tier () =
  (* The same tier over a commit-semantics PFS clears FLASH, as commit
     semantics does for the direct runs (Section 6.3). *)
  match Registry.find "FLASH-fbs" with
  | None -> Alcotest.fail "FLASH-fbs not registered"
  | Some entry ->
    let outcomes =
      Validation.validate ~nprocs ~semantics:[ Consistency.Commit ]
        ~tier:Tier.default_config entry.Registry.body
    in
    List.iter
      (fun o ->
        Alcotest.(check bool) "FLASH correct under commit + tier" true
          (Validation.correct o))
      outcomes

(* Drain retry / backoff under injected transient failures ----------------- *)

module Prng = Hpcfs_util.Prng
module Obs = Hpcfs_obs.Obs

let test_backoff_schedule () =
  (* Without jitter the schedule is pure capped exponential. *)
  let retry =
    { Backoff.max_retries = 5; base_delay = 8; max_delay = 100; jitter = 0.0 }
  in
  let prng = Prng.create 7 in
  let delays =
    List.init 6 (fun n -> Backoff.delay retry prng ~attempt:n)
  in
  Alcotest.(check (list int))
    "capped exponential" [ 8; 16; 32; 64; 100; 100 ] delays;
  (* With jitter, the schedule is deterministic for a fixed seed and stays
     within [exp, exp + exp/2). *)
  let jittered = { retry with Backoff.jitter = 0.5 } in
  let schedule seed =
    let p = Prng.create seed in
    List.init 6 (fun n -> Backoff.delay jittered p ~attempt:n)
  in
  Alcotest.(check (list int))
    "deterministic under a fixed seed" (schedule 11) (schedule 11);
  List.iteri
    (fun n d ->
      let base = min 100 (8 * (1 lsl n)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within jitter band" n)
        true
        (d >= base && d < base + (base / 2) + 1))
    (schedule 11);
  (* Huge attempt numbers must not overflow the shift. *)
  Alcotest.(check int) "attempt 62 capped" 100
    (Backoff.delay retry prng ~attempt:62)

let test_drain_retry_then_success () =
  let pfs, tier = make ~policy:Drain.Sync_on_close () in
  let sink = Obs.create () in
  Obs.with_sink sink @@ fun () ->
  (* Fail the first two attempts, then let drains through. *)
  let failures = ref 2 in
  Tier.set_fault tier ~prng:(Prng.create 5)
    (Some
       (fun ~node:_ ~time:_ ->
         if !failures > 0 then begin
           decr failures;
           true
         end
         else false));
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/ck");
  Tier.write tier ~time:2 ~rank:0 "/ck" ~off:0 (s "payload!");
  Tier.close_file tier ~time:3 ~rank:0 "/ck";
  (* The close's drain retried past both failures and landed the data. *)
  Alcotest.(check int) "backlog empty" 0 (Tier.occupancy tier);
  Alcotest.(check int) "data on the PFS" 8 (Pfs.file_size pfs "/ck");
  let st = Tier.stats tier in
  Alcotest.(check int) "two injected faults" 2 st.Tier.core.faults;
  Alcotest.(check int) "two retries" 2 st.Tier.core.retries;
  Alcotest.(check bool) "backoff accounted" true
    (st.Tier.core.backoff_ticks >= 8 + 16);
  Alcotest.(check int) "no aborts" 0 st.Tier.core.aborts;
  (* The same counters are mirrored into the telemetry registry, and the
     backlog gauge returned to zero. *)
  Alcotest.(check int) "obs faults" 2 (Obs.find_counter sink "bb.drain_faults");
  Alcotest.(check int) "obs retries" 2
    (Obs.find_counter sink "bb.drain_retries");
  Alcotest.(check int) "obs backlog gauge" 0 (Obs.find_gauge sink "bb.backlog")

let test_drain_abort_keeps_extent () =
  let pfs, tier = make ~policy:Drain.Sync_on_close () in
  let sink = Obs.create () in
  Obs.with_sink sink @@ fun () ->
  (* Every attempt fails: the retry budget exhausts and the extent must
     stay staged rather than vanish. *)
  Tier.set_fault tier ~prng:(Prng.create 5)
    (Some (fun ~node:_ ~time:_ -> true));
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/ck");
  Tier.write tier ~time:2 ~rank:0 "/ck" ~off:0 (s "payload!");
  Tier.close_file tier ~time:3 ~rank:0 "/ck";
  Alcotest.(check int) "extent still staged" 8 (Tier.occupancy tier);
  Alcotest.(check int) "nothing reached the PFS" 0 (Pfs.file_size pfs "/ck");
  let st = Tier.stats tier in
  Alcotest.(check bool) "abort recorded" true (st.Tier.core.aborts >= 1);
  Alcotest.(check int)
    "faults = retries + aborts"
    (st.Tier.core.retries + st.Tier.core.aborts)
    st.Tier.core.faults;
  (* Clearing the fault and draining again recovers the data — nothing was
     lost, only delayed. *)
  Tier.set_fault tier None;
  let drained = Tier.drain_all tier () in
  Alcotest.(check int) "late drain lands it" 8 drained;
  Alcotest.(check int) "backlog empty" 0 (Tier.occupancy tier);
  Alcotest.(check int) "data on the PFS" 8 (Pfs.file_size pfs "/ck")

let test_crash_node_loses_undrained () =
  (* Strong backing semantics so the survivor's drained write is visible
     to the post-crash observer without a close. *)
  let pfs, tier =
    make ~semantics:Consistency.Strong ~policy:Drain.On_laminate ()
  in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/ck");
  ignore (Tier.open_file tier ~time:1 ~rank:2 "/ck");
  Tier.write tier ~time:2 ~rank:0 "/ck" ~off:0 (s "node0data");
  Tier.write tier ~time:3 ~rank:2 "/ck" ~off:16 (s "node1data");
  (* ranks_per_node = 2: rank 0 is node 0, rank 2 is node 1. *)
  let lost = Tier.crash_node tier ~node:0 in
  Alcotest.(check int) "node 0's undrained bytes lost" 9 lost;
  Alcotest.(check int) "node 1's data still staged" 9 (Tier.occupancy tier);
  Alcotest.(check int) "loss recorded" 9
    (Tier.stats tier).Tier.crash_lost_bytes;
  (* Draining the survivor publishes only its extent. *)
  ignore (Tier.drain_all tier ());
  let r = Pfs.read_back pfs ~time:100 "/ck" in
  Alcotest.(check string) "only node 1's bytes survive"
    "\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000node1data"
    (str r.Fdata.data)

let suite =
  [
    Alcotest.test_case "read-your-writes before drain" `Quick
      test_read_your_writes;
    Alcotest.test_case "ranks share their node's buffer" `Quick
      test_node_sharing;
    Alcotest.test_case "sync-close drains on close" `Quick
      test_sync_close_drains;
    Alcotest.test_case "async background drain" `Quick test_async_drain;
    Alcotest.test_case "on-laminate defers until stage-out" `Quick
      test_on_laminate_defers;
    Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
    Alcotest.test_case "stage-in snapshot" `Quick test_stage_in;
    Alcotest.test_case "close-to-open invalidation" `Quick
      test_close_to_open_invalidation;
    Alcotest.test_case "truncate and staged size" `Quick
      test_truncate_and_size;
    Alcotest.test_case "staleness vs strong ground truth" `Quick
      test_staleness_accounting;
    Alcotest.test_case "drain preserves final composition" `Quick
      test_drain_preserves_composition;
    Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "drain retry then success" `Quick
      test_drain_retry_then_success;
    Alcotest.test_case "drain abort keeps extent" `Quick
      test_drain_abort_keeps_extent;
    Alcotest.test_case "node crash loses undrained bytes" `Quick
      test_crash_node_loses_undrained;
    Alcotest.test_case "16/17 apps correct through tier (session)" `Slow
      test_apps_through_tier;
    Alcotest.test_case "FLASH heals under commit + tier" `Slow
      test_flash_heals_under_commit_tier;
  ]
