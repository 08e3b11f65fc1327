(* The staging core below the tiers.  A QCheck model drives a bare
   {!Staging.t} through random store operations and checks each file's
   pending byte count against a fold over the file's queue after every
   step, and that a truncate leaves no live record past the new length;
   the same fold checks the post-crash check's per-file pending bytes, and
   its lost bytes against what the tier reported losing, through the WAL,
   the client journal and the burst buffer.  A fixed read script pins the
   exact stale-read accounting of reads overlapping the reader's own
   pending records, another rank's, and none, through the WAL and the
   burst buffer.  A truncate followed by a target failure leaves the same
   file through the direct PFS, the client journal and the WAL. *)

module Staging = Hpcfs_fs.Staging
module Pfs = Hpcfs_fs.Pfs
module Fdata = Hpcfs_fs.Fdata
module Backend = Hpcfs_fs.Backend
module Consistency = Hpcfs_fs.Consistency
module Stripe = Hpcfs_fs.Stripe
module Journal = Hpcfs_fs.Journal
module Prng = Hpcfs_util.Prng
module Backoff = Hpcfs_util.Backoff
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Plan = Hpcfs_fault.Plan
module Injector = Hpcfs_fault.Injector
module Runner = Hpcfs_apps.Runner
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile

(* A file's pending bytes, recomputed from its queue. *)
let fold_pending core path =
  match Staging.file_queue core path with
  | None -> 0
  | Some q ->
    Queue.fold
      (fun acc (r : Staging.record) ->
        if r.state = Staging.Pending then acc + Bytes.length r.data else acc)
      0 q

(* Pending-count invariant -------------------------------------------------- *)

type op =
  | Append of { file : int; rank : int; off : int; len : int }
  | Record of { file : int; rank : int; off : int; len : int }
      (** A write the PFS already accepted, retained as applied. *)
  | Replay of int
  | Drop of int
  | Truncate of { file : int; len : int }
  | Revert of int
      (** Crash handling: an applied record returns to the log, a pending
          one is lost; the store is then resynced. *)
  | Resync

let files = [| "/a"; "/b"; "/c" |]

let pp_op = function
  | Append { file; rank; off; len } ->
    Printf.sprintf "append %s rank=%d off=%d len=%d" files.(file) rank off len
  | Record { file; rank; off; len } ->
    Printf.sprintf "record %s rank=%d off=%d len=%d" files.(file) rank off len
  | Replay i -> Printf.sprintf "replay #%d" i
  | Drop i -> Printf.sprintf "drop #%d" i
  | Truncate { file; len } -> Printf.sprintf "truncate %s %d" files.(file) len
  | Revert i -> Printf.sprintf "revert #%d" i
  | Resync -> "resync"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map4
            (fun file rank off len -> Append { file; rank; off; len })
            (int_bound 2) (int_bound 7) (int_bound 64) (int_range 1 16) );
        ( 2,
          map4
            (fun file rank off len -> Record { file; rank; off; len })
            (int_bound 2) (int_bound 7) (int_bound 64) (int_range 1 16) );
        (2, map (fun i -> Replay i) nat);
        (1, map (fun i -> Drop i) nat);
        ( 1,
          map2
            (fun file len -> Truncate { file; len })
            (int_bound 2) (int_bound 80) );
        (1, map (fun i -> Revert i) nat);
        (1, return Resync);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

let qcheck_pending_count =
  QCheck.Test.make ~name:"pending_in_file = queue fold" ~count:300 arb_ops
    (fun ops ->
      let pfs = Pfs.create Consistency.Strong in
      Array.iter
        (fun path ->
          ignore (Pfs.open_file pfs ~time:0 ~rank:0 ~create:true path))
        files;
      let core =
        Staging.create ~prefix:"model" ~staged:"staged_bytes"
          ~drained:"drained_bytes" ~fault:"model"
          ~events:("model-drain", "model-stall") ~ranks_per_node:2
          ~retry:Backoff.default pfs
      in
      let records = ref [||] in
      let pick i =
        let n = Array.length !records in
        if n = 0 then None else Some !records.(i mod n)
      in
      List.iteri
        (fun step op ->
          let time = step + 1 in
          (match op with
          | Append { file; rank; off; len } ->
            let r =
              Staging.append core ~time ~rank files.(file) ~off
                (Bytes.make len 'x')
            in
            records := Array.append !records [| r |]
          | Record { file; rank; off; len } ->
            let r =
              Staging.append core ~time ~rank files.(file) ~off
                (Bytes.make len 'x')
            in
            Staging.mark_applied core r;
            records := Array.append !records [| r |]
          | Replay i ->
            Option.iter (fun r -> ignore (Staging.replay core r)) (pick i)
          | Drop i -> Option.iter (Staging.drop core) (pick i)
          | Truncate { file; len } ->
            Staging.truncate core files.(file) len;
            Option.iter
              (Queue.iter (fun (r : Staging.record) ->
                   if
                     r.state <> Staging.Dropped
                     && r.off + Bytes.length r.data > len
                   then
                     QCheck.Test.fail_reportf
                       "after step %d (%s): record #%d ends at %d" step
                       (pp_op op) r.seq
                       (r.off + Bytes.length r.data)))
              (Staging.file_queue core files.(file))
          | Revert i ->
            Option.iter
              (fun (r : Staging.record) ->
                match r.state with
                | Staging.Applied -> r.state <- Staging.Pending
                | Staging.Pending -> r.state <- Staging.Dropped
                | Staging.Dropped -> ())
              (pick i);
            Staging.resync core
          | Resync -> Staging.resync core);
          let total =
            Array.fold_left
              (fun total path ->
                let want = fold_pending core path in
                let got = Staging.pending_in_file core path in
                if got <> want then
                  QCheck.Test.fail_reportf
                    "after step %d (%s): %s has %d, fold %d" step (pp_op op)
                    path got want;
                total + want)
              0 files
          in
          if Staging.occupancy core <> total then
            QCheck.Test.fail_reportf
              "after step %d (%s): occupancy %d, folds %d" step (pp_op op)
              (Staging.occupancy core) total)
        ops;
      true)

(* One check over every backend: {!Staging.check} must agree with the
   core it reads — each file's pending bytes with the fold over its queue,
   and its lost and torn bytes with what the tier reported losing. *)
let agrees label core (c : Staging.check) ~lost =
  List.iter
    (fun (f : Staging.file_check) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s pending" label f.c_path)
        (fold_pending core f.c_path) f.c_pending_bytes)
    c.files;
  Alcotest.(check int) (label ^ ": lost bytes") lost
    (c.lost_bytes + c.torn_bytes)

let ckpt_body sync =
  Compile.body
    (Result.get_ok
       (Workload.of_string
          ("checkpoint:steps=6,every=2,layout=shared,pattern=strided,\
            block=256,count=4,sync=" ^ sync)))

(* A staged checkpoint through the runner: the backend's core, the
   outcome's check, and the crash records. *)
let staged_run ?(sync = "fsync") ?tier ?wal plan =
  let r =
    Runner.run ~semantics:Consistency.Commit ~nprocs:8 ?tier ?wal
      ~faults:(Result.get_ok (Plan.of_string ~seed:7 plan))
      (ckpt_body sync)
  in
  let core =
    match (r.Runner.tier, r.Runner.wal) with
    | Some t, _ -> Tier.core t
    | None, Some w -> Wal.core w
    | None, None -> Alcotest.fail "run was not staged"
  in
  let o = Option.get r.Runner.faults in
  (core, Option.get o.Injector.o_check, o.Injector.o_crashes)

(* The WAL: after a crash (the log reverts applied suffixes and loses a
   tail) and after a target that never comes back (its records stay
   logged). *)
let test_wal_check_pending () =
  let slow =
    { Wal.default_config with Wal.bandwidth_bytes_per_tick = 64;
      drain_interval = 8 }
  in
  let core, c, crashes =
    staged_run ~sync:"none" ~wal:slow "crash:rank=2,io=5,restart=64"
  in
  let lost =
    List.fold_left
      (fun acc (cr : Injector.crash_record) ->
        acc + cr.cr_wal_lost_bytes + cr.cr_wal_torn_bytes)
      0 crashes
  in
  agrees "crash" core c ~lost;
  Alcotest.(check bool) "the crash lost log bytes" true (lost > 0);
  let core, c, _ = staged_run ~wal:slow "ostfail:target=0,t=60" in
  agrees "ostfail" core c ~lost:0;
  Alcotest.(check bool) "a dead target leaves bytes pending" true
    (c.pending_bytes > 0)

(* The client journal: before its fsck the parked writes are pending;
   the fsck gives up on them, and they are lost. *)
let test_journal_check_pending () =
  let pfs =
    Pfs.create ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4)
      Consistency.Session
  in
  let j = Journal.create ~prng:(Prng.create 3) pfs in
  let b = Journal.wrap j (Backend.of_pfs pfs) in
  ignore (b.Backend.open_file ~time:1 ~rank:0 ~create:true ~trunc:false "/f");
  b.Backend.write ~time:2 ~rank:0 "/f" ~off:0 (Bytes.make 32 'A');
  ignore (Pfs.fail_target pfs ~time:3 2);
  Journal.on_target_fail j ~time:3 ~target:2;
  b.Backend.write ~time:4 ~rank:0 "/f" ~off:32 (Bytes.make 32 'B');
  let core = Journal.core j in
  let before = Staging.check core in
  agrees "journal before fsck" core before ~lost:0;
  Alcotest.(check int) "both writes pending" 64 before.pending_bytes;
  let c = Journal.check j in
  agrees "journal after fsck" core c ~lost:64;
  Alcotest.(check int) "the file is corrupted" 1 c.corrupted

(* The burst buffer: an async crash loses the victim node's undrained
   extents — nothing flushes them, as the checkpoint never syncs — and the
   check marks their files corrupted. *)
let test_bb_check_pending () =
  let tier =
    { Tier.default_config with
      Tier.policy =
        Drain.Async { bandwidth_bytes_per_tick = 64; drain_interval = 8 } }
  in
  let core, c, crashes =
    staged_run ~sync:"none" ~tier "crash:rank=2,io=5,restart=64"
  in
  let lost =
    List.fold_left
      (fun acc (cr : Injector.crash_record) -> acc + cr.cr_bb_lost_bytes)
      0 crashes
  in
  agrees "bb crash" core c ~lost;
  Alcotest.(check bool) "the crash lost staged bytes" true (lost > 0);
  List.iter
    (fun (f : Staging.file_check) ->
      Alcotest.(check bool)
        (f.c_path ^ " is corrupted iff it lost bytes")
        (f.c_lost_bytes > 0)
        (f.c_verdict = Staging.Corrupted))
    c.files

(* Stale-byte accounting --------------------------------------------------- *)

(* One script through any backend: rank 0 and rank 1 leave records pending
   in /f, rank 2 writes and fsyncs /g.  The reads cover the reader's own
   pending bytes, another rank's, both, and a file with none pending
   (fresh, or stale because the engine has not published it yet).
   Returns each read's stale bytes. *)
let stale_script (b : Backend.t) =
  let read ~time ~rank path ~off ~len =
    (b.Backend.read ~time ~rank path ~off ~len).Fdata.stale_bytes
  in
  ignore (b.Backend.open_file ~time:1 ~rank:0 ~create:true ~trunc:false "/f");
  ignore (b.Backend.open_file ~time:1 ~rank:2 ~create:true ~trunc:false "/g");
  List.iter
    (fun rank ->
      List.iter
        (fun path ->
          ignore
            (b.Backend.open_file ~time:2 ~rank ~create:false ~trunc:false path))
        [ "/f"; "/g" ])
    [ 1; 2; 3 ];
  b.Backend.write ~time:3 ~rank:0 "/f" ~off:0 (Bytes.make 8 'a');
  b.Backend.write ~time:4 ~rank:1 "/f" ~off:8 (Bytes.make 8 'b');
  b.Backend.write ~time:5 ~rank:2 "/g" ~off:0 (Bytes.make 8 'c');
  b.Backend.fsync ~time:6 ~rank:2 "/g";
  (* In script order: a list literal would evaluate right to left. *)
  List.map
    (fun (time, rank, path, off, len) -> read ~time ~rank path ~off ~len)
    [
      (7, 0, "/f", 0, 8);
      (8, 0, "/f", 0, 16);
      (9, 1, "/f", 4, 8);
      (10, 3, "/f", 0, 16);
      (11, 3, "/g", 0, 8);
      (20, 3, "/g", 0, 8);
      (21, 3, "/f", 0, 16);
    ]

let test_stale_accounting () =
  let check label ~per_read ~reads ~bytes (got, stale_reads, stale_bytes) =
    Alcotest.(check (list int)) (label ^ ": per read") per_read got;
    Alcotest.(check int) (label ^ ": stale reads") reads stale_reads;
    Alcotest.(check int) (label ^ ": stale bytes") bytes stale_bytes
  in
  let wal semantics =
    let w = Wal.create (Pfs.create semantics) in
    let got = stale_script (Wal.backend w) in
    let s = Wal.stats w in
    (got, s.Wal.core.stale_reads, s.Wal.core.stale_bytes)
  in
  let bb semantics =
    let config =
      { Tier.default_config with Tier.ranks_per_node = 1;
        policy = Drain.Sync_on_close }
    in
    let t = Tier.create ~config (Pfs.create semantics) in
    let got = stale_script (Tier.backend t) in
    let s = Tier.stats t in
    (got, s.Tier.core.stale_reads, s.Tier.core.stale_bytes)
  in
  check "wal commit" ~per_read:[ 0; 8; 4; 16; 0; 0; 16 ] ~reads:4 ~bytes:44
    (wal Consistency.Commit);
  check "wal eventual:8" ~per_read:[ 0; 8; 4; 16; 8; 0; 0 ] ~reads:4
    ~bytes:36
    (wal (Consistency.Eventual { delay = 8 }));
  (* Session: /g is drained by the fsync but unpublished until a close, so
     rank 3's reads of it are stale with nothing pending. *)
  check "bb sync-close" ~per_read:[ 0; 8; 4; 16; 8; 8; 16 ] ~reads:6 ~bytes:60
    (bb Consistency.Session)

(* Truncation then a target failure ------------------------------------- *)

(* Rank 0 writes 32 bytes over a 4 x 8-byte stripe, truncates the file to
   8 and never publishes; then target 1 fails, recovers, and whatever the
   layer retains is replayed.  The truncated bytes must stay cut, as in a
   direct run: a retained copy of a write is clipped with the file. *)
let truncate_then_fail semantics layer =
  let pfs =
    Pfs.create ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4) semantics
  in
  let b, on_fail, replay =
    match layer with
    | `Direct -> (Backend.of_pfs pfs, ignore, ignore)
    | `Journal ->
      let j = Journal.create ~prng:(Prng.create 3) pfs in
      ( Journal.wrap j (Backend.of_pfs pfs),
        (fun target -> Journal.on_target_fail j ~time:5 ~target),
        fun () -> ignore (Journal.replay j) )
    | `Wal ->
      let w = Wal.create pfs in
      ( Wal.backend w,
        (fun target -> Wal.on_target_fail w ~time:5 ~target),
        fun () -> ignore (Wal.drain_all w) )
  in
  ignore (b.Backend.open_file ~time:1 ~rank:0 ~create:true ~trunc:false "/f");
  b.Backend.write ~time:2 ~rank:0 "/f" ~off:0 (Bytes.make 32 'A');
  b.Backend.truncate ~time:3 "/f" 8;
  ignore (Pfs.fail_target pfs ~time:5 1);
  on_fail 1;
  Pfs.recover_target pfs ~time:6 1;
  replay ();
  b.Backend.close_file ~time:7 ~rank:0 "/f";
  Bytes.to_string (Pfs.read_back pfs ~time:20 "/f").Fdata.data

let test_truncate_then_target_fail () =
  List.iter
    (fun semantics ->
      let name = Consistency.name semantics in
      let direct = truncate_then_fail semantics `Direct in
      Alcotest.(check string) (name ^ ": direct") (String.make 8 'A') direct;
      Alcotest.(check string)
        (name ^ ": journal = direct")
        direct
        (truncate_then_fail semantics `Journal);
      Alcotest.(check string)
        (name ^ ": wal = direct")
        direct
        (truncate_then_fail semantics `Wal))
    [ Consistency.Commit; Consistency.Session ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_pending_count;
    Alcotest.test_case "wal fsck pending = queue fold" `Quick
      test_wal_check_pending;
    Alcotest.test_case "journal fsck pending = queue fold" `Quick
      test_journal_check_pending;
    Alcotest.test_case "bb fsck pending = queue fold" `Quick
      test_bb_check_pending;
    Alcotest.test_case "stale accounting by overlap" `Quick
      test_stale_accounting;
    Alcotest.test_case "truncate then target failure" `Quick
      test_truncate_then_target_fail;
  ]
