(* The host-side write-ahead logging tier: fault-free equivalence with the
   direct-PFS path (a QCheck differential over generated workloads and all
   four consistency engines, which also runs the burst buffer), replay ordering across a storage-target
   failure mid-drain, per-engine crash-tail semantics, and the log-device
   failure modes (logfail retry/write-through, logcap stalls). *)

module Wal = Hpcfs_wal.Wal
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Plan = Hpcfs_fault.Plan
module Injector = Hpcfs_fault.Injector
module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Staging = Hpcfs_fs.Staging
module Posix = Hpcfs_posix.Posix
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile
module Wl_gen = Hpcfs_oracle.Wl_gen

let engines =
  [
    Consistency.Strong;
    Consistency.Commit;
    Consistency.Session;
    Consistency.Eventual { delay = 16 };
  ]

let wal_stats result = Wal.stats (Option.get result.Runner.wal)

let wal_check result =
  match result.Runner.faults with
  | Some { Injector.o_check = Some c; _ } -> c
  | _ -> Alcotest.fail "expected a WAL fsck in the fault outcome"

(* Differential ------------------------------------------------------------- *)

(* A staging tier changes when bytes arrive at the servers, never what the
   final state may contain: a fault-free run through the WAL, or through
   the burst buffer under sync-close or async draining, must produce
   byte-identical final files and a fully drained store under every
   engine, and the WAL's fsck must be clean.  Both tiers sit on the same
   staging core, so this checks every user of it.  Per-read staleness is
   deliberately not compared: it is a timing observable of unsynchronized
   racy reads (which generated workloads contain — phases are not
   barrier-separated and mix draws overlap under rank skew), and acking at
   staging time legitimately shifts when such a read lands relative to
   the racing write.  The zero-staleness claim is pinned separately on a
   race-free workload below.  Pinned to one domain: cross-domain staging
   order is scheduling-dependent, which is outside the differential's
   contract. *)
let stagings =
  let bb policy = `Bb { Tier.default_config with Tier.policy } in
  [
    ("wal", `Wal Wal.default_config);
    ("bb sync-close", bb Drain.Sync_on_close);
    ("bb async", bb Drain.default_async);
  ]

let qcheck_wal_differential =
  QCheck.Test.make ~name:"fault-free WAL is equivalent to direct PFS"
    ~count:15 Wl_gen.arbitrary (fun w ->
      let body = Compile.body w in
      List.for_all
        (fun semantics ->
          let direct = Runner.run ~semantics ~nprocs:8 body in
          List.for_all
            (fun (label, staging) ->
              let tier, wal =
                match staging with
                | `Wal c -> (None, Some c)
                | `Bb c -> (Some c, None)
              in
              let staged =
                Runner.run ~semantics ~nprocs:8 ?tier ?wal body
              in
              let fail msg =
                QCheck.Test.fail_reportf "%s under %s: %s" label
                  (Consistency.to_string semantics)
                  msg
              in
              if
                Validation.final_digests direct
                <> Validation.final_digests staged
              then fail "final bytes differ";
              (match (staged.Runner.tier, staged.Runner.wal) with
              | Some t, _ -> if Tier.occupancy t <> 0 then fail "backlog left"
              | None, Some wal ->
                if Wal.occupancy wal <> 0 then fail "backlog left";
                let c = Wal.check wal in
                if
                  c.Staging.lost_bytes + c.Staging.torn_bytes
                  + c.Staging.pending_bytes
                  <> 0
                  || c.Staging.corrupted <> 0
                then fail "fault-free fsck not clean"
              | None, None -> fail "run was not staged");
              true)
            stagings)
        engines)

(* A race-free workload (collectives between bursts) must show zero stale
   reads under strong on both paths: the WAL's replay-before-visibility
   rule may never let a strong read observe pre-replay state. *)
let test_strong_no_staleness () =
  let spec = "write:block=256,count=4,sync=fsync;barrier;read:block=256,count=4" in
  let body = Compile.body (Result.get_ok (Workload.of_string spec)) in
  let direct = Runner.run ~semantics:Consistency.Strong ~nprocs:4 body in
  let walled =
    Runner.run ~semantics:Consistency.Strong ~nprocs:4
      ~wal:Wal.default_config body
  in
  Alcotest.(check int) "direct path is staleness-free" 0
    direct.Runner.stats.Pfs.stale_reads;
  Alcotest.(check int) "WAL path is staleness-free" 0
    (wal_stats walled).Wal.core.stale_reads;
  Alcotest.(check bool) "and both converge to the same bytes" true
    (Validation.final_digests direct = Validation.final_digests walled)

(* Replay under a target failure mid-drain ---------------------------------- *)

(* Per-rank checkpoint files with a replay bandwidth small enough that the
   backlog outlives the failure window: drains attempted while target 0 is
   down are refused and parked, the recovery (fired during the epilogue if
   the job ends first) re-replays them in order.  Byte-identical final
   files prove nothing was reordered, duplicated or dropped. *)
let slow_wal =
  { Wal.default_config with Wal.bandwidth_bytes_per_tick = 64;
    drain_interval = 8 }

let ck_spec = "checkpoint:steps=6,every=2,layout=fpp,block=256,count=4"

let test_ostfail_mid_drain () =
  let body = Compile.body (Result.get_ok (Workload.of_string ck_spec)) in
  let reference = Runner.run ~semantics:Consistency.Session ~nprocs:4 body in
  let plan =
    Plan.make ~seed:5 [ Plan.ost_fail ~target:0 ~recover:200 40 ]
  in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4 ~wal:slow_wal
      ~faults:plan body
  in
  Alcotest.(check bool) "replayed to the reference state" true
    (Validation.final_digests reference = Validation.final_digests faulted);
  let s = wal_stats faulted in
  Alcotest.(check bool) "drains were refused by the down target" true
    (s.Wal.core.target_down > 0);
  let c = wal_check faulted in
  Alcotest.(check int) "no bytes lost" 0 c.Staging.lost_bytes;
  Alcotest.(check int) "no bytes torn" 0 c.Staging.torn_bytes;
  Alcotest.(check int) "no bytes stranded" 0 c.Staging.pending_bytes

(* Crash-tail semantics ----------------------------------------------------- *)

(* A minimal checkpointer in the style of test_fault's: each of 4 ranks
   (one shared log node) writes three 32-byte pieces, fsyncing only the
   first.  A whole-job crash on the victim's 5th backend call (its last
   write) then separates the engines: under strong every append is
   replayed before anything is visible, so the log tail holds nothing the
   PFS doesn't already have — the WAL loses zero bytes.  Under commit only
   the fsynced piece is flush-protected; the un-flushed tail dies with the
   node, torn at a record boundary. *)
let piece rank tag =
  Bytes.init 32 (fun i -> Char.chr ((rank + tag + i) land 0xff))

let ck_body env =
  let rank = Hpcfs_mpi.Mpi.rank env.Runner.comm in
  Hpcfs_apps.App_common.setup_dir env "/out";
  let path = Printf.sprintf "/out/ck.%d" rank in
  let fd =
    Posix.openf env.Runner.posix path
      [ Posix.O_WRONLY; Posix.O_CREAT; Posix.O_TRUNC ]
  in
  ignore (Posix.write env.Runner.posix fd (piece rank 0));
  Posix.fsync env.Runner.posix fd;
  ignore (Posix.write env.Runner.posix fd (piece rank 1));
  ignore (Posix.write env.Runner.posix fd (piece rank 2));
  Posix.close env.Runner.posix fd

let crash_plan = Plan.make ~seed:9 [ Plan.crash ~rank:1 (Plan.At_io 5) ]

let crash_record result =
  match result.Runner.faults with
  | Some { Injector.o_crashes = [ c ]; _ } -> c
  | _ -> Alcotest.fail "expected exactly one crash"

let test_crash_tail_strong () =
  let result =
    Runner.run ~semantics:Consistency.Strong ~nprocs:4
      ~wal:Wal.default_config ~faults:crash_plan ck_body
  in
  let c = crash_record result in
  Alcotest.(check int) "strong loses no log bytes" 0
    c.Injector.cr_wal_lost_bytes;
  Alcotest.(check int) "strong tears no log bytes" 0
    c.Injector.cr_wal_torn_bytes

let test_crash_tail_commit () =
  let result =
    Runner.run ~semantics:Consistency.Commit ~nprocs:4
      ~wal:Wal.default_config ~faults:crash_plan ck_body
  in
  let c = crash_record result in
  Alcotest.(check bool) "commit loses the un-fsynced tail" true
    (c.Injector.cr_wal_lost_bytes > 0);
  Alcotest.(check bool) "the in-flight append is torn, not lost whole" true
    (c.Injector.cr_wal_torn_bytes > 0);
  Alcotest.(check bool) "lost and torn tears at record boundaries" true
    ((c.Injector.cr_wal_lost_bytes + c.Injector.cr_wal_torn_bytes) mod 32 = 0);
  (* Without a restart the fsck must own up to the damage. *)
  let chk = wal_check result in
  Alcotest.(check bool) "fsck reports corruption" true
    (chk.Staging.corrupted > 0);
  Alcotest.(check int) "fsck agrees on the lost bytes"
    c.Injector.cr_wal_lost_bytes chk.Staging.lost_bytes;
  Alcotest.(check int) "fsck agrees on the torn bytes"
    c.Injector.cr_wal_torn_bytes chk.Staging.torn_bytes

(* Log-device failure modes ------------------------------------------------- *)

(* The default retry budget draws 5 attempts per append (initial + 4
   retries), so 10 planned failures exhaust exactly two appends into
   write-through — and the degraded writes still land, so the final bytes
   match a fault-free run. *)
let test_logfail_writethrough () =
  let body = Compile.body (Result.get_ok (Workload.of_string ck_spec)) in
  let reference = Runner.run ~semantics:Consistency.Session ~nprocs:4 body in
  let plan = Result.get_ok (Plan.of_string ~seed:3 "logfail:count=10") in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4
      ~wal:Wal.default_config ~faults:plan body
  in
  let s = wal_stats faulted in
  Alcotest.(check int) "all planned faults fired" 10 s.Wal.core.faults;
  Alcotest.(check int) "two appends exhausted their budget" 2
    s.Wal.core.aborts;
  Alcotest.(check int) "both degraded to write-through" 2
    s.Wal.writethrough_writes;
  Alcotest.(check int) "four retries per exhausted append" 8 s.Wal.core.retries;
  Alcotest.(check bool) "backoff delay was accounted" true
    (s.Wal.core.backoff_ticks > 0);
  Alcotest.(check bool) "write-through preserved the final bytes" true
    (Validation.final_digests reference = Validation.final_digests faulted);
  (match faulted.Runner.faults with
  | Some o ->
    Alcotest.(check int) "injector counted the faults" 10
      o.Injector.o_log_faults
  | None -> Alcotest.fail "expected a fault outcome")

let test_logcap_stalls () =
  let body = Compile.body (Result.get_ok (Workload.of_string ck_spec)) in
  let reference = Runner.run ~semantics:Consistency.Session ~nprocs:4 body in
  let plan = Result.get_ok (Plan.of_string ~seed:3 "logcap=256") in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4 ~wal:slow_wal
      ~faults:plan body
  in
  let s = wal_stats faulted in
  Alcotest.(check bool) "a full log forces synchronous replay" true
    (s.Wal.core.stalls > 0);
  Alcotest.(check bool) "capacity never exceeds the planned cap" true
    (s.Wal.core.peak_occupancy <= 256);
  Alcotest.(check bool) "capped run still converges to the reference" true
    (Validation.final_digests reference = Validation.final_digests faulted)

(* Determinism -------------------------------------------------------------- *)

let test_wal_deterministic () =
  let body = Compile.body (Result.get_ok (Workload.of_string ck_spec)) in
  let plan () =
    Result.get_ok
      (Plan.of_string ~seed:3 "crash:rank=0,io=5;logfail:count=5;logcap=4096")
  in
  let go () =
    let result =
      Runner.run ~semantics:Consistency.Commit ~nprocs:4
        ~wal:Wal.default_config ~faults:(plan ()) body
    in
    (result.Runner.records, wal_stats result, wal_check result)
  in
  Alcotest.(check bool) "same seed, same faulted WAL run" true (go () = go ())

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_wal_differential;
    Alcotest.test_case "strong stays staleness-free race-free" `Quick
      test_strong_no_staleness;
    Alcotest.test_case "ostfail mid-drain replays in order" `Quick
      test_ostfail_mid_drain;
    Alcotest.test_case "crash tail: strong loses nothing" `Quick
      test_crash_tail_strong;
    Alcotest.test_case "crash tail: commit loses the un-fsynced tail" `Quick
      test_crash_tail_commit;
    Alcotest.test_case "logfail degrades to write-through" `Quick
      test_logfail_writethrough;
    Alcotest.test_case "logcap forces stalls" `Quick test_logcap_stalls;
    Alcotest.test_case "faulted WAL runs are deterministic" `Quick
      test_wal_deterministic;
  ]
