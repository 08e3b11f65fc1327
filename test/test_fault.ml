(* The fault-injection subsystem: plan parsing, per-engine crash
   reconciliation on the PFS, stripe-boundary tearing, end-to-end
   crash/restart through the runner, and determinism of the
   crash-consistency report. *)

module Plan = Hpcfs_fault.Plan
module Injector = Hpcfs_fault.Injector
module Report = Hpcfs_fault.Report
module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Fdata = Hpcfs_fs.Fdata
module Stripe = Hpcfs_fs.Stripe
module Target = Hpcfs_fs.Target
module Journal = Hpcfs_fs.Journal
module Staging = Hpcfs_fs.Staging
module Backend = Hpcfs_fs.Backend
module Prng = Hpcfs_util.Prng
module Posix = Hpcfs_posix.Posix
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Registry = Hpcfs_apps.Registry
module Mpi = Hpcfs_mpi.Mpi

let s = Bytes.of_string

(* Plan DSL ---------------------------------------------------------------- *)

let test_plan_roundtrip () =
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Ok plan -> Alcotest.(check string) spec spec (Plan.to_string plan)
      | Error e -> Alcotest.fail (spec ^ ": " ^ e))
    [
      "crash:rank=3,io=120";
      "crash:rank=0,t=500,restart=64";
      "drainfail:count=2";
      "drainfail:count=5,node=1,after=100";
      "crash:rank=1,io=7,restart=8;drainfail:count=3,node=0";
      "ostfail:target=2,t=50";
      "ostfail:target=0,t=10,recover=64";
      "ostfail:target=1,t=10,failover=1";
      "mdsfail:t=100";
      "mdsfail:t=9,recover=5";
      "crash:rank=1,io=7;ostfail:target=1,t=5,recover=8";
      "logfail:count=4";
      "logfail:count=2,node=1,after=50";
      "logcap:bytes=4096";
      "crash:rank=0,t=90;logfail:count=1;logcap:bytes=65536";
    ];
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected parse error: " ^ spec))
    [
      "";
      "crash:rank=1";
      "crash:rank=1,io=2,t=3";
      "drainfail:node=0";
      "meteor:rank=1";
      "crash:rank=x,io=2";
      "ostfail:t=5";
      "ostfail:target=2";
      "mdsfail:recover=8";
      "ostfail:target=1,t=5,mode=9";
    ]

let test_plan_parse_error_messages () =
  (* The satellite contract: a rejected spec names the offending token and
     the accepted grammar, so a typo in a CI plan is diagnosable from the
     message alone. *)
  let err spec expected =
    match Plan.of_string spec with
    | Ok _ -> Alcotest.fail ("expected parse error: " ^ spec)
    | Error e -> Alcotest.(check string) spec expected e
  in
  err "ostfail:t=5" "ostfail: missing target=K";
  err "ostfail:target=2" "ostfail: missing t=T";
  err "mdsfail:recover=8" "mdsfail: missing t=T";
  err "ostfail:target=x,t=5" "ostfail: target: not an integer: \"x\"";
  err "ostfail:target=1,t=5,mode=9"
    "ostfail: unknown key \"mode\" (accepted: target, t, recover, failover)";
  err "mdsfail:t" "mdsfail: expected key=value, got \"t\"";
  err "crash:rank=1,io=2,restart=zz" "crash: restart: not an integer: \"zz\"";
  err "drainfail:node=0" "drainfail: missing count=K";
  err "meteor:rank=1"
    "unknown fault event \"meteor\"; expected crash, drainfail, ostfail, \
     mdsfail, logfail or logcap";
  (* An unknown key is always reported as an unknown key with the event's
     accepted alternatives — even when its value is not an integer, which
     used to shadow the real mistake with a bad-value message. *)
  err "crash:t=5,fanout=wide"
    "crash: unknown key \"fanout\" (accepted: rank, io, t, restart)";
  err "logfail:count=2,when=3"
    "logfail: unknown key \"when\" (accepted: count, node, after)";
  err "logfail:node=0" "logfail: missing count=K";
  err "logcap:limit=9" "logcap: unknown key \"limit\" (accepted: bytes)";
  err "logcap:bytes=0" "logcap: bytes must be positive";
  err "logcap=x" "logcap: bytes: not an integer: \"x\""

let test_plan_target_and_shard_range () =
  (* A negative target or shard is a parse error; one the PFS lacks is
     refused by Runner.run before the body runs, with the same kind of
     message instead of an exception from the target table. *)
  let err spec expected =
    match Plan.of_string spec with
    | Ok _ -> Alcotest.fail ("expected parse error: " ^ spec)
    | Error e -> Alcotest.(check string) spec expected e
  in
  err "ostfail:target=-1,t=10" "ostfail: target must be >= 0, got -1";
  err "mdsfail:t=10,shard=-2" "mdsfail: shard must be >= 0, got -2";
  let plan spec =
    match Plan.of_string spec with Ok p -> p | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "last target and shard fit" true
    (Plan.check
       (plan "ostfail:target=7,t=10;mdsfail:t=20,shard=1")
       ~targets:8 ~mds_shards:2
    = Ok ());
  let refused spec expected =
    let ran = ref false in
    Alcotest.check_raises spec (Plan.Invalid expected) (fun () ->
        ignore
          (Runner.run ~nprocs:2 ~faults:(plan spec) (fun _ -> ran := true)));
    Alcotest.(check bool) (spec ^ ": body never ran") false !ran
  in
  refused "ostfail:target=99,t=10"
    "ostfail: target=99 out of range (storage targets: 0-7)";
  refused "mdsfail:t=10,shard=7" "mdsfail: shard=7 out of range (MDS shards: 0-0)"

let test_plan_constructors () =
  let plan =
    Plan.make ~name:"p" ~seed:7
      [
        Plan.crash ~rank:2 ~restart_delay:16 (Plan.At_io 9);
        Plan.drain_fault ~node:1 3;
      ]
  in
  Alcotest.(check int) "one crash" 1 (Plan.crash_count plan);
  Alcotest.(check string) "spec" "crash:rank=2,io=9,restart=16;drainfail:count=3,node=1"
    (Plan.to_string plan);
  let log_plan = Plan.make [ Plan.log_fail ~node:2 ~after:10 5; Plan.log_cap 4096 ] in
  Alcotest.(check string) "log spec" "logfail:count=5,node=2,after=10;logcap:bytes=4096"
    (Plan.to_string log_plan);
  Alcotest.(check bool) "has log events" true (Plan.has_log_events log_plan);
  Alcotest.(check bool) "no log events" false (Plan.has_log_events plan);
  (* [logcap=B] is shorthand for [logcap:bytes=B]. *)
  match Plan.of_string "logcap=8192" with
  | Ok p -> Alcotest.(check string) "shorthand" "logcap:bytes=8192" (Plan.to_string p)
  | Error e -> Alcotest.fail e

(* Per-engine crash reconciliation ----------------------------------------- *)

(* The canonical differentiated scenario (acceptance for the subsystem):
   write A, fsync, write B, crash.  Strong persists both; commit persists
   only the fsynced A; session (no close) loses both; eventual depends on
   the propagation delay.  Same history, four different losses. *)
let crash_loss semantics =
  let pfs = Pfs.create semantics in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/ck");
  Pfs.write pfs ~time:2 ~rank:0 "/ck" ~off:0 (s "AAAAAAAA");
  Pfs.fsync pfs ~time:3 ~rank:0 "/ck";
  Pfs.write pfs ~time:4 ~rank:0 "/ck" ~off:8 (s "BBBBBBBB");
  let stats, per_file = Pfs.crash pfs ~time:5 () in
  Alcotest.(check int) "one file" 1 (List.length per_file);
  stats.Fdata.lost_bytes

let test_crash_differentiates_engines () =
  let strong = crash_loss Consistency.Strong in
  let commit = crash_loss Consistency.Commit in
  let session = crash_loss Consistency.Session in
  let eventual_slow = crash_loss (Consistency.Eventual { delay = 100 }) in
  let eventual_fast = crash_loss (Consistency.Eventual { delay = 1 }) in
  Alcotest.(check int) "strong loses nothing" 0 strong;
  Alcotest.(check int) "commit loses the unsynced write" 8 commit;
  Alcotest.(check int) "session loses both (no close)" 16 session;
  Alcotest.(check int) "slow eventual loses both" 16 eventual_slow;
  Alcotest.(check int) "fast eventual loses nothing" 0 eventual_fast;
  (* The differentiation the report demonstrates, locked in. *)
  Alcotest.(check bool) "strictly ordered" true
    (strong < commit && commit < session)

let test_torn_write_stripe_boundary () =
  (* A 20-byte in-flight write over 8-byte stripes is three pieces
     (8+8+4); keeping two of them must keep exactly the 16-byte
     stripe-aligned prefix. *)
  let pfs =
    Pfs.create
      ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4)
      Consistency.Commit
  in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (s "aaaaaaaabbbbbbbbcccc");
  let stats, _ =
    Pfs.crash pfs ~time:3
      ~keep_stripes:(fun ~total ->
        Alcotest.(check int) "three stripe pieces" 3 total;
        2)
      ()
  in
  Alcotest.(check int) "one torn write" 1 stats.Fdata.torn_writes;
  Alcotest.(check int) "stripe-aligned prefix survives" 16
    stats.Fdata.torn_bytes;
  Alcotest.(check int) "no outright losses" 0 stats.Fdata.lost_writes;
  (* Publish the survivor and look at it: the prefix is intact, the torn
     tail reads as holes. *)
  Pfs.fsync pfs ~time:10 ~rank:0 "/f";
  let r = Pfs.read_back pfs ~time:20 "/f" in
  Alcotest.(check string) "prefix intact, tail gone"
    "aaaaaaaabbbbbbbb\000\000\000\000"
    (Bytes.to_string r.Fdata.data)

let test_crash_keeps_all_stripes () =
  (* keep_stripes = total: the in-flight write survives whole. *)
  let pfs =
    Pfs.create
      ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4)
      Consistency.Commit
  in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (s "aaaaaaaabbbb");
  let stats, _ =
    Pfs.crash pfs ~time:3 ~keep_stripes:(fun ~total -> total) ()
  in
  Alcotest.(check int) "torn whole" 12 stats.Fdata.torn_bytes;
  Alcotest.(check int) "nothing lost" 0 stats.Fdata.lost_bytes

(* End-to-end crash/restart through the runner ----------------------------- *)

(* A minimal checkpointing app: every rank writes its own 96-byte file in
   three 32-byte pieces — the first fsynced, the second left uncommitted,
   the third the in-flight write a planned crash lands on (the victim's
   5th backend call: open, write, fsync, write, write).  Idempotent, so a
   restart re-produces the same files — the recovery path of N-N
   checkpointing.  The three pieces are what differentiates the engines at
   the crash: strong persists the two completed writes, commit only the
   fsynced one, session neither (the file is never closed before the
   crash). *)
let attempts_seen = ref []

let piece rank tag = Bytes.init 32 (fun i -> Char.chr ((rank + tag + i) land 0xff))

let ck_body env =
  let rank = Hpcfs_mpi.Mpi.rank env.Runner.comm in
  if rank = 0 && not (List.mem env.Runner.attempt !attempts_seen) then
    attempts_seen := env.Runner.attempt :: !attempts_seen;
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

let final_contents result =
  List.map
    (fun r ->
      let path = Printf.sprintf "/out/ck.%d" r in
      (path, Bytes.to_string (Pfs.read_back result.Runner.pfs ~time:(1 lsl 30) path).Fdata.data))
    [ 0; 1; 2; 3 ]

let test_runner_crash_restart () =
  attempts_seen := [];
  let plan =
    Plan.make ~seed:9 [ Plan.crash ~rank:1 ~restart_delay:8 (Plan.At_io 5) ]
  in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4 ~faults:plan ck_body
  in
  let reference = Runner.run ~semantics:Consistency.Session ~nprocs:4 ck_body in
  Alcotest.(check (list int)) "both attempts ran" [ 1; 0 ] !attempts_seen;
  (match faulted.Runner.faults with
  | None -> Alcotest.fail "expected a fault outcome"
  | Some o ->
    Alcotest.(check int) "one crash" 1 (List.length o.Injector.o_crashes);
    Alcotest.(check int) "one restart" 1 o.Injector.o_restarts;
    let c = List.hd o.Injector.o_crashes in
    Alcotest.(check int) "victim rank" 1 c.Injector.cr_rank;
    Alcotest.(check int) "died on its fifth I/O call" 5 c.Injector.cr_io_index;
    Alcotest.(check bool) "the uncommitted write was lost or torn" true
      (c.Injector.cr_stats.Fdata.lost_writes
       + c.Injector.cr_stats.Fdata.torn_writes
      > 0));
  Alcotest.(check bool) "no fault outcome without a plan" true
    (reference.Runner.faults = None);
  (* The restart re-wrote the checkpoint: final contents match the
     fault-free run. *)
  Alcotest.(check (list (pair string string)))
    "recovered to the reference state" (final_contents reference)
    (final_contents faulted)

let test_runner_crash_no_restart () =
  attempts_seen := [];
  let plan = Plan.make ~seed:9 [ Plan.crash ~rank:1 (Plan.At_io 5) ] in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4 ~faults:plan ck_body
  in
  Alcotest.(check (list int)) "single attempt" [ 0 ] !attempts_seen;
  match faulted.Runner.faults with
  | None -> Alcotest.fail "expected a fault outcome"
  | Some o ->
    Alcotest.(check int) "no restart" 0 o.Injector.o_restarts;
    Alcotest.(check bool) "session run lost the victim's write" true
      ((Injector.crash_stats o).Fdata.lost_bytes > 0)

(* Storage-target failures ------------------------------------------------- *)

(* The headline differentiation, locked in exact bytes: two 32-byte writes
   over 8-byte stripes on 4 servers put 8 bytes of each write on target 2
   ([16,24) and [48,56)).  Failing that target between the fsync and any
   close costs nothing under strong (settled on arrival) or commit (the
   fsync published both), and exactly those 16 unsettled bytes under
   session. *)
let target_loss semantics =
  let pfs =
    Pfs.create ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4) semantics
  in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/ck");
  Pfs.write pfs ~time:2 ~rank:0 "/ck" ~off:0 (Bytes.make 32 'A');
  Pfs.write pfs ~time:3 ~rank:0 "/ck" ~off:32 (Bytes.make 32 'B');
  Pfs.fsync pfs ~time:4 ~rank:0 "/ck";
  let stats, per_file, ranks, _ = Pfs.fail_target pfs ~time:5 2 in
  (stats, per_file, ranks)

let test_target_failure_differentiates_engines () =
  let lost sem = let s, _, _ = target_loss sem in s.Fdata.lost_bytes in
  Alcotest.(check int) "strong loses nothing" 0 (lost Consistency.Strong);
  Alcotest.(check int) "commit loses nothing after the commit" 0
    (lost Consistency.Commit);
  Alcotest.(check int) "session loses exactly the target's unsettled chunks"
    16 (lost Consistency.Session);
  let stats, per_file, ranks = target_loss Consistency.Session in
  (* Both writes lost their 8-byte middle chunk: torn, not dropped whole. *)
  Alcotest.(check int) "both writes torn" 2 stats.Fdata.torn_writes;
  Alcotest.(check int) "the off-target bytes survive" 48 stats.Fdata.torn_bytes;
  Alcotest.(check int) "one affected file" 1 (List.length per_file);
  Alcotest.(check (list int)) "the writer is the affected client" [ 0 ] ranks;
  (* An engine that lost nothing reports no affected files or clients. *)
  let _, per_file, ranks = target_loss Consistency.Strong in
  Alcotest.(check int) "strong: no affected files" 0 (List.length per_file);
  Alcotest.(check (list int)) "strong: no affected clients" [] ranks

(* The client journal ------------------------------------------------------ *)

let journal_scenario semantics ~publish =
  let pfs =
    Pfs.create ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4) semantics
  in
  let j = Journal.create ~prng:(Prng.create 3) pfs in
  let b = Journal.wrap j (Backend.of_pfs pfs) in
  ignore (b.Backend.open_file ~time:1 ~rank:0 ~create:true ~trunc:false "/f");
  b.Backend.write ~time:2 ~rank:0 "/f" ~off:0 (Bytes.make 32 'A');
  b.Backend.write ~time:3 ~rank:0 "/f" ~off:32 (Bytes.make 32 'B');
  if publish then b.Backend.fsync ~time:4 ~rank:0 "/f";
  let _ = Pfs.fail_target pfs ~time:5 2 in
  Journal.on_target_fail j ~time:5 ~target:2;
  (pfs, j, b)

let test_journal_settle_rules () =
  (* Settling mirrors Fdata.persisted: strong on arrival, commit at the
     fsync, session never (no close here) — only unsettled entries turn
     dirty when their target dies. *)
  let outstanding sem ~publish =
    let _, j, _ = journal_scenario sem ~publish in
    Journal.outstanding j
  in
  Alcotest.(check (pair int int)) "strong: nothing pending" (0, 0)
    (outstanding Consistency.Strong ~publish:false);
  Alcotest.(check (pair int int)) "commit after fsync: nothing pending" (0, 0)
    (outstanding Consistency.Commit ~publish:true);
  Alcotest.(check (pair int int)) "commit without fsync: both entries dirty"
    (2, 64)
    (outstanding Consistency.Commit ~publish:false);
  Alcotest.(check (pair int int)) "session: both entries dirty" (2, 64)
    (outstanding Consistency.Session ~publish:false);
  Alcotest.(check (pair int int)) "eventual: delay not yet elapsed" (2, 64)
    (outstanding (Consistency.Eventual { delay = 100 }) ~publish:false)

let test_journal_replay_restores_contents () =
  let pfs, j, b = journal_scenario Consistency.Session ~publish:false in
  (* While the target is down: new writes to it park (retried under the
     capped backoff, accounted not slept), reads degrade to zeroes. *)
  b.Backend.write ~time:6 ~rank:0 "/f" ~off:16 (Bytes.make 8 'C');
  let st = Journal.stats j in
  Alcotest.(check int) "write parked" 1 st.Journal.parked_writes;
  Alcotest.(check bool) "retries and backoff accounted" true
    (st.Journal.retries > 0 && st.Journal.backoff_ticks > 0);
  let r = b.Backend.read ~time:7 ~rank:0 "/f" ~off:16 ~len:8 in
  Alcotest.(check string) "degraded read serves zeroes" (String.make 8 '\000')
    (Bytes.to_string r.Fdata.data);
  (* Replay lands nothing while the target is still down... *)
  Alcotest.(check int) "no replay while down" 0 (Journal.replay j);
  (* ...and everything once it recovers: the two dirty entries plus the
     parked one, at their original ranks and timestamps. *)
  Pfs.recover_target pfs ~time:9 2;
  Alcotest.(check int) "replay lands all three entries" 72
    (Journal.replay j);
  Alcotest.(check (pair int int)) "journal drained" (0, 0)
    (Journal.outstanding j);
  b.Backend.close_file ~time:11 ~rank:0 "/f";
  let r = Pfs.read_back pfs ~time:20 "/f" in
  Alcotest.(check string) "replay restored the history"
    (String.make 16 'A' ^ String.make 8 'C' ^ String.make 8 'A'
   ^ String.make 32 'B')
    (Bytes.to_string r.Fdata.data);
  (* fsck over a drained journal: every file clean, nothing lost. *)
  let rep = Journal.check j in
  Alcotest.(check int) "no corrupted files" 0 rep.Staging.corrupted;
  Alcotest.(check int) "no lost bytes" 0 rep.Staging.lost_bytes

let test_recovery_verdicts () =
  (* A target that never comes back: the dirty entries cannot replay, fsck
     gives up on them and classifies the file corrupted. *)
  let _, j, _ = journal_scenario Consistency.Session ~publish:false in
  let rep = Journal.check j in
  Alcotest.(check int) "one corrupted file" 1 rep.Staging.corrupted;
  Alcotest.(check int) "both entries lost" 2
    (Journal.stats j).Journal.outstanding_writes;
  Alcotest.(check int) "their bytes are gone" 64 rep.Staging.lost_bytes;
  (match rep.Staging.files with
  | [ f ] ->
    Alcotest.(check bool) "verdict corrupted" true
      (f.Staging.c_verdict = Staging.Corrupted)
  | _ -> Alcotest.fail "expected one file report");
  (* The same failure with a recovered target: fsck's final replay lands
     everything and the file is recovered, not corrupted. *)
  let pfs, j, _ = journal_scenario Consistency.Session ~publish:false in
  Pfs.recover_target pfs ~time:9 2;
  let rep = Journal.check j in
  Alcotest.(check int) "nothing corrupted" 0 rep.Staging.corrupted;
  Alcotest.(check int) "one recovered file" 1 rep.Staging.recovered;
  Alcotest.(check int) "all bytes replayed" 64 rep.Staging.recovered_bytes

(* Target failures through the runner -------------------------------------- *)

let record_times p (result : Runner.result) =
  List.sort compare
    (List.filter_map
       (fun (r : Hpcfs_trace.Record.t) ->
         if p r.Hpcfs_trace.Record.func then Some r.Hpcfs_trace.Record.time
         else None)
       result.Runner.records)

let has_prefix pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* The instant just before the first close: the closing rank has issued all
   three of its pieces, none of them settled under session — so an OST
   failure there is guaranteed to drop journaled-but-unsettled data.  The
   default 1 MiB stripe puts every 96-byte checkpoint on target 0. *)
let probe_fail_time () =
  let reference = Runner.run ~semantics:Consistency.Session ~nprocs:4 ck_body in
  (reference, List.hd (record_times (has_prefix "close") reference) - 1)

let test_runner_target_failure_recovery () =
  let reference, t_fail = probe_fail_time () in
  let plan = Plan.make ~seed:5 [ Plan.ost_fail ~target:0 ~recover:32 t_fail ] in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4 ~faults:plan ck_body
  in
  (match faulted.Runner.faults with
  | None -> Alcotest.fail "expected a fault outcome"
  | Some o ->
    Alcotest.(check int) "one target failure" 1 (Injector.target_failure_count o);
    Alcotest.(check int) "no rank crash" 0 (List.length o.Injector.o_crashes);
    Alcotest.(check bool) "journal replayed the refused and dropped bytes"
      true
      (Injector.replayed_bytes o > 0);
    Alcotest.(check int) "nothing unreplayable" 0
      (Option.get o.Injector.o_journal).Journal.outstanding_bytes;
    (match o.Injector.o_check with
    | None -> Alcotest.fail "expected an fsck report"
    | Some rep ->
      Alcotest.(check int) "fsck: nothing corrupted" 0 rep.Staging.corrupted;
      Alcotest.(check bool) "fsck: files recovered" true
        (rep.Staging.recovered > 0)));
  Alcotest.(check (list (pair string string)))
    "recovered to the fault-free state" (final_contents reference)
    (final_contents faulted)

let test_runner_target_failure_permanent () =
  let reference, t_fail = probe_fail_time () in
  ignore reference;
  let plan = Plan.make ~seed:5 [ Plan.ost_fail ~target:0 t_fail ] in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4 ~faults:plan ck_body
  in
  match faulted.Runner.faults with
  | None -> Alcotest.fail "expected a fault outcome"
  | Some o -> (
    Alcotest.(check bool) "unreplayable bytes remain" true
      ((Option.get o.Injector.o_journal).Journal.outstanding_bytes > 0);
    match o.Injector.o_check with
    | None -> Alcotest.fail "expected an fsck report"
    | Some rep ->
      Alcotest.(check bool) "fsck: corrupted files" true
        (rep.Staging.corrupted > 0);
      Alcotest.(check bool) "fsck: lost bytes surfaced" true
        (rep.Staging.lost_bytes > 0))

let test_runner_mds_failure () =
  attempts_seen := [];
  let reference = Runner.run ~semantics:Consistency.Session ~nprocs:4 ck_body in
  let t_last_open =
    List.hd (List.rev (record_times (has_prefix "open") reference))
  in
  let plan = Plan.make ~seed:5 [ Plan.mds_fail ~recover:16 (t_last_open - 1) ] in
  let faulted =
    Runner.run ~semantics:Consistency.Session ~nprocs:4 ~faults:plan ck_body
  in
  (match faulted.Runner.faults with
  | None -> Alcotest.fail "expected a fault outcome"
  | Some o -> (
    Alcotest.(check int) "mds failure recorded" 1
      (Injector.target_failure_count o);
    Alcotest.(check int) "aborted once, restarted once" 1 o.Injector.o_restarts;
    match o.Injector.o_crashes with
    | [ c ] ->
      Alcotest.(check int) "fail-stop job abort, not a rank crash" (-1)
        c.Injector.cr_rank
    | l ->
      Alcotest.fail (Printf.sprintf "expected one abort, got %d" (List.length l))));
  Alcotest.(check (list int)) "both attempts ran" [ 1; 0 ] !attempts_seen;
  Alcotest.(check (list (pair string string)))
    "the restart recovered the checkpoint" (final_contents reference)
    (final_contents faulted)

let test_target_crash_report_rows () =
  let _, t_fail = probe_fail_time () in
  let plan = Plan.make ~seed:5 [ Plan.ost_fail ~target:0 ~recover:32 t_fail ] in
  let semantics =
    [ Consistency.Strong; Consistency.Commit; Consistency.Session ]
  in
  let report () =
    Validation.crash_report ~nprocs:4 ~semantics ~app:"ck-ost" ~plan ck_body
  in
  let rows = report () in
  (match rows with
  | [ strong; commit; session ] ->
    (* Strong settled everything before the failure and the journal
       replays everything refused during the outage: the fault costs
       nothing.  Commit and session both lose unsettled extents at the
       failure instant and win them back through replay. *)
    Alcotest.(check string) "strong survives" "survives"
      (Report.verdict strong);
    Alcotest.(check string) "commit recovers via replay" "recovered"
      (Report.verdict commit);
    Alcotest.(check string) "session recovers via replay" "recovered"
      (Report.verdict session);
    List.iter
      (fun r ->
        Alcotest.(check int) "one target failure" 1 r.Report.r_target_failures;
        Alcotest.(check bool) "no rank crash" false r.Report.r_crashed;
        Alcotest.(check int) "no corruption left" 0 r.Report.r_post_corrupted;
        Alcotest.(check int) "nothing unreplayable" 0
          r.Report.r_journal_lost_bytes)
      rows;
    Alcotest.(check bool) "session replayed bytes" true
      (session.Report.r_replayed_bytes > 0)
  | _ -> Alcotest.fail "expected three rows");
  (* Bit-identical across runs: same seed, same plan, same report. *)
  let rows' = report () in
  Alcotest.(check bool) "rows identical" true (rows = rows');
  Alcotest.(check string) "CSV identical" (Report.to_csv rows)
    (Report.to_csv rows');
  Alcotest.(check bool) "target plans render the extended CSV" true
    (has_prefix Report.csv_header_extended (Report.to_csv rows))

(* The report -------------------------------------------------------------- *)

let test_crash_report_rows_and_determinism () =
  let plan =
    Plan.make ~seed:9 [ Plan.crash ~rank:1 ~restart_delay:8 (Plan.At_io 5) ]
  in
  let semantics =
    [ Consistency.Strong; Consistency.Commit; Consistency.Session ]
  in
  let report () =
    Validation.crash_report ~nprocs:4 ~semantics ~app:"ck-test" ~plan ck_body
  in
  let rows = report () in
  Alcotest.(check int) "one row per engine" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check string) "plan recorded" (Plan.to_string plan)
        r.Report.r_plan;
      Alcotest.(check bool) "crashed" true r.Report.r_crashed;
      Alcotest.(check int) "restarted" 1 r.Report.r_restarts;
      Alcotest.(check string) "restart recovered the checkpoint" "recovered"
        (Report.verdict r))
    rows;
  (* The differentiated outcome the subsystem exists to demonstrate: the
     same crash costs strictly more under each weaker publication rule —
     strong keeps both completed writes, commit only the fsynced one,
     session neither. *)
  let lost r = r.Report.r_lost_bytes in
  (match rows with
  | [ strong; commit; session ] ->
    Alcotest.(check int) "strong loses no completed write" 0 (lost strong);
    Alcotest.(check int) "commit loses the unsynced write" 32 (lost commit);
    Alcotest.(check int) "session loses both unpublished writes" 64
      (lost session)
  | _ -> Alcotest.fail "expected three rows");
  (* Bit-identical across runs: same seed, same plan, same report. *)
  let rows' = report () in
  Alcotest.(check bool) "rows identical" true (rows = rows');
  Alcotest.(check string) "CSV identical" (Report.to_csv rows)
    (Report.to_csv rows')

let test_report_verdicts () =
  let base =
    {
      Report.r_app = "a";
      r_semantics = "strong";
      r_plan = "p";
      r_crashed = true;
      r_crash_rank = 0;
      r_crash_time = 1;
      r_restarts = 0;
      r_lost_writes = 0;
      r_lost_bytes = 0;
      r_torn_writes = 0;
      r_torn_bytes = 0;
      r_bb_lost_bytes = 0;
      r_drain_faults = 0;
      r_post_files = 1;
      r_post_corrupted = 0;
      r_target_failures = 0;
      r_replayed_bytes = 0;
      r_journal_lost_bytes = 0;
      r_fsck_clean = 0;
      r_fsck_recovered = 0;
      r_fsck_corrupted = 0;
      r_wal = false;
      r_log_faults = 0;
      r_wal_recovered_bytes = 0;
      r_wal_lost_bytes = 0;
      r_wal_torn_bytes = 0;
    }
  in
  Alcotest.(check string) "survives" "survives" (Report.verdict base);
  Alcotest.(check string) "recovered" "recovered"
    (Report.verdict { base with Report.r_lost_writes = 1; r_lost_bytes = 8 });
  Alcotest.(check string) "corrupted" "corrupted"
    (Report.verdict
       { base with Report.r_lost_writes = 1; r_post_corrupted = 1 });
  Alcotest.(check string) "no-crash" "no-crash"
    (Report.verdict { base with Report.r_crashed = false });
  (* CSV quoting: plans contain commas. *)
  let row = { base with Report.r_plan = "crash:rank=0,io=1" } in
  Alcotest.(check bool) "plan quoted in CSV" true
    (String.length (Report.to_csv [ row ]) > 0
    && String.exists (fun c -> c = '"') (Report.to_csv [ row ]));
  (* Rows without storage failures keep the historical column set byte for
     byte; a single target failure switches the whole table to the
     extended one. *)
  Alcotest.(check bool) "legacy rows render the legacy CSV" true
    (has_prefix (Report.csv_header ^ "\n") (Report.to_csv [ base ]));
  Alcotest.(check bool) "a target failure switches to the extended CSV" true
    (has_prefix
       (Report.csv_header_extended ^ "\n")
       (Report.to_csv [ base; { base with Report.r_target_failures = 1 } ]))

(* Drain faults through a tiered run --------------------------------------- *)

let test_tiered_drain_faults () =
  let plan =
    Plan.make ~seed:9
      [
        Plan.crash ~rank:1 ~restart_delay:8 (Plan.At_io 2);
        Plan.drain_fault 2;
      ]
  in
  let result =
    Runner.run ~semantics:Consistency.Session ~nprocs:4
      ~tier:Hpcfs_bb.Tier.default_config ~faults:plan ck_body
  in
  match result.Runner.faults with
  | None -> Alcotest.fail "expected a fault outcome"
  | Some o ->
    Alcotest.(check int) "both drain faults injected" 2 o.Injector.o_drain_faults;
    let st =
      match result.Runner.tier with
      | Some t -> Hpcfs_bb.Tier.stats t
      | None -> Alcotest.fail "tiered run has a tier"
    in
    Alcotest.(check int) "tier counted them too" 2 st.Hpcfs_bb.Tier.core.faults

(* The MPI event log of a crash-restarted run is every attempt's log in
   attempt order; the restart clock continues past the crash, so the
   concatenation stays in time order.  Pinned at 8 ranks under a crash
   of rank 1 at its fifth I/O call with a restart. *)
let test_faulted_event_log () =
  let plan = Result.get_ok (Plan.of_string "crash:rank=1,io=5,restart=64") in
  let time = function
    | Mpi.E_send { time; _ } | Mpi.E_recv { time; _ } -> time
    | Mpi.E_barrier { enter; _ } | Mpi.E_coll { enter; _ } -> enter
  in
  List.iter
    (fun (app, expected) ->
      let entry = Option.get (Registry.find app) in
      let result = Runner.run ~nprocs:8 ~faults:plan entry.Registry.body in
      let events = Lazy.force result.Runner.events in
      Alcotest.(check int) (app ^ ": events") expected (List.length events);
      let times = List.map time events in
      Alcotest.(check (list int)) (app ^ ": non-decreasing in time")
        (List.stable_sort Int.compare times) times)
    [ ("FLASH-fbs", 8_959); ("pF3D-IO", 36) ]

let suite =
  [
    Alcotest.test_case "plan spec roundtrip" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan parse error messages" `Quick
      test_plan_parse_error_messages;
    Alcotest.test_case "plan target and shard range" `Quick
      test_plan_target_and_shard_range;
    Alcotest.test_case "plan constructors" `Quick test_plan_constructors;
    Alcotest.test_case "crash differentiates engines" `Quick
      test_crash_differentiates_engines;
    Alcotest.test_case "torn write at stripe boundary" `Quick
      test_torn_write_stripe_boundary;
    Alcotest.test_case "torn write kept whole" `Quick
      test_crash_keeps_all_stripes;
    Alcotest.test_case "crash and restart through runner" `Quick
      test_runner_crash_restart;
    Alcotest.test_case "crash without restart" `Quick
      test_runner_crash_no_restart;
    Alcotest.test_case "crash report rows + determinism" `Quick
      test_crash_report_rows_and_determinism;
    Alcotest.test_case "report verdicts and CSV" `Quick test_report_verdicts;
    Alcotest.test_case "drain faults through tier" `Quick
      test_tiered_drain_faults;
    Alcotest.test_case "target failure differentiates engines" `Quick
      test_target_failure_differentiates_engines;
    Alcotest.test_case "journal settle rules" `Quick test_journal_settle_rules;
    Alcotest.test_case "journal replay restores contents" `Quick
      test_journal_replay_restores_contents;
    Alcotest.test_case "recovery verdicts" `Quick test_recovery_verdicts;
    Alcotest.test_case "target failure and recovery through runner" `Quick
      test_runner_target_failure_recovery;
    Alcotest.test_case "permanent target failure loses bytes" `Quick
      test_runner_target_failure_permanent;
    Alcotest.test_case "mds failure aborts and restarts" `Quick
      test_runner_mds_failure;
    Alcotest.test_case "target crash report rows + determinism" `Quick
      test_target_crash_report_rows;
    Alcotest.test_case "faulted event log" `Quick test_faulted_event_log;
  ]
