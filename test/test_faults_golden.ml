(* Golden crash-consistency reports.  pF3D-IO at 8 ranks runs under six
   fault plans — a direct crash, the same crash through the async burst
   buffer and through the write-ahead log, an OST failure the async burst
   buffer and the client journal ride out, an OST failure that never
   recovers, and an MDS failure with restart — each under the three
   default engines.  The CSV and the table of every report are compared to
   a committed transcript, so a change to the fault domain that moves one
   cell shows up here. *)

module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Plan = Hpcfs_fault.Plan
module Report = Hpcfs_fault.Report
module Registry = Hpcfs_apps.Registry
module Validation = Hpcfs_apps.Validation

let crash = "crash:rank=1,io=5,restart=64"
let async = { Tier.default_config with Tier.policy = Drain.default_async }

let report ~label ?tier ?wal spec =
  let entry = Option.get (Registry.find "pF3D-IO") in
  let plan = Result.get_ok (Plan.of_string ~seed:42 spec) in
  let rows =
    Validation.crash_report ~nprocs:8 ?tier ?wal
      ~app:(Registry.label entry) ~plan entry.Registry.body
  in
  Format.asprintf "== %s@.%s%a" label (Report.to_csv rows) Report.pp rows

let transcript () =
  String.concat ""
    [
      report ~label:"direct crash" crash;
      report ~label:"async crash" ~tier:async crash;
      report ~label:"async ostfail" ~tier:async
        "ostfail:target=0,t=100,recover=64";
      report ~label:"wal crash" ~wal:Wal.default_config crash;
      report ~label:"ostfail permanent" "ostfail:target=0,t=60";
      report ~label:"mdsfail" "mdsfail:t=100,recover=64";
    ]

let expected =
  {|== direct crash
app,semantics,plan,crashed,crash_rank,crash_time,restarts,lost_writes,lost_bytes,torn_writes,torn_bytes,bb_lost_bytes,drain_faults,post_files,post_corrupted,verdict
pF3D-IO,strong,"crash:rank=1,io=5,restart=64",true,1,151,1,0,0,1,2048,0,0,8,0,recovered
pF3D-IO,commit,"crash:rank=1,io=5,restart=64",true,1,151,1,3,4608,1,2048,0,0,8,0,recovered
pF3D-IO,session,"crash:rank=1,io=5,restart=64",true,1,151,1,3,4608,1,2048,0,0,8,0,recovered
app            semantics  crashed restarts lost_bytes torn_wr torn_bytes  bb_lost corrupt    verdict
pF3D-IO        strong         yes        1          0       1       2048        0       0  recovered
pF3D-IO        commit         yes        1       4608       1       2048        0       0  recovered
pF3D-IO        session        yes        1       4608       1       2048        0       0  recovered
== async crash
app,semantics,plan,crashed,crash_rank,crash_time,restarts,lost_writes,lost_bytes,torn_writes,torn_bytes,bb_lost_bytes,drain_faults,post_files,post_corrupted,verdict
pF3D-IO,strong,"crash:rank=1,io=5,restart=64",true,1,151,1,0,0,0,0,6656,0,8,0,recovered
pF3D-IO,commit,"crash:rank=1,io=5,restart=64",true,1,151,1,0,0,0,0,6656,0,8,0,recovered
pF3D-IO,session,"crash:rank=1,io=5,restart=64",true,1,151,1,0,0,0,0,6656,0,8,0,recovered
app            semantics  crashed restarts lost_bytes torn_wr torn_bytes  bb_lost corrupt    verdict
pF3D-IO        strong         yes        1          0       0          0     6656       0  recovered
pF3D-IO        commit         yes        1          0       0          0     6656       0  recovered
pF3D-IO        session        yes        1          0       0          0     6656       0  recovered
== async ostfail
app,semantics,plan,crashed,crash_rank,crash_time,restarts,lost_writes,lost_bytes,torn_writes,torn_bytes,bb_lost_bytes,drain_faults,post_files,post_corrupted,target_failures,replayed_bytes,journal_lost_bytes,fsck_clean,fsck_recovered,fsck_corrupted,verdict
pF3D-IO,strong,"ostfail:target=0,t=100,recover=64",false,-1,-1,0,0,0,0,0,0,0,8,0,1,0,0,8,0,0,survives
pF3D-IO,commit,"ostfail:target=0,t=100,recover=64",false,-1,-1,0,27,0,0,0,0,0,8,0,1,59904,0,7,1,0,recovered
pF3D-IO,session,"ostfail:target=0,t=100,recover=64",false,-1,-1,0,27,0,0,0,0,0,8,0,1,59904,0,7,1,0,recovered
app            semantics  crashed restarts lost_bytes torn_wr torn_bytes  bb_lost ost_fail  replayed jrnl_lost corrupt    verdict
pF3D-IO        strong          no        0          0       0          0        0        1         0         0       0   survives
pF3D-IO        commit          no        0          0       0          0        0        1     59904         0       0  recovered
pF3D-IO        session         no        0          0       0          0        0        1     59904         0       0  recovered
== wal crash
app,semantics,plan,crashed,crash_rank,crash_time,restarts,lost_writes,lost_bytes,torn_writes,torn_bytes,bb_lost_bytes,drain_faults,post_files,post_corrupted,log_faults,wal_recovered_bytes,wal_lost_bytes,wal_torn_bytes,verdict
pF3D-IO,strong,"crash:rank=1,io=5,restart=64",true,1,151,1,0,0,0,0,0,0,8,0,0,6656,0,0,survives
pF3D-IO,commit,"crash:rank=1,io=5,restart=64",true,1,151,1,0,0,0,0,0,0,8,0,0,0,4608,2048,recovered
pF3D-IO,session,"crash:rank=1,io=5,restart=64",true,1,151,1,0,0,0,0,0,0,8,0,0,0,4608,2048,recovered
app            semantics  crashed restarts lost_bytes torn_bytes ost_fail  log_fault wal_recov wal_lost wal_torn corrupt    verdict
pF3D-IO        strong         yes        1          0          0        0          0      6656        0        0       0   survives
pF3D-IO        commit         yes        1          0          0        0          0         0     4608     2048       0  recovered
pF3D-IO        session        yes        1          0          0        0          0         0     4608     2048       0  recovered
== ostfail permanent
app,semantics,plan,crashed,crash_rank,crash_time,restarts,lost_writes,lost_bytes,torn_writes,torn_bytes,bb_lost_bytes,drain_faults,post_files,post_corrupted,target_failures,replayed_bytes,journal_lost_bytes,fsck_clean,fsck_recovered,fsck_corrupted,verdict
pF3D-IO,strong,"ostfail:target=0,t=60",false,-1,-1,0,0,0,0,0,0,0,8,8,1,0,470528,0,0,8,corrupted
pF3D-IO,commit,"ostfail:target=0,t=60",false,-1,-1,0,29,57856,0,0,0,0,8,8,1,0,528384,0,0,8,corrupted
pF3D-IO,session,"ostfail:target=0,t=60",false,-1,-1,0,29,57856,0,0,0,0,8,8,1,0,528384,0,0,8,corrupted
app            semantics  crashed restarts lost_bytes torn_wr torn_bytes  bb_lost ost_fail  replayed jrnl_lost corrupt    verdict
pF3D-IO        strong          no        0          0       0          0        0        1         0    470528       8  corrupted
pF3D-IO        commit          no        0      57856       0          0        0        1         0    528384       8  corrupted
pF3D-IO        session         no        0      57856       0          0        0        1         0    528384       8  corrupted
== mdsfail
app,semantics,plan,crashed,crash_rank,crash_time,restarts,lost_writes,lost_bytes,torn_writes,torn_bytes,bb_lost_bytes,drain_faults,post_files,post_corrupted,target_failures,replayed_bytes,journal_lost_bytes,fsck_clean,fsck_recovered,fsck_corrupted,verdict
pF3D-IO,strong,"mdsfail:t=100,recover=64",true,-1,108,1,0,0,0,0,0,0,8,0,1,0,0,8,0,0,survives
pF3D-IO,commit,"mdsfail:t=100,recover=64",true,-1,108,1,0,0,0,0,0,0,8,0,1,0,0,8,0,0,survives
pF3D-IO,session,"mdsfail:t=100,recover=64",true,-1,108,1,0,0,0,0,0,0,8,0,1,0,0,8,0,0,survives
app            semantics  crashed restarts lost_bytes torn_wr torn_bytes  bb_lost ost_fail  replayed jrnl_lost corrupt    verdict
pF3D-IO        strong         yes        1          0       0          0        0        1         0         0       0   survives
pF3D-IO        commit         yes        1          0       0          0        0        1         0         0       0   survives
pF3D-IO        session        yes        1          0       0          0        0        1         0         0       0   survives
|}

let test_golden () =
  Alcotest.(check string) "faults report transcript" expected (transcript ())

let suite =
  [ Alcotest.test_case "pF3D-IO faults golden" `Quick test_golden ]
