(* Golden accounting of the two host-side staging tiers.  One fixed 8-rank
   DSL checkpoint (plus a dirty shared file read back while still staged)
   runs through the burst buffer under each drain policy and through the
   write-ahead log under each consistency engine, fault-free and under a
   crash and a log-fault plan.  The tiers' stats and fsck text and every
   bb.* / wal.* obs counter are compared to a committed transcript, so any
   change to the staging machinery that moves a single byte of accounting
   shows up here. *)

module Consistency = Hpcfs_fs.Consistency
module Staging = Hpcfs_fs.Staging
module Runner = Hpcfs_apps.Runner
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Plan = Hpcfs_fault.Plan
module Injector = Hpcfs_fault.Injector
module Obs = Hpcfs_obs.Obs
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile

let spec =
  "checkpoint:steps=6,every=2,layout=shared,pattern=strided,block=256,count=4,sync=fsync;\
   write:file=live,block=192,count=3,sync=none;\
   read:file=live,block=192,count=3,sync=none;\
   barrier;\
   read:file=live,block=192,count=3;\
   read:file=ckpt-0003,pattern=random,block=256,count=4"

let body = Compile.body (Result.get_ok (Workload.of_string spec))

let counters sink =
  List.filter_map
    (fun (name, m) ->
      match m with
      | Obs.Counter n
        when String.starts_with ~prefix:"bb." name
             || String.starts_with ~prefix:"wal." name ->
        Some (Printf.sprintf "  %s=%d" name n)
      | _ -> None)
    (Obs.metrics sink)
  |> List.sort compare

let leg ~label ?tier ?wal ?faults semantics =
  let sink = Obs.create () in
  let r =
    Runner.run ~obs:sink ~semantics ~nprocs:8 ?tier ?wal ?faults body
  in
  let stats =
    match (r.Runner.tier, r.Runner.wal) with
    | Some t, _ -> Format.asprintf "%a" Tier.pp_stats (Tier.stats t)
    | None, Some w ->
      let check =
        match r.Runner.faults with
        | Some { Injector.o_check = Some c; _ } -> c
        | _ -> Wal.check w
      in
      Format.asprintf "%a@.%a" Wal.pp_stats (Wal.stats w)
        (Staging.pp_check ~prefix:"wal") check
    | None, None -> ""
  in
  let crashes =
    match r.Runner.faults with
    | None -> []
    | Some o ->
      List.map
        (fun c ->
          Printf.sprintf "  crash rank=%d bb_lost=%d wal_lost=%d wal_torn=%d"
            c.Injector.cr_rank c.Injector.cr_bb_lost_bytes
            c.Injector.cr_wal_lost_bytes c.Injector.cr_wal_torn_bytes)
        o.Injector.o_crashes
  in
  String.concat "\n"
    ((("== " ^ label) :: String.split_on_char '\n' stats)
    @ crashes @ counters sink)

let bb policy = { Tier.default_config with Tier.policy }

let crash_plan () =
  Result.get_ok
    (Plan.of_string ~seed:7 "crash:rank=2,io=24,restart=64;drainfail:count=3;ostfail:target=0,t=60,recover=400")

let logfail_plan () =
  Result.get_ok (Plan.of_string ~seed:3 "logfail:count=7;logcap=2048")

let transcript () =
  String.concat "\n"
    [
      leg ~label:"bb sync-close" ~tier:(bb Drain.Sync_on_close)
        Consistency.Session;
      leg ~label:"bb async" ~tier:(bb Drain.default_async) Consistency.Session;
      leg ~label:"bb laminate" ~tier:(bb Drain.On_laminate) Consistency.Session;
      leg ~label:"wal strong" ~wal:Wal.default_config Consistency.Strong;
      leg ~label:"wal commit" ~wal:Wal.default_config Consistency.Commit;
      leg ~label:"wal session" ~wal:Wal.default_config Consistency.Session;
      leg ~label:"wal eventual:8" ~wal:Wal.default_config
        (Consistency.Eventual { delay = 8 });
      leg ~label:"bb async crash" ~tier:(bb Drain.default_async)
        ~faults:(crash_plan ()) Consistency.Session;
      leg ~label:"wal commit crash" ~wal:Wal.default_config
        ~faults:(crash_plan ()) Consistency.Commit;
      leg ~label:"wal session logfail" ~wal:Wal.default_config
        ~faults:(logfail_plan ()) Consistency.Session;
    ]

let expected =
  {|== bb sync-close
writes: 120 (29184 B)  reads: 80 (17408 B)
staged: 29184 B  drained: 29184 B  backlog never drained: 0 B
stage-in: 0 B  stage-out: 0 B
cache hits/misses: 51/29  drain stalls: 26 (29184 B)  peak occupancy: 4608 B
stale reads: 34 (8103 B)
  bb.bytes_read=17408
  bb.bytes_written=29184
  bb.cache_hits=51
  bb.cache_misses=29
  bb.drained_bytes=29184
  bb.reads=80
  bb.staged_bytes=29184
  bb.stalled_bytes=29184
  bb.stalls=26
  bb.writes=120
== bb async
writes: 120 (29184 B)  reads: 80 (17408 B)
staged: 29184 B  drained: 29184 B  backlog never drained: 0 B
stage-in: 0 B  stage-out: 0 B
cache hits/misses: 51/29  drain stalls: 25 (24704 B)  peak occupancy: 2304 B
stale reads: 37 (8679 B)
  bb.bytes_read=17408
  bb.bytes_written=29184
  bb.cache_hits=51
  bb.cache_misses=29
  bb.drained_bytes=29184
  bb.reads=80
  bb.staged_bytes=29184
  bb.stalled_bytes=24704
  bb.stalls=25
  bb.writes=120
== bb laminate
writes: 120 (29184 B)  reads: 80 (17408 B)
staged: 29184 B  drained: 29184 B  backlog never drained: 0 B
stage-in: 0 B  stage-out: 0 B
cache hits/misses: 61/19  drain stalls: 0 (0 B)  peak occupancy: 29184 B
stale reads: 31 (7149 B)
  bb.bytes_read=17408
  bb.bytes_written=29184
  bb.cache_hits=61
  bb.cache_misses=19
  bb.drained_bytes=29184
  bb.reads=80
  bb.staged_bytes=29184
  bb.writes=120
== wal strong
writes: 120 (29184 B)  reads: 80 (17408 B)
appended: 29184 B  replayed: 29184 B  backlog never replayed: 0 B
flush stalls: 32 (28160 B)  peak log occupancy: 1024 B  stale reads: 0 (0 B)
wal-fsck: 4 files, 4 clean, 0 recovered, 0 corrupted
  wal.appended_bytes=29184
  wal.bytes_read=17408
  wal.bytes_written=29184
  wal.drained_bytes=29184
  wal.reads=80
  wal.stalled_bytes=28160
  wal.stalls=32
  wal.writes=120
== wal commit
writes: 120 (29184 B)  reads: 80 (17408 B)
appended: 29184 B  replayed: 29184 B  backlog never replayed: 0 B
flush stalls: 25 (24704 B)  peak log occupancy: 2304 B  stale reads: 18 (3456 B)
wal-fsck: 4 files, 4 clean, 0 recovered, 0 corrupted
  wal.appended_bytes=29184
  wal.bytes_read=17408
  wal.bytes_written=29184
  wal.drained_bytes=29184
  wal.reads=80
  wal.stalled_bytes=24704
  wal.stalls=25
  wal.writes=120
== wal session
writes: 120 (29184 B)  reads: 80 (17408 B)
appended: 29184 B  replayed: 29184 B  backlog never replayed: 0 B
flush stalls: 1 (1152 B)  peak log occupancy: 4096 B  stale reads: 48 (10917 B)
wal-fsck: 4 files, 4 clean, 0 recovered, 0 corrupted
  wal.appended_bytes=29184
  wal.bytes_read=17408
  wal.bytes_written=29184
  wal.drained_bytes=29184
  wal.reads=80
  wal.stalled_bytes=1152
  wal.stalls=1
  wal.writes=120
== wal eventual:8
writes: 120 (29184 B)  reads: 80 (17408 B)
appended: 29184 B  replayed: 29184 B  backlog never replayed: 0 B
flush stalls: 0 (0 B)  peak log occupancy: 4096 B  stale reads: 0 (0 B)
wal-fsck: 4 files, 4 clean, 0 recovered, 0 corrupted
  wal.appended_bytes=29184
  wal.bytes_read=17408
  wal.bytes_written=29184
  wal.drained_bytes=29184
  wal.reads=80
  wal.writes=120
== bb async crash
writes: 237 (57792 B)  reads: 100 (21248 B)
staged: 57792 B  drained: 43776 B  backlog never drained: 14016 B
stage-in: 0 B  stage-out: 0 B
cache hits/misses: 71/29  drain stalls: 25 (24704 B)  peak occupancy: 28608 B
stale reads: 37 (8679 B)
drain faults: 3 (3 retries, 61 backoff ticks, 0 aborts)  crash lost: 14016 B
drains refused by down target: 249
  crash rank=2 bb_lost=14016 wal_lost=0 wal_torn=0
  bb.bytes_read=21248
  bb.bytes_written=57792
  bb.cache_hits=71
  bb.cache_misses=29
  bb.crash_lost_bytes=14016
  bb.drain_backoff_ticks=61
  bb.drain_faults=3
  bb.drain_retries=3
  bb.drain_target_down=249
  bb.drained_bytes=43776
  bb.reads=100
  bb.staged_bytes=57792
  bb.stalled_bytes=24704
  bb.stalls=25
  bb.writes=237
== wal commit crash
writes: 237 (57792 B)  reads: 100 (21248 B)
appended: 57792 B  replayed: 56064 B  backlog never replayed: 1728 B
flush stalls: 25 (24704 B)  peak log occupancy: 28608 B  stale reads: 18 (3456 B)
crash lost: 1536 B  torn: 192 B  recovered by replay: 26880 B
replays refused by down target: 33
wal-fsck: 4 files, 0 clean, 3 recovered, 1 corrupted; 26880 B replayed from the log; 1536 B lost, 192 B torn
  /wl/workload/ckpt-0001   recovered recovered=8192B lost=0B torn=0B
  /wl/workload/ckpt-0002   recovered recovered=8192B lost=0B torn=0B
  /wl/workload/ckpt-0003   recovered recovered=8192B lost=0B torn=0B
  /wl/workload/live        corrupted recovered=2304B lost=1536B torn=192B
  crash rank=2 bb_lost=0 wal_lost=1536 wal_torn=192
  wal.appended_bytes=57792
  wal.bytes_read=21248
  wal.bytes_written=57792
  wal.crash_lost_bytes=1536
  wal.crash_torn_bytes=192
  wal.drain_target_down=33
  wal.drained_bytes=56064
  wal.reads=100
  wal.recovered_bytes=26880
  wal.stalled_bytes=24704
  wal.stalls=25
  wal.writes=237
== wal session logfail
writes: 120 (29184 B)  reads: 80 (17408 B)
appended: 28928 B  replayed: 28928 B  backlog never replayed: 0 B
flush stalls: 26 (8576 B)  peak log occupancy: 4096 B  stale reads: 48 (10917 B)
log faults: 7 (6 retries, 195 backoff ticks, 1 aborts)  write-through: 1 (256 B)
wal-fsck: 4 files, 4 clean, 0 recovered, 0 corrupted
  wal.appended_bytes=28928
  wal.bytes_read=17408
  wal.bytes_written=29184
  wal.drained_bytes=28928
  wal.evicted_bytes=7424
  wal.evictions=25
  wal.log_aborts=1
  wal.log_backoff_ticks=195
  wal.log_faults=7
  wal.log_retries=6
  wal.reads=80
  wal.stalled_bytes=8576
  wal.stalls=26
  wal.writes=120
  wal.writethrough=1
  wal.writethrough_bytes=256|}

let test_golden () =
  Alcotest.(check string) "staging accounting transcript" expected
    (transcript ())

let suite =
  [ Alcotest.test_case "bb/wal accounting golden" `Quick test_golden ]
