(* Tests for the end-to-end validation harness and for the clock-skew
   methodology applied to whole traces. *)

module Mpi = Hpcfs_mpi.Mpi
module Posix = Hpcfs_posix.Posix
module Consistency = Hpcfs_fs.Consistency
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Report = Hpcfs_core.Report
module Conflict = Hpcfs_core.Conflict
module Skew = Hpcfs_trace.Skew
module Record = Hpcfs_trace.Record
module Registry = Hpcfs_apps.Registry
module Plan = Hpcfs_fault.Plan
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile
module Sweep = Hpcfs_wl.Sweep
module Obs = Hpcfs_obs.Obs
module Fault_report = Hpcfs_fault.Report

(* A deliberately session-unsafe application: rank 0 writes, rank 1 reads
   the same bytes after a barrier but without any close/open in between.
   The final barrier pins the read before the writer's closing close, so
   the conflict classification below is schedule-independent. *)
let session_unsafe (env : Runner.env) =
  let posix = env.Runner.posix in
  let rank = Mpi.rank env.Runner.comm in
  if rank = 0 then begin
    Posix.close posix
      (Posix.openf posix "/x" [ Posix.O_WRONLY; Posix.O_CREAT ])
  end;
  Mpi.barrier env.Runner.comm;
  let fd = Posix.openf posix "/x" [ Posix.O_RDWR ] in
  if rank = 0 then ignore (Posix.write posix fd (Bytes.make 64 'v'));
  Mpi.barrier env.Runner.comm;
  if rank = 1 then ignore (Posix.read posix fd 64);
  Mpi.barrier env.Runner.comm;
  Posix.close posix fd

(* The same application made commit-safe by an fsync before the barrier. *)
let commit_safe (env : Runner.env) =
  let posix = env.Runner.posix in
  let rank = Mpi.rank env.Runner.comm in
  if rank = 0 then
    Posix.close posix
      (Posix.openf posix "/x" [ Posix.O_WRONLY; Posix.O_CREAT ]);
  Mpi.barrier env.Runner.comm;
  let fd = Posix.openf posix "/x" [ Posix.O_RDWR ] in
  if rank = 0 then begin
    ignore (Posix.write posix fd (Bytes.make 64 'v'));
    Posix.fsync posix fd
  end;
  Mpi.barrier env.Runner.comm;
  if rank = 1 then ignore (Posix.read posix fd 64);
  Mpi.barrier env.Runner.comm;
  Posix.close posix fd

let outcome_for outcomes model =
  List.find (fun o -> o.Validation.semantics = model) outcomes

let test_validation_detects_stale_session_read () =
  let outcomes = Validation.validate ~nprocs:2 session_unsafe in
  Alcotest.(check bool) "strong ok" true
    (Validation.correct (outcome_for outcomes Consistency.Strong));
  Alcotest.(check bool) "commit fails (no fsync)" false
    (Validation.correct (outcome_for outcomes Consistency.Commit));
  Alcotest.(check bool) "session fails" false
    (Validation.correct (outcome_for outcomes Consistency.Session))

let test_validation_commit_heals_with_fsync () =
  let outcomes = Validation.validate ~nprocs:2 commit_safe in
  Alcotest.(check bool) "commit ok with fsync" true
    (Validation.correct (outcome_for outcomes Consistency.Commit));
  Alcotest.(check bool) "session still fails" false
    (Validation.correct (outcome_for outcomes Consistency.Session))

let test_analysis_agrees_with_validation () =
  (* The trace analysis must predict exactly what validation observes. *)
  let result = Runner.run ~nprocs:2 session_unsafe in
  let report = Report.analyze ~nprocs:2 result.Runner.records in
  let session = report.Report.session in
  let commit = report.Report.commit in
  Alcotest.(check bool) "RAW-D predicted under session" true
    (session.Conflict.raw_d > 0);
  Alcotest.(check bool) "RAW-D predicted under commit" true
    (commit.Conflict.raw_d > 0);
  let result = Runner.run ~nprocs:2 commit_safe in
  let report = Report.analyze ~nprocs:2 result.Runner.records in
  Alcotest.(check int) "commit clean with fsync" 0
    report.Report.commit.Conflict.raw_d;
  Alcotest.(check bool) "session still conflicting" true
    (report.Report.session.Conflict.raw_d > 0)

let test_eventual_delay_sweep () =
  (* With a zero delay eventual consistency behaves like strong; with a
     huge delay the cross-rank read goes stale. *)
  let outcome delay =
    List.hd
      (Validation.validate ~nprocs:2
         ~semantics:[ Consistency.Eventual { delay } ]
         session_unsafe)
  in
  Alcotest.(check bool) "zero delay behaves strongly" true
    (Validation.correct (outcome 0));
  Alcotest.(check bool) "large delay goes stale" false
    (Validation.correct (outcome 1_000_000))

let test_skew_adjustment_restores_conflict_order () =
  (* Inject per-rank clock skew into a real trace, then verify that the
     barrier-based adjustment (Section 5.2) restores the conflict pair's
     order: the analysis on adjusted timestamps matches the unskewed one. *)
  let result = Runner.run ~nprocs:2 session_unsafe in
  let baseline = Report.analyze ~nprocs:2 result.Runner.records in
  let skew rank = 1_000_000 * rank in
  let skewed =
    List.map
      (fun r -> { r with Record.time = r.Record.time + skew r.Record.rank })
      result.Runner.records
  in
  let adjusted = Skew.align ~sync_point:skew skewed in
  let report = Report.analyze ~nprocs:2 adjusted in
  let base = baseline.Report.session in
  let adj = report.Report.session in
  Alcotest.(check bool) "same conflict summary after adjustment" true
    (base = adj);
  Alcotest.(check int) "skew magnitude" 1_000_000
    (Skew.max_pairwise_skew ~sync_point:skew ~ranks:2)

(* The ADIOS and Silo models create their output directory on rank 0; a
   crash-restarted attempt finds it from the first attempt and must go on
   rather than fail the run. *)
let test_crash_restart_reuses_output_dir () =
  let plan =
    Result.get_ok (Plan.of_string "crash:rank=1,io=5,restart=64")
  in
  List.iter
    (fun app ->
      let entry = Option.get (Registry.find app) in
      let rows =
        Validation.crash_report ~nprocs:8 ~app ~plan entry.Registry.body
      in
      Alcotest.(check int) (app ^ ": one row per engine") 3
        (List.length rows))
    [ "LAMMPS-ADIOS"; "MACSio" ]

(* In a tiered run the application reads through the tier, so the stale
   count a validation row or a sweep cell reports must be the tier's, not
   the raw PFS's underneath it.  A dirty shared file read back while still
   staged makes the two differ: under strong the async burst buffer serves
   stale bytes while the direct PFS serves none. *)

let live_spec =
  "write:file=live,block=192,count=3,sync=none;\
   read:file=live,block=192,count=3,sync=none;\
   barrier;\
   read:file=live,block=192,count=3"

let test_tiered_stale_reads_are_the_tiers () =
  let w = Result.get_ok (Workload.of_string live_spec) in
  let body = Compile.body w in
  let nprocs = 8 in
  let async = { Tier.default_config with Tier.policy = Drain.default_async } in
  let engines =
    [ Consistency.Strong; Consistency.Commit; Consistency.Session ]
  in
  let tier_stale model =
    let r = Runner.run ~semantics:model ~nprocs ~tier:async body in
    (Tier.stats (Option.get r.Runner.tier)).Tier.core.stale_reads
  in
  let wal_stale model =
    let r = Runner.run ~semantics:model ~nprocs ~wal:Wal.default_config body in
    (Wal.stats (Option.get r.Runner.wal)).Wal.core.stale_reads
  in
  let direct = Runner.run ~semantics:Consistency.Strong ~nprocs body in
  Alcotest.(check int) "direct strong reads are fresh" 0
    direct.Runner.stats.Hpcfs_fs.Pfs.stale_reads;
  Alcotest.(check int) "the async tier serves stale bytes under strong" 17
    (tier_stale Consistency.Strong);
  List.iter
    (fun o ->
      let model = o.Validation.semantics in
      Alcotest.(check int)
        ("validate ~tier " ^ Validation.sem_name model)
        (tier_stale model) o.Validation.stale_reads)
    (Validation.validate ~nprocs ~semantics:engines ~tier:async body);
  List.iter
    (fun o ->
      let model = o.Validation.semantics in
      Alcotest.(check int)
        ("validate ~wal " ^ Validation.sem_name model)
        (wal_stale model) o.Validation.stale_reads)
    (Validation.validate ~nprocs ~semantics:engines ~wal:Wal.default_config
       body);
  let grid =
    {
      Sweep.default_grid with
      Sweep.ranks = [ nprocs ];
      workloads = [ ("live", w) ];
      engines = [ Consistency.Strong ];
      tiers = [ ("bb-async", Some async) ];
    }
  in
  List.iter
    (fun row ->
      Alcotest.(check int) "sweep bb-async cell" (tier_stale Consistency.Strong)
        row.Sweep.stale_reads)
    (Sweep.run grid)

(* A crash without restart leaves reference files missing from the
   candidate.  [validate ~faults] and [crash_report] share one by-path
   comparison, so they agree on what is corrupted — including files the
   crash kept from ever being written. *)
let test_crashed_validate_matches_crash_report () =
  let plan = Result.get_ok (Plan.of_string "crash:rank=1,io=3") in
  List.iter
    (fun app ->
      let entry = Option.get (Registry.find app) in
      let outcomes =
        Validation.validate ~nprocs:8 ~faults:plan entry.Registry.body
      in
      let rows =
        Validation.crash_report ~nprocs:8 ~app ~plan entry.Registry.body
      in
      List.iter2
        (fun o row ->
          let label = app ^ " " ^ Validation.sem_name o.Validation.semantics in
          Alcotest.(check int) (label ^ " corrupted")
            row.Fault_report.r_post_corrupted o.Validation.corrupted_files;
          Alcotest.(check int) (label ^ " files")
            row.Fault_report.r_post_files o.Validation.files)
        outcomes rows)
    [ "MACSio"; "FLASH-fbs"; "HACC-IO-POSIX" ]

(* The direct, unfaulted strong candidate is taken from the reference run:
   its outcome must be what an explicit strong run of the configuration
   gives. *)
let test_strong_outcome_is_the_reference_run () =
  let nprocs = 8 in
  List.iter
    (fun entry ->
      let label = Registry.label entry in
      let o =
        List.hd
          (Validation.validate ~nprocs ~semantics:[ Consistency.Strong ]
             entry.Registry.body)
      in
      let r =
        Runner.run ~semantics:Consistency.Strong ~nprocs entry.Registry.body
      in
      Alcotest.(check int) (label ^ " stale reads") (Runner.stale_reads r)
        o.Validation.stale_reads;
      Alcotest.(check int) (label ^ " files")
        (List.length (Validation.final_digests r))
        o.Validation.files;
      Alcotest.(check int) (label ^ " corrupted") 0 o.Validation.corrupted_files)
    Registry.all

(* Strong plus commit is two simulations, not three: the reference run is
   the strong candidate, and only commit gets a span of its own. *)
let test_strong_candidate_runs_no_simulation () =
  let sink = Obs.create () in
  let outcomes =
    Validation.validate ~obs:sink ~nprocs:2
      ~semantics:[ Consistency.Strong; Consistency.Commit ]
      commit_safe
  in
  Alcotest.(check int) "two outcomes" 2 (List.length outcomes);
  let count name =
    List.length
      (List.filter (fun sp -> sp.Obs.sp_name = name) (Obs.spans sink))
  in
  Alcotest.(check int) "simulate spans" 2 (count "simulate");
  Alcotest.(check int) "validate.strong spans" 0 (count "validate.strong");
  Alcotest.(check int) "validate.commit spans" 1 (count "validate.commit")

let suite =
  [
    Alcotest.test_case "stale session read detected" `Quick
      test_validation_detects_stale_session_read;
    Alcotest.test_case "fsync heals commit semantics" `Quick
      test_validation_commit_heals_with_fsync;
    Alcotest.test_case "analysis agrees with validation" `Quick
      test_analysis_agrees_with_validation;
    Alcotest.test_case "eventual delay sweep" `Quick test_eventual_delay_sweep;
    Alcotest.test_case "skew adjustment" `Quick
      test_skew_adjustment_restores_conflict_order;
    Alcotest.test_case "crash restart reuses output dir" `Quick
      test_crash_restart_reuses_output_dir;
    Alcotest.test_case "tiered stale reads are the tier's" `Quick
      test_tiered_stale_reads_are_the_tiers;
    Alcotest.test_case "crashed validate matches crash report" `Quick
      test_crashed_validate_matches_crash_report;
    Alcotest.test_case "strong outcome is the reference run" `Quick
      test_strong_outcome_is_the_reference_run;
    Alcotest.test_case "strong candidate runs no simulation" `Quick
      test_strong_candidate_runs_no_simulation;
  ]
