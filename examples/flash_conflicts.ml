(* The FLASH case study (Section 6.3): the one application of the study
   whose conflicts involve two distinct processes.

   This example reproduces the full argument:
     1. under session semantics FLASH has WAW-S and WAW-D conflicts,
        caused by the per-dataset H5Fflush rewriting HDF5 metadata;
     2. under commit semantics the conflicts disappear (the fsync inside
        H5Fflush is the commit);
     3. running FLASH on a session-semantics PFS actually corrupts files,
        while a commit-semantics PFS is correct — checked on the simulator;
     4. the paper's one-line fix (collective metadata mode) removes the
        cross-process conflicts even under session semantics.

     dune exec examples/flash_conflicts.exe *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Flash = Hpcfs_apps.Flash
module Report = Hpcfs_core.Report
module Conflict = Hpcfs_core.Conflict
module Offsets = Hpcfs_core.Offsets
module Overlap = Hpcfs_core.Overlap
module Happens_before = Hpcfs_core.Happens_before
module Consistency = Hpcfs_fs.Consistency

let nprocs = 32

let summarize label report =
  let s = report.Report.session in
  let c = report.Report.commit in
  Printf.printf
    "%-28s session: WAW-S=%d WAW-D=%d | commit: WAW-S=%d WAW-D=%d\n" label
    s.Conflict.waw_s s.Conflict.waw_d c.Conflict.waw_s c.Conflict.waw_d

let () =
  print_endline "--- 1+2: conflict detection on the trace ---";
  let flash = Option.get (Registry.find "FLASH-fbs") in
  let result = Runner.run ~nprocs flash.Registry.body in
  let report = Report.analyze ~nprocs result.Runner.records in
  summarize "FLASH (default)" report;

  (* The conflict pairs themselves, from Algorithm 1's building blocks. *)
  let conflicts =
    let accesses = (Offsets.resolve result.Runner.records).Offsets.accesses in
    Conflict.of_pairs Conflict.Session_semantics (Overlap.detect accesses)
  in

  (* Where do the conflicts live?  All in the HDF5 metadata region. *)
  let in_metadata =
    List.for_all
      (fun c ->
        c.Conflict.first.Hpcfs_core.Access.iv.Hpcfs_util.Interval.lo
        < Hpcfs_hdf5.Hdf5.metadata_region_size)
      conflicts
  in
  Printf.printf "all conflicts are HDF5 metadata rewrites: %b\n" in_metadata;

  (* The conflicts are race-free: FLASH's own barriers order them. *)
  let hb = Happens_before.build ~nprocs (Lazy.force result.Runner.events) in
  Printf.printf "every cross-process conflict is synchronized by MPI: %b\n\n"
    (Happens_before.race_free hb conflicts);

  print_endline "--- 3: what actually happens on a relaxed PFS ---";
  let outcomes = Validation.validate ~nprocs flash.Registry.body in
  List.iter
    (fun o ->
      Printf.printf "%-22s stale reads: %d, corrupted files: %d/%d -> %s\n"
        (Consistency.name o.Validation.semantics)
        o.Validation.stale_reads o.Validation.corrupted_files
        o.Validation.files
        (if Validation.correct o then "correct" else "INCORRECT"))
    outcomes;
  print_newline ();

  print_endline "--- 4: the one-line fix (collective metadata mode) ---";
  let fixed = Runner.run ~nprocs Flash.run_fbs_collective_metadata in
  let fixed_report = Report.analyze ~nprocs fixed.Runner.records in
  summarize "FLASH (collective metadata)" fixed_report;
  let s = fixed_report.Report.session in
  Printf.printf
    "cross-process conflicts after the fix: %d (same-process remain: %d,\n\
     which every PFS except BurstFS orders correctly)\n"
    (s.Conflict.waw_d + s.Conflict.raw_d)
    (s.Conflict.waw_s + s.Conflict.raw_s)
