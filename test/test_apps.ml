(* Integration tests: every application model must reproduce the paper's
   published Table 3 (X-Y pattern + structure) and Table 4 (session
   conflict matrix; commit semantics clears FLASH only) — plus the
   scale-independence claim of Section 6.1 and the race-freedom validation
   of Section 5.2. *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Report = Hpcfs_core.Report
module Sharing = Hpcfs_core.Sharing
module Conflict = Hpcfs_core.Conflict
module Offsets = Hpcfs_core.Offsets
module Overlap = Hpcfs_core.Overlap
module Happens_before = Hpcfs_core.Happens_before
module Consistency = Hpcfs_fs.Consistency
module Pattern = Hpcfs_core.Pattern
module Recommend = Hpcfs_core.Recommend

let nprocs = 16

let analyzed = Hashtbl.create 32

(* Running the 25 configurations once and sharing the reports keeps the
   suite fast. *)
let report_of entry =
  match Hashtbl.find_opt analyzed (Registry.label entry) with
  | Some (result, report) -> (result, report)
  | None ->
    let result = Runner.run ~nprocs entry.Registry.body in
    let report = Report.analyze ~nprocs result.Runner.records in
    Hashtbl.replace analyzed (Registry.label entry) (result, report);
    (result, report)

(* The session and commit conflict pairs of a run, from Algorithm 1's
   building blocks. *)
let conflicts result =
  let accesses = (Offsets.resolve result.Runner.records).Offsets.accesses in
  let pairs = Overlap.detect accesses in
  ( Conflict.of_pairs Conflict.Session_semantics pairs,
    Conflict.of_pairs Conflict.Commit_semantics pairs )

let matrix_of_summary (s : Conflict.summary) =
  {
    Registry.waw_s = s.Conflict.waw_s > 0;
    waw_d = s.Conflict.waw_d > 0;
    raw_s = s.Conflict.raw_s > 0;
    raw_d = s.Conflict.raw_d > 0;
  }

let test_table3 entry () =
  let _, report = report_of entry in
  Alcotest.(check string) "X-Y pattern" entry.Registry.expected_xy
    (Sharing.xy_name report.Report.sharing.Sharing.xy);
  Alcotest.(check string) "structure" entry.Registry.expected_structure
    (Sharing.structure_name report.Report.sharing.Sharing.structure)

let test_table4 entry expected () =
  let _, report = report_of entry in
  let got = matrix_of_summary report.Report.session in
  Alcotest.(check bool) "WAW-S" expected.Registry.waw_s got.Registry.waw_s;
  Alcotest.(check bool) "WAW-D" expected.Registry.waw_d got.Registry.waw_d;
  Alcotest.(check bool) "RAW-S" expected.Registry.raw_s got.Registry.raw_s;
  Alcotest.(check bool) "RAW-D" expected.Registry.raw_d got.Registry.raw_d

let test_commit_clears_flash_only () =
  List.iter
    (fun entry ->
      let _, report = report_of entry in
      let session = report.Report.session in
      let commit = report.Report.commit in
      if entry.Registry.app = "FLASH" then begin
        Alcotest.(check bool) "FLASH conflicts under session" false
          (Conflict.no_conflicts session);
        Alcotest.(check bool) "FLASH clean under commit" true
          (Conflict.no_conflicts commit)
      end
      else
        (* For every other configuration the pattern is unchanged
           (Section 6.3: "the conflict pattern of the other applications
           was unchanged"). *)
        Alcotest.(check bool)
          (Registry.label entry ^ " unchanged under commit")
          true
          (matrix_of_summary session = matrix_of_summary commit))
    Registry.all

let test_only_flash_has_cross_process_conflicts () =
  List.iter
    (fun entry ->
      let _, report = report_of entry in
      let s = report.Report.session in
      let has_d = s.Conflict.waw_d > 0 || s.Conflict.raw_d > 0 in
      Alcotest.(check bool)
        (Registry.label entry ^ " D-conflicts iff FLASH")
        (entry.Registry.app = "FLASH") has_d)
    Registry.table4_entries

let test_conflicts_are_race_free () =
  (* Section 5.2's validation: every cross-process conflict must be ordered
     by the application's own synchronization. *)
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.fail ("missing entry " ^ name)
      | Some entry ->
        let result, _ = report_of entry in
        let hb =
          Happens_before.build ~nprocs (Lazy.force result.Runner.events)
        in
        Alcotest.(check bool) (name ^ " race-free") true
          (Happens_before.race_free hb (fst (conflicts result))))
    [ "FLASH-fbs"; "FLASH-nofbs"; "NWChem"; "MACSio"; "LAMMPS-ADIOS" ]

let test_scale_independence () =
  (* Section 6.1: the conflict pattern does not depend on the scale. *)
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.fail ("missing entry " ^ name)
      | Some entry ->
        let small =
          let r = Runner.run ~nprocs:8 entry.Registry.body in
          Report.analyze ~nprocs:8 r.Runner.records
        in
        let large =
          let r = Runner.run ~nprocs:32 entry.Registry.body in
          Report.analyze ~nprocs:32 r.Runner.records
        in
        Alcotest.(check bool) (name ^ " same conflict pattern") true
          (matrix_of_summary small.Report.session
          = matrix_of_summary large.Report.session);
        Alcotest.(check string) (name ^ " same xy")
          (Sharing.xy_name small.Report.sharing.Sharing.xy)
          (Sharing.xy_name large.Report.sharing.Sharing.xy))
    [ "FLASH-fbs"; "ENZO"; "MACSio"; "VPIC-IO" ]

let test_no_unresolved_records () =
  List.iter
    (fun entry ->
      let _, report = report_of entry in
      Alcotest.(check int) (Registry.label entry ^ " fully resolved") 0
        report.Report.skipped)
    Registry.all

let test_validation_matches_prediction () =
  (* The PFS simulator agrees with the trace analysis: FLASH corrupts under
     session semantics, runs clean under commit; conflict-free apps and
     same-process-only apps run clean under both. *)
  List.iter
    (fun (name, expect_session_ok) ->
      match Registry.find name with
      | None -> Alcotest.fail ("missing entry " ^ name)
      | Some entry ->
        let outcomes = Validation.validate ~nprocs entry.Registry.body in
        List.iter
          (fun o ->
            match o.Validation.semantics with
            | Consistency.Strong ->
              Alcotest.(check bool) (name ^ " strong correct") true
                (Validation.correct o)
            | Consistency.Commit ->
              Alcotest.(check bool) (name ^ " commit correct") true
                (Validation.correct o)
            | Consistency.Session ->
              Alcotest.(check bool)
                (name ^ " session correctness")
                expect_session_ok (Validation.correct o)
            | Consistency.Eventual _ -> ())
          outcomes)
    [
      ("FLASH-fbs", false);
      ("LAMMPS-POSIX", true);
      ("HACC-IO-POSIX", true);
      ("NWChem", true);
      ("VPIC-IO", true);
    ]

let test_burstfs_exception () =
  (* Section 6.3: same-process conflicts are harmless on every surveyed
     PFS except BurstFS. *)
  let check name expect_ok =
    match Registry.find name with
    | None -> Alcotest.fail ("missing entry " ^ name)
    | Some entry ->
      let commit, burst =
        Validation.validate_burstfs ~nprocs entry.Registry.body
      in
      Alcotest.(check bool) (name ^ " on a commit PFS") true
        (Validation.correct commit);
      Alcotest.(check bool) (name ^ " on BurstFS-like PFS") expect_ok
        (Validation.correct burst)
  in
  check "NWChem" false;
  check "GAMESS" false;
  check "LAMMPS-POSIX" true;
  check "HACC-IO-POSIX" true

let test_flash_collective_metadata_fix () =
  (* The paper's proposed fix: collective metadata mode removes the
     cross-process conflict. *)
  let result = Runner.run ~nprocs Hpcfs_apps.Flash.run_fbs_collective_metadata in
  let report = Report.analyze ~nprocs result.Runner.records in
  let s = report.Report.session in
  Alcotest.(check int) "no cross-process WAW" 0 s.Conflict.waw_d;
  Alcotest.(check int) "no cross-process RAW" 0 s.Conflict.raw_d

let test_registry_completeness () =
  Alcotest.(check int) "23 Table 4 configurations" 23
    (List.length Registry.table4_entries);
  Alcotest.(check int) "25 configurations in total" 25
    (List.length Registry.all);
  let apps =
    List.sort_uniq compare (List.map (fun e -> e.Registry.app) Registry.all)
  in
  Alcotest.(check int) "17 distinct applications" 17 (List.length apps);
  Alcotest.(check bool) "lookup works" true
    (Registry.find "flash-fbs" <> None);
  Alcotest.(check bool) "unknown lookup" true (Registry.find "nonesuch" = None)

(* One line per configuration at 16 ranks pins what the study reports:
   the session and commit conflict-class matrices, the sharing and local
   pattern, each engine's validation outcome (stale reads / corrupted
   files), the recommendation, and the cross-process session and commit
   conflicts with how many of them the MPI happens-before order covers.
   Timestamps and the global pattern are left out: they follow the
   scheduler's tick accounting, not the study's results. *)
let pin_engines =
  Consistency.[ Strong; Commit; Session; Eventual { delay = 8 } ]

let pin_line entry =
  let result, report = report_of entry in
  let flags (s : Conflict.summary) =
    String.concat ""
      (List.map
         (fun n -> if n > 0 then "1" else "0")
         [ s.Conflict.waw_s; s.waw_d; s.raw_s; s.raw_d ])
  in
  let hb = Happens_before.build ~nprocs (Lazy.force result.Runner.events) in
  let cross conflicts =
    let d = List.filter (fun c -> c.Conflict.scope = Conflict.Diff) conflicts in
    Printf.sprintf "%d (%d ordered)" (List.length d)
      (List.length (List.filter (Happens_before.conflict_synchronized hb) d))
  in
  let session_conflicts, commit_conflicts = conflicts result in
  let m = report.Report.local_mix in
  let outcomes =
    Validation.validate ~nprocs ~semantics:pin_engines entry.Registry.body
    |> List.map (fun o ->
           Printf.sprintf "%s %s %d/%d"
             (Validation.sem_name o.Validation.semantics)
             (if Validation.correct o then "ok" else "BAD")
             o.Validation.stale_reads o.Validation.corrupted_files)
  in
  Printf.sprintf
    "%s: classes session %s commit %s; %s %s; local %d/%d/%d; %s; \
     recommend %s; cross session %s, commit %s"
    (Registry.label entry)
    (flags report.Report.session)
    (flags report.Report.commit)
    (Sharing.xy_name report.Report.sharing.Sharing.xy)
    (Sharing.structure_name report.Report.sharing.Sharing.structure)
    m.Pattern.consecutive m.Pattern.monotonic m.Pattern.random
    (String.concat ", " outcomes)
    (Recommend.describe report.Report.verdict)
    (cross session_conflicts)
    (cross commit_conflicts)

let expected_pin =
  [
    "FLASH-fbs: classes session 1100 commit 0000; M-1 strided cyclic;\
     \ local 0/2765/1005;\
     \ strong ok 0/0, commit ok 0/0, session BAD 0/5, eventual:8 ok 0/0;\
     \ recommend commit consistency;\
     \ cross session 215 (215 ordered), commit 0 (0 ordered)";
    "ENZO: classes session 0010 commit 0010; N-N consecutive;\
     \ local 80/64/64;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency (requires same-process ordering, i.e. not BurstFS);\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "NWChem: classes session 1010 commit 1010; N-N consecutive;\
     \ local 416/80/192;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency (requires same-process ordering, i.e. not BurstFS);\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "pF3D-IO: classes session 0010 commit 0010; N-N consecutive;\
     \ local 528/0/16;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency (requires same-process ordering, i.e. not BurstFS);\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "MACSio: classes session 1000 commit 1000; N-M strided;\
     \ local 0/32/64;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency (requires same-process ordering, i.e. not BurstFS);\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "GAMESS: classes session 1000 commit 1000; M-M consecutive;\
     \ local 44/8/12;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency (requires same-process ordering, i.e. not BurstFS);\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "LAMMPS-ADIOS: classes session 1000 commit 1000; M-M consecutive;\
     \ local 87/4/5;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency (requires same-process ordering, i.e. not BurstFS);\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "LAMMPS-NetCDF: classes session 1000 commit 1000; 1-1 consecutive;\
     \ local 2/4/5;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency (requires same-process ordering, i.e. not BurstFS);\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "LAMMPS-HDF5: classes session 0000 commit 0000; 1-1 consecutive;\
     \ local 82/2/3;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "LAMMPS-MPI-IO: classes session 0000 commit 0000; M-1 strided;\
     \ local 1/29/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "LAMMPS-POSIX: classes session 0000 commit 0000; 1-1 consecutive;\
     \ local 80/0/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "MILC-QCD-Serial: classes session 0000 commit 0000;\
     \ 1-1 consecutive; local 64/0/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "ParaDiS-HDF5: classes session 0000 commit 0000; N-1 strided;\
     \ local 0/48/5;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "ParaDiS-POSIX: classes session 0000 commit 0000; N-1 strided;\
     \ local 1/47/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "VASP: classes session 0000 commit 0000; N-1 consecutive;\
     \ local 30/15/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "LBANN: classes session 0000 commit 0000; N-1 consecutive;\
     \ local 1024/0/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "QMCPACK: classes session 0000 commit 0000; 1-1 consecutive;\
     \ local 30/4/4;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "Nek5000: classes session 0000 commit 0000; 1-1 consecutive;\
     \ local 160/0/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "GTC: classes session 0000 commit 0000; 1-1 consecutive;\
     \ local 52/0/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "Chombo: classes session 0000 commit 0000; N-1 strided;\
     \ local 0/48/5;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "HACC-IO-MPI-IO: classes session 0000 commit 0000;\
     \ N-N consecutive; local 144/0/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "HACC-IO-POSIX: classes session 0000 commit 0000; N-N consecutive;\
     \ local 144/0/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "VPIC-IO: classes session 0000 commit 0000; M-1 strided cyclic;\
     \ local 0/52/6;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
    "FLASH-nofbs: classes session 1100 commit 0000; N-1 strided;\
     \ local 0/825/145;\
     \ strong ok 0/0, commit ok 0/0, session BAD 0/5, eventual:8 ok 0/0;\
     \ recommend commit consistency;\
     \ cross session 215 (215 ordered), commit 0 (0 ordered)";
    "MILC-QCD-Parallel: classes session 0000 commit 0000; N-1 strided;\
     \ local 4/252/0;\
     \ strong ok 0/0, commit ok 0/0, session ok 0/0, eventual:8 ok 0/0;\
     \ recommend session consistency;\
     \ cross session 0 (0 ordered), commit 0 (0 ordered)";
  ]

let test_paper_pin () =
  Alcotest.(check (list string)) "25 configurations at 16 ranks" expected_pin
    (List.map pin_line Registry.all)

(* The payload bytes every app model and DSL workload writes: byte [i] of
   [payload ~len env tag] is [(tag + rank + i) land 0xff], at lengths
   around the 256-byte period and tags around the byte wrap.  Each rank
   collects its buffers; the assertions run after [Runner.run] returns. *)
let test_payload_bytes () =
  let nprocs = 3 in
  let lens = [ 0; 1; 255; 256; 257; 512; 4096; 4097 ]
  and tags = [ 0; 1; 254; 255; 256; 1000003 ] in
  let seen = Array.make nprocs [] in
  ignore
    (Runner.run ~nprocs (fun env ->
         let r = Hpcfs_apps.App_common.rank env in
         seen.(r) <-
           List.concat_map
             (fun len ->
               List.map
                 (fun tag ->
                   (len, tag, Hpcfs_apps.App_common.payload ~len env tag))
                 tags)
             lens));
  Array.iteri
    (fun rank bufs ->
      Alcotest.(check int) "one buffer per (len, tag)"
        (List.length lens * List.length tags)
        (List.length bufs);
      List.iter
        (fun (len, tag, b) ->
          Alcotest.(check int) "length" len (Bytes.length b);
          for i = 0 to len - 1 do
            if Bytes.get b i <> Char.chr ((tag + rank + i) land 0xff) then
              Alcotest.failf "rank %d len %d tag %d: byte %d is %d" rank len
                tag i (Char.code (Bytes.get b i))
          done)
        bufs)
    seen

let suite =
  let table3_cases =
    List.map
      (fun entry ->
        Alcotest.test_case
          ("table3 " ^ Registry.label entry)
          `Quick (test_table3 entry))
      Registry.all
  in
  let table4_cases =
    List.filter_map
      (fun entry ->
        Option.map
          (fun expected ->
            Alcotest.test_case
              ("table4 " ^ Registry.label entry)
              `Quick (test_table4 entry expected))
          entry.Registry.expected_conflicts)
      Registry.all
  in
  table3_cases @ table4_cases
  @ [
      Alcotest.test_case "commit clears FLASH only" `Quick
        test_commit_clears_flash_only;
      Alcotest.test_case "only FLASH crosses processes" `Quick
        test_only_flash_has_cross_process_conflicts;
      Alcotest.test_case "conflicts are race-free" `Quick
        test_conflicts_are_race_free;
      Alcotest.test_case "scale independence" `Slow test_scale_independence;
      Alcotest.test_case "traces fully resolved" `Quick
        test_no_unresolved_records;
      Alcotest.test_case "validation matches prediction" `Slow
        test_validation_matches_prediction;
      Alcotest.test_case "FLASH collective-metadata fix" `Quick
        test_flash_collective_metadata_fix;
      Alcotest.test_case "BurstFS exception" `Slow test_burstfs_exception;
      Alcotest.test_case "registry completeness" `Quick
        test_registry_completeness;
      Alcotest.test_case "payload bytes" `Quick test_payload_bytes;
      Alcotest.test_case "paper pin at 16 ranks" `Quick test_paper_pin;
    ]
