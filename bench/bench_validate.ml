(* Validation and ablation experiments beyond the paper's tables:

   - [validate]: run every configuration against each consistency model on
     the PFS simulator and check the trace-based recommendation against
     observed behaviour (the paper's central claim, tested end-to-end).
   - [scale]: Section 6.1's claim that conflict patterns are scale-free.
   - [locks]: the Section 3.1 motivation — lock-manager traffic under
     strong semantics vs none under the relaxed models. *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Report = Hpcfs_core.Report
module Conflict = Hpcfs_core.Conflict
module Recommend = Hpcfs_core.Recommend
module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Lockmgr = Hpcfs_fs.Lockmgr
module Sharing = Hpcfs_core.Sharing
module Table = Hpcfs_util.Table
open Bench_common

let validate () =
  section
    (Printf.sprintf
       "Validation: every configuration on the PFS simulator (%d ranks)"
       nprocs);
  let t =
    Table.create
      [ "Configuration"; "recommended"; "strong"; "commit"; "session";
        "prediction holds" ]
  in
  List.iter
    (fun entry ->
      let run = run_of entry in
      let verdict = run.report.Report.verdict in
      let outcomes = Validation.validate ~nprocs entry.Registry.body in
      let cell o =
        if Validation.correct o then "ok"
        else
          Printf.sprintf "stale:%d corrupt:%d/%d" o.Validation.stale_reads
            o.Validation.corrupted_files o.Validation.files
      in
      let find s =
        List.find (fun o -> o.Validation.semantics = s) outcomes
      in
      let strong = find Consistency.Strong in
      let commit = find Consistency.Commit in
      let session = find Consistency.Session in
      (* The recommendation must be safe: running at the recommended level
         (or stronger) must be correct. *)
      let holds =
        Validation.correct strong
        && (match verdict.Recommend.semantics with
           | Consistency.Session -> Validation.correct session && Validation.correct commit
           | Consistency.Commit -> Validation.correct commit
           | Consistency.Strong | Consistency.Eventual _ -> true)
      in
      Table.add_row t
        [
          Registry.label entry;
          Consistency.key verdict.Recommend.semantics;
          cell strong;
          cell commit;
          cell session;
          check holds;
        ])
    Registry.all;
  Table.print t;
  print_endline
    "(expected shape: 16 of 17 applications run correctly under session\n\
    \ semantics; FLASH corrupts under session and is healed by commit.)"

let scale () =
  section "Scale independence of conflict patterns (Section 6.1)";
  let scales = [ 16; 32; 64 ] in
  let t =
    Table.create
      ([ "Configuration" ]
      @ List.map (fun n -> Printf.sprintf "%d ranks" n) scales
      @ [ "invariant" ])
  in
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> ()
      | Some entry ->
        let cells =
          List.map
            (fun n ->
              let result = Runner.run ~nprocs:n entry.Registry.body in
              let report = Report.analyze ~nprocs:n result.Runner.records in
              let s = Report.session_summary report in
              Printf.sprintf "%s%s%s%s [%s]"
                (if s.Conflict.waw_s > 0 then "Ws" else "--")
                (if s.Conflict.waw_d > 0 then "Wd" else "--")
                (if s.Conflict.raw_s > 0 then "Rs" else "--")
                (if s.Conflict.raw_d > 0 then "Rd" else "--")
                (Sharing.xy_name report.Report.sharing.Sharing.xy))
            scales
        in
        let invariant =
          match cells with
          | first :: rest -> List.for_all (fun c -> c = first) rest
          | [] -> true
        in
        Table.add_row t ((name :: cells) @ [ check invariant ]))
    [ "FLASH-fbs"; "FLASH-nofbs"; "ENZO"; "NWChem"; "MACSio"; "LAMMPS-ADIOS";
      "VPIC-IO"; "LBANN" ];
  Table.print t

let meta () =
  section
    "Extension (Section 7 future work): potential metadata-operation conflicts";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "Configuration"; "mutate/mutate"; "mutate/observe"; "paths" ]
  in
  List.iter
    (fun run ->
      let conflicts =
        Hpcfs_core.Meta_conflict.detect run.result.Runner.records
      in
      let s = Hpcfs_core.Meta_conflict.summarize conflicts in
      if s.Hpcfs_core.Meta_conflict.mutate_mutate > 0
         || s.Hpcfs_core.Meta_conflict.mutate_observe > 0 then
        Table.add_row t
          [
            Registry.label run.entry;
            string_of_int s.Hpcfs_core.Meta_conflict.mutate_mutate;
            string_of_int s.Hpcfs_core.Meta_conflict.mutate_observe;
            string_of_int s.Hpcfs_core.Meta_conflict.paths;
          ])
    (Bench_common.all_runs ());
  Table.print t;
  print_endline
    "(configurations with no potential metadata conflicts are omitted; a\n\
    \ flagged pair means a namespace mutation one process made could be\n\
    \ invisible to another under relaxed metadata semantics unless their\n\
    \ synchronization orders it - the check the paper leaves as future work.)"

let burstfs () =
  section
    "BurstFS exception (Section 6.3): no single-process write ordering";
  let t =
    Table.create
      [ "Configuration"; "same-process conflicts"; "commit PFS"; "BurstFS-like" ]
  in
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> ()
      | Some entry ->
        let run = run_of entry in
        let s = Report.session_summary run.report in
        let same = s.Conflict.waw_s + s.Conflict.raw_s in
        let normal =
          List.find
            (fun o -> o.Validation.semantics = Consistency.Commit)
            (Validation.validate ~nprocs entry.Registry.body)
        in
        let burst = Validation.validate_burstfs ~nprocs entry.Registry.body in
        let cell o =
          if Validation.correct o then "correct"
          else
            Printf.sprintf "stale:%d corrupt:%d/%d" o.Validation.stale_reads
              o.Validation.corrupted_files o.Validation.files
        in
        Table.add_row t
          [ name; string_of_int same; cell normal; cell burst ])
    [ "NWChem"; "GAMESS"; "MACSio"; "LAMMPS-NetCDF"; "LAMMPS-POSIX";
      "HACC-IO-POSIX" ];
  Table.print t;
  print_endline
    "(expected shape: applications whose conflicts are same-process only are\n\
    \ correct on every commit-semantics PFS except one that, like BurstFS,\n\
    \ does not order a single process's overlapping writes.)"

let locks () =
  section "Ablation: lock-manager traffic, strong vs relaxed semantics";
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "Configuration"; "acquisitions"; "revocations"; "messages";
        "messages (relaxed)" ]
  in
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> ()
      | Some entry ->
        let strong =
          Runner.run ~semantics:Consistency.Strong ~nprocs entry.Registry.body
        in
        let relaxed =
          Runner.run ~semantics:Consistency.Session ~nprocs entry.Registry.body
        in
        let sl = strong.Runner.stats.Pfs.locks in
        let rl = relaxed.Runner.stats.Pfs.locks in
        Table.add_row t
          [
            name;
            string_of_int sl.Lockmgr.acquisitions;
            string_of_int sl.Lockmgr.revocations;
            string_of_int sl.Lockmgr.messages;
            string_of_int rl.Lockmgr.messages;
          ])
    [ "FLASH-fbs"; "FLASH-nofbs"; "VPIC-IO"; "Chombo"; "LBANN"; "HACC-IO-POSIX" ];
  Table.print t;
  print_endline
    "(expected shape: shared-file configurations generate revocation traffic\n\
    \ under strong semantics - the Section 3.1 bottleneck - while relaxed\n\
    \ semantics eliminate lock messages entirely.)"
