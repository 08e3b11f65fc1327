(* Reproduction of the paper's tables 1-5. *)

module Registry = Hpcfs_apps.Registry
module Report = Hpcfs_core.Report
module Sharing = Hpcfs_core.Sharing
module Conflict = Hpcfs_core.Conflict
module Consistency = Hpcfs_fs.Consistency
module Table = Hpcfs_util.Table
open Bench_common

let table1 () =
  section "Table 1: HPC file systems and their consistency semantics";
  let t = Table.create [ "Consistency Semantics"; "File Systems" ] in
  List.iter
    (fun (category, systems) ->
      Table.add_row t [ category; String.concat ", " systems ])
    Consistency.table1;
  Table.print t

let table2 () =
  section "Table 2: build and link configurations";
  let combos = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let key = (e.Registry.compiler, e.Registry.mpi, e.Registry.hdf5) in
      match Hashtbl.find_opt combos key with
      | Some l ->
        if not (List.mem e.Registry.app !l) then l := e.Registry.app :: !l
      | None -> Hashtbl.add combos key (ref [ e.Registry.app ]))
    Registry.all;
  let t = Table.create [ "Applications"; "Compiler"; "MPI"; "HDF5" ] in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) combos []
  |> List.sort compare
  |> List.iter (fun ((compiler, mpi, hdf5), apps) ->
         Table.add_row t
           [
             String.concat ", " (List.sort_uniq compare !apps);
             compiler;
             mpi;
             Option.value ~default:"-" hdf5;
           ]);
  Table.print t

let table3 () =
  section
    (Printf.sprintf
       "Table 3: high-level access patterns (measured at %d ranks vs paper)"
       nprocs);
  let t =
    Table.create
      [ "Configuration"; "Paper X-Y"; "Measured"; "Paper structure";
        "Measured structure"; "Agreement" ]
  in
  List.iter
    (fun run ->
      let e = run.entry in
      let s = run.report.Report.sharing in
      let got_xy = Sharing.xy_name s.Sharing.xy in
      let got_st = Sharing.structure_name s.Sharing.structure in
      Table.add_row t
        [
          Registry.label e;
          e.Registry.expected_xy;
          got_xy;
          e.Registry.expected_structure;
          got_st;
          check
            (got_xy = e.Registry.expected_xy
            && got_st = e.Registry.expected_structure);
        ])
    (all_runs ());
  Table.print t

let conflict_cells (s : Conflict.summary) =
  [
    mark (s.Conflict.waw_s > 0);
    mark (s.Conflict.waw_d > 0);
    mark (s.Conflict.raw_s > 0);
    mark (s.Conflict.raw_d > 0);
  ]

let table4 () =
  section
    (Printf.sprintf
       "Table 4: conflicts with session semantics (measured at %d ranks)"
       nprocs);
  let t =
    Table.create
      [ "Application"; "I/O Library"; "WAW S"; "WAW D"; "RAW S"; "RAW D";
        "Matches paper"; "Under commit" ]
  in
  List.iter
    (fun run ->
      let e = run.entry in
      let session = run.report.Report.session in
      let commit = run.report.Report.commit in
      let expected = Option.get e.Registry.expected_conflicts in
      let got =
        {
          Registry.waw_s = session.Conflict.waw_s > 0;
          waw_d = session.Conflict.waw_d > 0;
          raw_s = session.Conflict.raw_s > 0;
          raw_d = session.Conflict.raw_d > 0;
        }
      in
      let commit_desc =
        if Conflict.no_conflicts commit then
          if Conflict.no_conflicts session then "" else "disappear"
        else "unchanged"
      in
      Table.add_row t
        (e.Registry.app :: e.Registry.io_lib :: conflict_cells session
        @ [ check (got = expected); commit_desc ]))
    (table4_runs ());
  Table.print t;
  print_endline
    "('disappear' under commit semantics is expected for FLASH only; all\n\
    \ other configurations keep their session-semantics pattern.)"

let table5 () =
  section "Table 5: applications and configurations";
  let t = Table.create [ "Application"; "Version"; "I/O Library"; "Configuration" ] in
  List.iter
    (fun e ->
      Table.add_row t
        [ Registry.label e; e.Registry.version; e.Registry.io_lib;
          e.Registry.description ])
    Registry.all;
  Table.print t
