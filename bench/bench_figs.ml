(* Reproduction of the paper's figures 1-3. *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Report = Hpcfs_core.Report
module Pattern = Hpcfs_core.Pattern
module Access = Hpcfs_core.Access
module Offsets = Hpcfs_core.Offsets
module Interval = Hpcfs_util.Interval
module Record = Hpcfs_trace.Record
module Table = Hpcfs_util.Table
open Bench_common

let fig1 which () =
  let title, selector =
    match which with
    | `Global ->
      ( "Figure 1(a): global access pattern (PFS perspective)",
        fun (report : Report.t) -> report.Report.global_mix )
    | `Local ->
      ( "Figure 1(b): local access pattern (per-process perspective)",
        fun (report : Report.t) -> report.Report.local_mix )
  in
  section title;
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "Configuration"; "consecutive %"; "monotonic %"; "random %" ]
  in
  List.iter
    (fun run ->
      let c, m, r = Pattern.percentages (selector run.report) in
      Table.add_row t [ Registry.label run.entry; pct c; pct m; pct r ])
    (all_runs ());
  Table.print t;
  match which with
  | `Global ->
    print_endline
      "(expected shape: random accesses elevated for the independent-I/O\n\
      \ configurations - FLASH-nofbs, LBANN - and low elsewhere.)"
  | `Local ->
    print_endline
      "(expected shape: random accesses rare from a single process's view.)"

(* Figure 2: FLASH write patterns, collective (fbs) vs independent (nofbs). *)

let flash_files writes =
  let files = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace files a.Access.file ()) writes;
  Hashtbl.fold (fun f () acc -> f :: acc) files [] |> List.sort compare

let series_stats accesses =
  let writers =
    List.sort_uniq compare (List.map (fun (_, r, _) -> r) accesses)
  in
  let meta, data =
    List.partition
      (fun (_, _, iv) -> iv.Interval.lo < Hpcfs_hdf5.Hdf5.metadata_region_size)
      accesses
  in
  (writers, meta, data)

let describe_file label writes file =
  let series = Pattern.offset_series writes ~file in
  let writers, meta, data = series_stats series in
  let meta_writers =
    List.sort_uniq compare (List.map (fun (_, r, _) -> r) meta)
  in
  let data_writers =
    List.sort_uniq compare (List.map (fun (_, r, _) -> r) data)
  in
  Printf.printf
    "%s %s\n  writes: %d total (%d metadata at file head, %d data)\n\
    \  ranks touching file: %d; metadata writers: %d; data writers: %d\n"
    label file (List.length series) (List.length meta) (List.length data)
    (List.length writers) (List.length meta_writers)
    (List.length data_writers)

let dump_csv path series =
  let oc = open_out path in
  output_string oc "time,rank,offset,length\n";
  List.iter
    (fun (time, rank, iv) ->
      Printf.fprintf oc "%d,%d,%d,%d\n" time rank iv.Interval.lo
        (Interval.length iv))
    series;
  close_out oc

let fig2 () =
  section "Figure 2: FLASH write patterns (collective fbs vs independent nofbs)";
  let out_dir = "bench_out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter
    (fun (name, label) ->
      match Registry.find name with
      | None -> ()
      | Some entry ->
        let run = run_of entry in
        let writes =
          List.filter Access.is_write
            (Offsets.resolve run.result.Runner.records).Offsets.accesses
        in
        let files = flash_files writes in
        let has_sub f sub =
          let n = String.length f and m = String.length sub in
          let rec go i = i + m <= n && (String.sub f i m = sub || go (i + 1)) in
          go 0
        in
        let chk = List.find_opt (fun f -> has_sub f "chk_0000") files in
        let plt = List.find_opt (fun f -> has_sub f "plt") files in
        Option.iter
          (fun f ->
            describe_file (label ^ " checkpoint:") writes f;
            let series = Pattern.offset_series writes ~file:f in
            let csv = Printf.sprintf "%s/fig2_%s_checkpoint.csv" out_dir name in
            dump_csv csv series;
            Printf.printf "  full offset/time series written to %s\n" csv;
            (* Rank-0 view (paper's Figure 2(f)): locally mostly monotonic. *)
            let rank0 =
              List.filter (fun a -> a.Access.rank = 0 && a.Access.file = f)
                writes
            in
            let m = Pattern.classify_stream rank0 in
            let c, mo, r = Pattern.percentages m in
            Printf.printf
              "  rank-0 local stream: %.0f%% consecutive, %.0f%% monotonic, %.0f%% random\n"
              c mo r)
          chk;
        Option.iter
          (fun f -> describe_file (label ^ " plot file:") writes f)
          plt;
        print_newline ())
    [ ("FLASH-fbs", "(a-c) collective I/O"); ("FLASH-nofbs", "(d-f) independent I/O") ];
  print_endline
    "(expected shape: with collective I/O only the aggregators write data\n\
    \ while ~half the ranks write metadata at the head of the file; with\n\
    \ independent I/O every rank writes data.)"

(* Figure 3: metadata operations by application and issuing layer. *)

let fig3 () =
  section "Figure 3: metadata operations used by applications";
  let t = Table.create [ "Configuration"; "op (issuers: M=MPI, H=HDF5, A=app)" ] in
  let letter = function
    | Hpcfs_core.Metadata_report.By_mpi -> "M"
    | Hpcfs_core.Metadata_report.By_hdf5 -> "H"
    | Hpcfs_core.Metadata_report.By_app -> "A"
  in
  let usages =
    List.map
      (fun run ->
        let usage = run.report.Report.metadata in
        let cells =
          List.map
            (fun (op, issuers) ->
              Printf.sprintf "%s(%s)" op
                (String.concat "" (List.map letter issuers)))
            usage
        in
        Table.add_row t [ Registry.label run.entry; String.concat " " cells ];
        usage)
      (all_runs ())
  in
  Table.print t;
  let never = Hpcfs_core.Metadata_report.never_used usages in
  Printf.printf "Monitored operations never used by any configuration (%d):\n%s\n"
    (List.length never)
    (String.concat ", " never)
