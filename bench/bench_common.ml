(* Shared plumbing for the experiment reproduction harness: one traced run
   per configuration, memoized, plus small formatting helpers. *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Report = Hpcfs_core.Report
module Table = Hpcfs_util.Table
module Obs = Hpcfs_obs.Obs
module Export_metrics = Hpcfs_obs.Export_metrics

let nprocs =
  match Sys.getenv_opt "HPCFS_BENCH_NPROCS" with
  | Some s -> (try max 4 (int_of_string s) with _ -> 64)
  | None -> 64

(* Telemetry sidecars: runs record into a private sink whose metrics
   snapshot lands in bench_out/obs/<label>.metrics.csv.  Sidecars never
   touch stdout, so the printed experiment output is byte-identical with
   them on or off.  HPCFS_BENCH_OBS=0 disables them. *)
let obs_enabled =
  match Sys.getenv_opt "HPCFS_BENCH_OBS" with
  | Some ("0" | "false" | "no") -> false
  | Some _ | None -> true

let out_dir = "bench_out"

(* Words allocated so far, minor and major heaps together: a block of more
   than 256 words goes to the major heap directly and never shows in the
   minor count.  The minor heap's count, plus the major words not promoted
   from it; [Gc.minor_words] rather than the minor figure of [Gc.counters],
   which can lag the allocation pointer. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let with_obs label f =
  if not obs_enabled then f ()
  else begin
    let sink = Obs.create () in
    let v = Obs.with_sink sink f in
    ensure_dir out_dir;
    let dir = Filename.concat out_dir "obs" in
    ensure_dir dir;
    let oc = open_out (Filename.concat dir (label ^ ".metrics.csv")) in
    output_string oc (Export_metrics.to_csv sink);
    close_out oc;
    v
  end

type run = {
  entry : Registry.entry;
  result : Runner.result;
  report : Report.t;
}

let cache : (string, run) Hashtbl.t = Hashtbl.create 32

let run_of entry =
  let label = Registry.label entry in
  match Hashtbl.find_opt cache label with
  | Some r -> r
  | None ->
    let result, report =
      with_obs label (fun () ->
          let result = Runner.run ~nprocs entry.Registry.body in
          (result, Report.analyze ~nprocs result.Runner.records))
    in
    let r = { entry; result; report } in
    Hashtbl.replace cache label r;
    r

let all_runs () = List.map run_of Registry.all
let table4_runs () = List.map run_of Registry.table4_entries

let mark = Table.mark_cell
let check = Table.check_cell
let pct = Table.pct_cell

(* Shared emitters: the `faults` and `failover` scenarios render their
   crash-consistency rows and ancillary tables through these two helpers,
   so their stdout tables and CSV artifacts stay format-identical. *)

let emit_crash_rows ~csv_file ~what rows =
  Hpcfs_fault.Report.pp Format.std_formatter rows;
  ensure_dir out_dir;
  let path = Filename.concat out_dir csv_file in
  let oc = open_out path in
  output_string oc (Hpcfs_fault.Report.to_csv rows);
  close_out oc;
  Printf.printf "\n%s written to %s\n\n" what path

let emit_table_csv ~csv_file ~csv_header ~columns rows =
  let t = Table.create columns in
  ensure_dir out_dir;
  let path = Filename.concat out_dir csv_file in
  let oc = open_out path in
  output_string oc (csv_header ^ "\n");
  List.iter
    (fun (cells, csv_line) ->
      Table.add_row t cells;
      output_string oc (csv_line ^ "\n"))
    rows;
  close_out oc;
  Table.print t;
  path

let section title =
  Printf.printf "\n=== %s ===\n\n" title
