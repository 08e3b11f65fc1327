(* What-if sweep: a workload-DSL parameter grid (ranks x pattern x engine x
   tier x fault plan) run cell by cell through the full simulator stack,
   emitting the conflict/staleness/perf matrix as a table and
   bench_out/sweep.csv.  The CSV carries no wall-clock column, so two
   same-seed invocations produce byte-identical files — CI compares them.

     dune exec bench/main.exe sweep
     HPCFS_BENCH_SMALL=1 dune exec bench/main.exe sweep   # CI smoke grid
*)

module Workload = Hpcfs_wl.Workload
module Sweep = Hpcfs_wl.Sweep
module Consistency = Hpcfs_fs.Consistency
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Plan = Hpcfs_fault.Plan

let small =
  match Sys.getenv_opt "HPCFS_BENCH_SMALL" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let wl name spec =
  match Workload.of_string ~name spec with
  | Ok w -> (name, w)
  | Error e -> failwith (Printf.sprintf "sweep workload %s: %s" name e)

(* Two N-1 placements of the same burst (the overlapping one conflicts,
   the strided one does not), a file-per-process write/read pair, and a
   checkpoint cadence — the axes of the paper's Table 3. *)
let workloads =
  [
    wl "n1-overlap" "write:layout=shared,pattern=consecutive,block=512,count=4";
    wl "n1-strided" "write:layout=shared,pattern=strided,block=512,count=4";
    wl "fpp-rw" "write:layout=fpp,block=1024,count=4,sync=none; \
                 read:layout=fpp,count=4";
  ]
  @
  if small then []
  else [ wl "ckpt" "checkpoint:steps=20,every=10,layout=shared,pattern=segmented" ]

let grid =
  let crash =
    match Plan.of_string ~seed:42 "crash:rank=1,io=5" with
    | Ok p -> p
    | Error e -> failwith e
  in
  {
    Sweep.default_grid with
    Sweep.ranks = (if small then [ 4; 8 ] else [ 8; 32 ]);
    workloads;
    tiers =
      (("direct", None)
      ::
      (if small then []
       else
         [ ("bb-async", Some { Tier.default_config with Tier.policy = Drain.default_async }) ]));
    plans =
      (("none", None) :: (if small then [] else [ ("crash", Some crash) ]));
  }

(* One large cell: the fpp workload at 10k ranks (1k under
   HPCFS_BENCH_SMALL), reporting its rows and the wall time. *)
let scale_cell () =
  let ranks = if small then 1_000 else 10_000 in
  Bench_common.section (Printf.sprintf "Sweep scale cell: %d ranks" ranks);
  let grid =
    { Sweep.default_grid with
      Sweep.ranks = [ ranks ];
      workloads = [ List.nth workloads 2 (* fpp-rw *) ];
      engines = [ Consistency.Session ];
    }
  in
  let t0 = Unix.gettimeofday () in
  let rows = Sweep.run grid in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun r ->
      Printf.printf "%s ranks=%d engine=%s: %s sharing, %d stale reads\n"
        r.Sweep.workload r.Sweep.ranks r.Sweep.engine r.Sweep.xy
        r.Sweep.stale_reads)
    rows;
  Printf.printf "wall %.1fs\n" dt;
  Bench_perf.record
    ~name:(Printf.sprintf "sweep/scale/ranks=%d" ranks)
    (Bench_perf.per_op ~ns:(dt *. 1e9) ~allocs:0.)

let sweep () =
  Bench_common.section "What-if sweep: workload grid across engines";
  Printf.printf
    "grid: %d ranks x %d workloads x %d engines x %d tiers x %d plans = %d \
     cells\n\n"
    (List.length grid.Sweep.ranks)
    (List.length grid.Sweep.workloads)
    (List.length grid.Sweep.engines)
    (List.length grid.Sweep.tiers)
    (List.length grid.Sweep.plans)
    (Sweep.cells grid);
  let m0 = Bench_common.allocated_words () in
  let t0 = Unix.gettimeofday () in
  let rows = Sweep.run grid in
  let dt = Unix.gettimeofday () -. t0 in
  let cells = float_of_int (List.length rows) in
  let path =
    Bench_common.emit_table_csv ~csv_file:"sweep.csv"
      ~csv_header:Sweep.csv_header ~columns:Sweep.columns
      (List.map (fun r -> (Sweep.row_cells r, Sweep.row_csv r)) rows)
  in
  Printf.printf "\nsweep matrix written to %s\n" path;
  Bench_perf.record ~name:"sweep/cell"
    (Bench_perf.per_op ~ns:(dt *. 1e9 /. cells)
       ~allocs:((Bench_common.allocated_words () -. m0) /. cells));
  List.iter
    (fun (wname, _) ->
      let ws = List.filter (fun r -> r.Sweep.workload = wname) rows in
      let total = List.fold_left (fun a r -> a +. r.Sweep.wall_s) 0. ws in
      Bench_perf.record
        ~name:("sweep/" ^ wname)
        (Bench_perf.per_op
           ~ns:(total *. 1e9 /. float_of_int (List.length ws))
           ~allocs:0.))
    grid.Sweep.workloads;
  scale_cell ();
  Bench_perf.write_bench_json ()
