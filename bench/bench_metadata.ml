(* Metadata-path benchmark: the storm models (and a file-per-process DSL
   storm) across an MDS shard-count x consistency-engine grid.

   Throughput is modelled, not measured: the metadata service accounts
   every operation in deterministic cost units (see Hpcfs_md.Service), a
   shard serves a fixed RATE of cost units per second, and the run's
   completion bound is its makespan — max(busiest shard, busiest client).
   creates/s and stats/s are issued-op counts over that modelled time, so
   the CSV carries no wall-clock and a same-seed rerun is bit-identical
   (the CI gate cmp's two runs).

   Expected shape: strong consistency pays a server round-trip per stat
   and a shared-directory storm funnels into one shard whatever the shard
   count; a relaxed engine's warm cache absorbs the repeated stats, and
   file-per-process trees spread across shards — so the sharded MDS with
   a warm cache beats the single-MDS strong baseline on the stat-heavy
   storms (asserted from BENCH_PERF.json in CI). *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Md = Hpcfs_md.Service
module Consistency = Hpcfs_fs.Consistency
module Metadata_report = Hpcfs_core.Metadata_report
module Workload = Hpcfs_wl.Workload
module Wl_compile = Hpcfs_wl.Compile
module Obs = Hpcfs_obs.Obs
module Table = Hpcfs_util.Table
open Bench_common

let small =
  match Sys.getenv_opt "HPCFS_BENCH_SMALL" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let shard_counts = if small then [ 1; 4 ] else [ 1; 4; 16 ]

let engines =
  if small then [ Consistency.Strong; Consistency.Session ]
  else
    [
      Consistency.Strong;
      Consistency.Commit;
      Consistency.Session;
      Consistency.Eventual { delay = 8 };
    ]

let bench_nprocs = if small then 8 else min nprocs 32

(* One cost unit = 4 us of MDS service time: a shard retires 250k
   units/s.  The constant only scales the reported numbers; every
   comparison is a ratio of makespans. *)
let rate = 250_000.

(* A pure-metadata DSL storm in file-per-process layout: each rank works
   in its own subdirectory, so unlike the shared-directory storms this
   one actually spreads across shards. *)
let fpp_storm =
  let open Workload in
  Wl_compile.entry
    (make ~name:"fpp-storm"
       [
         meta ~op:Mcreate ~layout:File_per_process ~files:6 ();
         Barrier;
         meta ~op:Mstat ~layout:File_per_process ~files:6 ();
         meta ~op:Mreaddir ~layout:File_per_process ~files:2 ();
       ])

let workloads =
  [
    ("compile", Option.get (Registry.find "Compile-Storm"));
    ("loader", Option.get (Registry.find "DataLoader-Storm"));
    ("fpp", fpp_storm);
  ]

(* Client-issued stat calls, from the trace (a cache hit still issues the
   call; only the server round-trip disappears). *)
let issued_stats records =
  List.fold_left
    (fun acc (op, n) ->
      match op with "stat" | "lstat" | "fstat" -> acc + n | _ -> acc)
    0
    (Metadata_report.inventory_counts records)

(* Server-side creates (file creates + mkdirs); never cache-absorbed, so
   the server count is the issued count. *)
let creates (md : Md.stats) =
  List.fold_left
    (fun acc (op, n) ->
      match op with "create" | "mkdir" -> acc + n | _ -> acc)
    0 md.Md.by_op

type cell = {
  wl : string;
  engine : Consistency.t;
  mds_shards : int;
  md : Md.stats;
  stats_issued : int;
  creates_per_s : float;
  stats_per_s : float;
}

let run_cell ~wl ~engine ~mds_shards (entry : Registry.entry) =
  (* A private sink per cell: the md.cache.* counters the service emits
     are the source of the reported hit ratio, cross-checked against the
     service's own stats below. *)
  let sink = Obs.create () in
  let result =
    Obs.with_sink sink (fun () ->
        Runner.run ~nprocs:bench_nprocs ~semantics:engine ~mds_shards
          entry.Registry.body)
  in
  let md = result.Runner.md in
  let hits = Obs.find_counter sink "md.cache.hits"
  and misses = Obs.find_counter sink "md.cache.misses" in
  if hits <> md.Md.cache_hits || misses <> md.Md.cache_misses then
    failwith
      (Printf.sprintf
         "metadata bench: obs counters disagree with service stats \
          (%d/%d vs %d/%d)"
         hits misses md.Md.cache_hits md.Md.cache_misses);
  let stats_issued = issued_stats result.Runner.records in
  let time_s = float_of_int (max 1 (Md.makespan md)) /. rate in
  {
    wl;
    engine;
    mds_shards;
    md;
    stats_issued;
    creates_per_s = float_of_int (creates md) /. time_s;
    stats_per_s = float_of_int stats_issued /. time_s;
  }

let csv_line c =
  Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%d,%d,%.0f,%.0f"
    c.wl
    (Consistency.key c.engine)
    c.mds_shards bench_nprocs c.stats_issued (creates c.md) c.md.Md.server_ops
    c.md.Md.server_makespan c.md.Md.client_makespan c.md.Md.cache_hits
    c.md.Md.cache_misses (Md.hit_ratio c.md) c.md.Md.stale_stats
    c.md.Md.stale_dents c.md.Md.rejected c.creates_per_s c.stats_per_s

let cells c =
  [
    c.wl;
    Consistency.key c.engine;
    string_of_int c.mds_shards;
    string_of_int c.md.Md.server_ops;
    string_of_int (Md.makespan c.md);
    Printf.sprintf "%.2f" (Md.hit_ratio c.md);
    string_of_int c.md.Md.stale_stats;
    Printf.sprintf "%.0f" c.creates_per_s;
    Printf.sprintf "%.0f" c.stats_per_s;
  ]

(* One large cell on the superstep-parallel scheduler: the fpp storm at
   10k ranks (1k under HPCFS_BENCH_SMALL) across 4 domains, reporting the
   scheduler's per-shard step counters next to the modelled MDS load. *)
let scale_cell () =
  let ranks = if small then 1_000 else 10_000 in
  let domains = 4 and mds_shards = List.fold_left max 1 shard_counts in
  section
    (Printf.sprintf "Metadata scale cell: %d ranks across %d domains" ranks
       domains);
  let sink = Obs.create () in
  let t0 = Unix.gettimeofday () in
  let result =
    Obs.with_sink sink (fun () ->
        Runner.run ~nprocs:ranks ~domains ~semantics:Consistency.Session
          ~mds_shards fpp_storm.Registry.body)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let md = result.Runner.md in
  let steps =
    List.init domains (fun k ->
        Obs.find_counter sink (Printf.sprintf "sim.shard.steps.%d" k))
  in
  let imbalance =
    float_of_int (Obs.find_gauge sink "sim.shard.imbalance_x1000") /. 1000.
  in
  Printf.printf
    "fpp-storm ranks=%d shards=%d: %d server ops, makespan %d, hit ratio \
     %.2f\n"
    ranks mds_shards md.Md.server_ops (Md.makespan md) (Md.hit_ratio md);
  Printf.printf "shard steps: [%s]  max/min imbalance %.2f  wall %.1fs\n"
    (String.concat "; " (List.map string_of_int steps))
    imbalance dt;
  Bench_perf.record_scenario
    ~name:(Printf.sprintf "metadata/scale/ranks=%d/domains=%d" ranks domains)
    ~ns:(dt *. 1e9) ~allocs:0.

let metadata () =
  section "Metadata storms: MDS shard count x consistency engine";
  Printf.printf "%d ranks; modelled shard rate %.0f cost units/s\n\n"
    bench_nprocs rate;
  let grid =
    List.concat_map
      (fun (wl, entry) ->
        List.concat_map
          (fun engine ->
            List.map
              (fun mds_shards -> run_cell ~wl ~engine ~mds_shards entry)
              shard_counts)
          engines)
      workloads
  in
  let path =
    emit_table_csv ~csv_file:"metadata.csv"
      ~csv_header:
        "workload,engine,shards,ranks,stats_issued,creates,server_ops,\
         server_makespan,client_makespan,cache_hits,cache_misses,hit_ratio,\
         stale_stats,stale_dents,rejected,creates_per_s,stats_per_s"
      ~columns:
        [
          "workload"; "engine"; "shards"; "srv ops"; "makespan"; "hit ratio";
          "stale"; "creates/s"; "stats/s";
        ]
      (List.map (fun c -> (cells c, csv_line c)) grid)
  in
  Printf.printf "\nmetadata grid written to %s\n" path;
  (* The acceptance comparison: warm cache + sharded MDS vs the cold
     single-MDS strong baseline, per workload. *)
  let best_shards = List.fold_left max 1 shard_counts in
  List.iter
    (fun (wl, _) ->
      let find engine shards =
        List.find
          (fun c -> c.wl = wl && c.engine = engine && c.mds_shards = shards)
          grid
      in
      let base = find Consistency.Strong 1
      and warm = find Consistency.Session best_shards in
      Printf.printf
        "%-8s strong/1-shard %7.0f stats/s  ->  session/%d-shard %8.0f \
         stats/s  (%.1fx)\n"
        wl base.stats_per_s best_shards warm.stats_per_s
        (warm.stats_per_s /. base.stats_per_s))
    workloads;
  print_newline ();
  List.iter
    (fun c ->
      Bench_perf.record_metadata
        ~name:
          (Printf.sprintf "metadata/%s/%s/shards=%d" c.wl
             (Consistency.key c.engine)
             c.mds_shards)
        ~creates_per_s:c.creates_per_s ~stats_per_s:c.stats_per_s
        ~hit_ratio:(Md.hit_ratio c.md) ~stale_stats:c.md.Md.stale_stats)
    grid;
  scale_cell ();
  Bench_perf.write_bench_json ()
