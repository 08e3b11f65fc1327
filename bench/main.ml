(* Experiment reproduction harness: one target per table and figure of the
   paper, plus validation, scale, lock-traffic and algorithm benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table4     # one experiment
     HPCFS_BENCH_NPROCS=32 dune exec bench/main.exe fig1a
*)

let experiments =
  [
    ("table1", "PFS consistency-semantics categorization", Bench_tables.table1);
    ("table2", "build and link configurations", Bench_tables.table2);
    ("table3", "high-level access patterns", Bench_tables.table3);
    ("table4", "conflicts under session semantics", Bench_tables.table4);
    ("table5", "application configurations", Bench_tables.table5);
    ("fig1a", "global access patterns", Bench_figs.fig1 `Global);
    ("fig1b", "local access patterns", Bench_figs.fig1 `Local);
    ("fig2", "FLASH write patterns", Bench_figs.fig2);
    ("fig3", "metadata operations", Bench_figs.fig3);
    ("validate", "end-to-end semantics validation", Bench_validate.validate);
    ("scale", "scale independence", Bench_validate.scale);
    ("locks", "lock-traffic ablation", Bench_validate.locks);
    ("meta", "metadata-conflict extension", Bench_validate.meta);
    ("burstfs", "BurstFS same-process ordering exception", Bench_validate.burstfs);
    ("bb", "burst-buffer tier drain-policy comparison", Bench_bb.bb);
    ("faults", "fault injection: crash/restart recovery", Bench_faults.faults);
    ( "logging",
      "write-ahead logging tier: checkpoint ack latency and crash recovery",
      Bench_logging.logging );
    ( "failover",
      "storage-target failure, failover and journal replay",
      Bench_failover.failover );
    ("sweep", "what-if sweep: workload-DSL grid across engines", Bench_sweep.sweep);
    ( "metadata",
      "metadata storms: MDS shards x engine, modelled throughput",
      Bench_metadata.metadata );
    ("perf", "analysis micro-benchmarks", Bench_perf.perf);
    ( "ranks",
      "rank scaling: fpp writes, 1 -> 100k ranks; FLASH-fbs collectives, \
       64 -> 1024 ranks",
      Bench_perf.rank_scaling );
    ( "trace",
      "binary trace codec throughput and streaming analysis",
      Bench_trace.trace );
    ( "readpath",
      "extent-store read path vs reference log repaint",
      Bench_perf.readpath );
    ("ablation", "conflict-condition ablation", Bench_perf.perf_tables_vs_annotated);
    ("scaling", "Algorithm 1 scaling", Bench_perf.scaling);
  ]

let usage () =
  print_endline "usage: main.exe [experiment...]";
  print_endline "experiments:";
  List.iter
    (fun (name, descr, _) -> Printf.printf "  %-10s %s\n" name descr)
    experiments;
  print_endline "with no argument, every experiment runs."

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--help" ] | [ "-h" ] | [ "help" ] -> usage ()
  | [] ->
    Printf.printf
      "hpcfs experiment harness: reproducing every table and figure of\n\
       \"File System Semantics Requirements of HPC Applications\" (HPDC'21)\n\
       at %d ranks (override with HPCFS_BENCH_NPROCS).\n"
      Bench_common.nprocs;
    List.iter (fun (_, _, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S\n" name;
          usage ();
          exit 1)
      names
