(* Performance benchmarks for the analysis algorithms themselves, including
   the ablations DESIGN.md calls out: sorting vs merging in Algorithm 1 (the
   paper's footnote) and annotated vs table-lookup conflict conditions
   (Section 5.2's two methods), plus the near-linear-in-practice scaling
   claim. *)

module Access = Hpcfs_core.Access
module Overlap = Hpcfs_core.Overlap
module Conflict = Hpcfs_core.Conflict
module Offsets = Hpcfs_core.Offsets
module Eventtab = Hpcfs_core.Eventtab
module Interval = Hpcfs_util.Interval
module Prng = Hpcfs_util.Prng
module Table = Hpcfs_util.Table
open Bench_common
open Bechamel

(* Synthetic workloads ----------------------------------------------------- *)

let make_access ~time ~rank ~lo ~len ~write =
  {
    Access.time;
    rank;
    file = "/bench";
    iv = Interval.of_len lo len;
    op = (if write then Access.Write else Access.Read);
    func = (if write then "write" else "read");
    t_open = 0;
    t_commit = max_int;
    t_close = max_int;
  }

(* Realistic trace: strided checkpoint writes, sparse overlaps from a small
   metadata region every rank rewrites — the shape real traces have, on
   which Algorithm 1 runs in near-linear time. *)
let realistic n =
  let g = Prng.create 7 in
  List.init n (fun i ->
      let rank = i mod 64 in
      if i mod 97 = 0 then
        (* small shared header rewrite *)
        make_access ~time:(i + 1) ~rank ~lo:(Prng.int g 64) ~len:8 ~write:true
      else
        make_access ~time:(i + 1) ~rank
          ~lo:(1024 + (i * 512))
          ~len:(256 + Prng.int g 256)
          ~write:(Prng.int g 10 < 8))

(* Pathological trace: everything overlaps everything (worst case). *)
let pathological n =
  List.init n (fun i ->
      make_access ~time:(i + 1) ~rank:(i mod 8) ~lo:0 ~len:4096 ~write:true)

(* BENCH_PERF.json --------------------------------------------------------- *)

(* Every perf scenario records (ns/op, minor words/op) here; the file is
   rewritten after each experiment so partial runs still leave a valid
   snapshot in bench_out/BENCH_PERF.json. *)
let json_objs : string list ref = ref []

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let record_scenario ~name ~ns ~allocs =
  json_objs :=
    Printf.sprintf
      "{\"name\": \"%s\", \"ns_per_op\": %.1f, \"minor_words_per_op\": %.1f}"
      (json_escape name) ns allocs
    :: !json_objs

let record_codec ~name ~records ~bytes ~encode_s ~decode_s =
  json_objs :=
    Printf.sprintf
      "{\"name\": \"%s\", \"records\": %d, \"bytes\": %d, \
       \"bytes_per_record\": %.2f, \"encode_records_per_s\": %.0f, \
       \"decode_records_per_s\": %.0f}"
      (json_escape name) records bytes
      (float_of_int bytes /. float_of_int (max 1 records))
      (float_of_int records /. encode_s)
      (float_of_int records /. decode_s)
    :: !json_objs

let record_stream ~name ~records ~seconds ~top_heap_mb =
  json_objs :=
    Printf.sprintf
      "{\"name\": \"%s\", \"records\": %d, \"seconds\": %.2f, \
       \"records_per_s\": %.0f, \"top_heap_mb\": %.0f}"
      (json_escape name) records seconds
      (float_of_int records /. seconds)
      top_heap_mb
    :: !json_objs

let record_metadata ~name ~creates_per_s ~stats_per_s ~hit_ratio ~stale_stats =
  json_objs :=
    Printf.sprintf
      "{\"name\": \"%s\", \"creates_per_s\": %.0f, \"stats_per_s\": %.0f, \
       \"cache_hit_ratio\": %.3f, \"stale_stats\": %d}"
      (json_escape name) creates_per_s stats_per_s hit_ratio stale_stats
    :: !json_objs

let record_logging ~name ~ack_ms ~stalls ~peak =
  json_objs :=
    Printf.sprintf
      "{\"name\": \"%s\", \"ack_ms\": %.3f, \"stalls\": %d, \
       \"peak_occupancy\": %d}"
      (json_escape name) ack_ms stalls peak
    :: !json_objs

let record_logging_crash ~name ~lost ~torn ~recovered ~direct_lost =
  json_objs :=
    Printf.sprintf
      "{\"name\": \"%s\", \"wal_lost_bytes\": %d, \"wal_torn_bytes\": %d, \
       \"wal_recovered_bytes\": %d, \"direct_lost_bytes\": %d}"
      (json_escape name) lost torn recovered direct_lost
    :: !json_objs

let record_readpath ~name ~writes ~reads ~extent ~reference =
  let ens, ea = extent and rns, ra = reference in
  json_objs :=
    Printf.sprintf
      "{\"name\": \"%s\", \"writes\": %d, \"reads\": %d, \"extent_ns_per_op\": \
       %.1f, \"ref_ns_per_op\": %.1f, \"speedup\": %.2f, \
       \"extent_minor_words_per_op\": %.1f, \"ref_minor_words_per_op\": %.1f}"
      (json_escape name) writes reads ens rns (rns /. ens) ea ra
    :: !json_objs

(* Scenario rows already on disk, one per line as this module wrote them.
   Kept so separate harness invocations (e.g. `main.exe readpath` then
   `main.exe failover`) merge into one snapshot instead of overwriting
   each other; re-recorded names take the fresh value. *)
let existing_rows () =
  let path = Filename.concat out_dir "BENCH_PERF.json" in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rows = ref [] in
    (try
       while true do
         let t = String.trim (input_line ic) in
         if String.length t > 1 && t.[0] = '{' then
           rows :=
             (if t.[String.length t - 1] = ',' then
                String.sub t 0 (String.length t - 1)
              else t)
             :: !rows
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !rows
  end

let row_name row =
  let key = "\"name\": \"" in
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length row then None
    else if String.sub row i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> row
  | Some j -> (
    match String.index_from_opt row j '"' with
    | None -> row
    | Some k -> String.sub row j (k - j))

let write_bench_json () =
  ensure_dir out_dir;
  let fresh = List.rev !json_objs in
  let fresh_names = List.map row_name fresh in
  let kept =
    List.filter
      (fun r -> not (List.mem (row_name r) fresh_names))
      (existing_rows ())
  in
  let oc = open_out (Filename.concat out_dir "BENCH_PERF.json") in
  output_string oc "{\n  \"scenarios\": [\n";
  let rows = kept @ fresh in
  List.iteri
    (fun i row ->
      output_string oc ("    " ^ row);
      if i < List.length rows - 1 then output_string oc ",";
      output_string oc "\n")
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "(wrote %s)\n" (Filename.concat out_dir "BENCH_PERF.json")

(* Minor-heap allocation per call, averaged over a few runs. *)
let measure_allocs f =
  let n = 5 in
  let m0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. m0) /. float_of_int n

(* Bechamel helpers --------------------------------------------------------- *)

let run_bechamel ~group pairs =
  let tests =
    Test.make_grouped ~name:group
      (List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) pairs)
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right ]
      [ "benchmark"; "time/run" ]
  in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (est :: _) -> est
           | Some [] | None -> nan
         in
         let human =
           if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         Table.add_row t [ name; human ];
         match
           List.find_opt
             (fun (n, _) -> n = name || Filename.basename name = n
                            || group ^ "/" ^ n = name)
             pairs
         with
         | Some (_, fn) when Float.is_finite ns ->
           record_scenario ~name ~ns ~allocs:(measure_allocs fn)
         | _ -> ());
  Table.print t;
  write_bench_json ()

let perf () =
  section "Analysis-algorithm micro-benchmarks (Bechamel)";
  let trace = realistic 20_000 in
  let resolved_pairs = Overlap.detect trace in
  run_bechamel ~group:"analysis"
    [
      ("algorithm1/sort (20k accesses)", fun () -> ignore (Overlap.detect trace));
      ( "algorithm1/merge (20k accesses)",
        fun () -> ignore (Overlap.detect_merge trace) );
      ( "conflicts/annotated (session)",
        fun () ->
          ignore (Conflict.of_pairs Conflict.Session_semantics resolved_pairs)
      );
      ( "conflicts/annotated (commit)",
        fun () ->
          ignore (Conflict.of_pairs Conflict.Commit_semantics resolved_pairs) );
    ]

let perf_tables_vs_annotated () =
  section "Ablation: annotated records vs binary-searched event tables";
  (* Need a trace with real open/close/commit events: reuse FLASH's. *)
  let flash = run_of (Option.get (Hpcfs_apps.Registry.find "FLASH-fbs")) in
  let resolved =
    Offsets.resolve flash.result.Hpcfs_apps.Runner.records
  in
  let pairs = Overlap.detect resolved.Offsets.accesses in
  run_bechamel ~group:"conflict-condition"
    [
      ( "annotated (FLASH trace)",
        fun () ->
          ignore
            (Conflict.of_pairs ~mode:Conflict.Annotated
               Conflict.Session_semantics pairs) );
      ( "event tables (FLASH trace)",
        fun () ->
          ignore
            (Conflict.of_pairs
               ~mode:(Conflict.Tables resolved.Offsets.events)
               Conflict.Session_semantics pairs) );
    ]

(* Read path: extent store vs reference log repaint ------------------------ *)

module Fdata = Hpcfs_fs.Fdata
module Fdata_ref = Hpcfs_fs.Fdata_ref
module Consistency = Hpcfs_fs.Consistency

(* One deterministic history applied to both implementations: 16 writer
   ranks laying down strided 512 B extents with periodic closes (which also
   commit), plus session opens by the reading rank.  Times are even for
   writes and odd for events so publications interleave cleanly. *)
let build_history n ~write ~commit ~close ~sopen =
  let span = 4 * 1024 * 1024 in
  let payload = Bytes.make 512 'x' in
  let reader = 99 in
  for i = 0 to n - 1 do
    let rank = i mod 16 in
    let time = 2 * i in
    let off = i * 509 * 512 mod span in
    write ~rank ~time ~off payload;
    if i mod 8 = 7 then close ~rank ~time:(time + 1);
    if i mod 16 = 15 then commit ~rank ~time:(time + 1);
    if i mod 64 = 63 then sopen ~rank:reader ~time:(time + 1)
  done;
  sopen ~rank:reader ~time:((2 * n) + 1)

(* ns/op and minor words/op over [reads] random 4 KiB reads; the first read
   is a warm-up so lazy cache builds don't skew the per-op cost. *)
let time_reads read_at reads =
  ignore (read_at 0);
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to reads do
    ignore (Sys.opaque_identity (read_at i))
  done;
  let t1 = Unix.gettimeofday () in
  let m1 = Gc.minor_words () in
  ((t1 -. t0) *. 1e9 /. float_of_int reads, (m1 -. m0) /. float_of_int reads)

let readpath () =
  section
    "Read path: extent store (epoch compaction) vs reference log repaint";
  let small =
    match Sys.getenv_opt "HPCFS_BENCH_SMALL" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false
  in
  let sizes = if small then [ 200; 1_000 ] else [ 1_000; 10_000 ] in
  let reads = if small then 200 else 2_000 in
  let engines =
    [
      Consistency.Strong;
      Consistency.Commit;
      Consistency.Session;
      Consistency.Eventual { delay = 8 };
    ]
  in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "scenario"; "writes"; "extent ns/op"; "ref ns/op"; "speedup" ]
  in
  List.iter
    (fun sem ->
      List.iter
        (fun n ->
          let fd = Fdata.create sem and fr = Fdata_ref.create () in
          build_history n
            ~write:(fun ~rank ~time ~off payload ->
              Fdata.write fd ~rank ~time ~off payload;
              Fdata_ref.write fr ~rank ~time ~off payload)
            ~commit:(fun ~rank ~time ->
              Fdata.commit fd ~rank ~time;
              Fdata_ref.commit fr ~rank ~time)
            ~close:(fun ~rank ~time ->
              Fdata.session_close fd ~rank ~time;
              Fdata_ref.session_close fr ~rank ~time)
            ~sopen:(fun ~rank ~time ->
              Fdata.session_open fd ~rank ~time;
              Fdata_ref.session_open fr ~rank ~time);
          let now = (2 * n) + 2 in
          let size = Fdata.size fd in
          let off_of i = i * 4099 * 512 mod max 4096 (size - 4096) in
          let extent =
            time_reads
              (fun i ->
                (Fdata.read fd ~rank:99 ~time:now ~off:(off_of i) ~len:4096)
                  .Fdata.stale_bytes)
              reads
          and reference =
            time_reads
              (fun i ->
                (Fdata_ref.read fr ~semantics:sem ~rank:99 ~time:now
                   ~off:(off_of i) ~len:4096)
                  .Fdata_ref.stale_bytes)
              reads
          in
          let ens, _ = extent and rns, _ = reference in
          let name = Printf.sprintf "readpath/%s/%d" (Consistency.key sem) n in
          Table.add_row t
            [
              "readpath/" ^ Consistency.key sem;
              string_of_int n;
              Printf.sprintf "%.0f" ens;
              Printf.sprintf "%.0f" rns;
              Printf.sprintf "%.1fx" (rns /. ens);
            ];
          record_readpath ~name ~writes:n ~reads ~extent ~reference)
        sizes)
    engines;
  Table.print t;
  print_endline
    "(expected shape: the reference repaints the full write log per read, so\n\
    \ its cost grows with history length; the extent store answers from the\n\
    \ settled base + pending overlay and stays near-flat.)";
  write_bench_json ()

let scaling () =
  section "Algorithm 1 scaling: near-linear on realistic traces (Section 5.1)";
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "accesses"; "realistic (ms)"; "pairs"; "pathological (ms)" ]
  in
  List.iter
    (fun n ->
      let r = realistic n in
      let t0 = Unix.gettimeofday () in
      let pairs = Overlap.detect r in
      let t1 = Unix.gettimeofday () in
      (* The pathological workload is quadratic: cap its size. *)
      let path_ms =
        if n <= 4000 then begin
          let p = pathological n in
          let t2 = Unix.gettimeofday () in
          ignore (Overlap.detect p);
          let t3 = Unix.gettimeofday () in
          Printf.sprintf "%.1f" ((t3 -. t2) *. 1000.0)
        end
        else "-"
      in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.1f" ((t1 -. t0) *. 1000.0);
          string_of_int (List.length pairs);
          path_ms;
        ])
    [ 1_000; 2_000; 4_000; 8_000; 16_000; 32_000; 64_000 ];
  Table.print t;
  print_endline
    "(expected shape: realistic-trace time grows ~linearly with the access\n\
    \ count; the all-overlapping workload exhibits the quadratic worst case.)"

(* Rank scaling under the domain-parallel scheduler ------------------------ *)

module Runner = Hpcfs_apps.Runner
module Workload = Hpcfs_wl.Workload
module Wl_compile = Hpcfs_wl.Compile
module Obs = Hpcfs_obs.Obs

let record_rank_scaling ~ranks ~domains ~seconds ~records ~supersteps
    ~imbalance_x1000 ~speedup =
  json_objs :=
    Printf.sprintf
      "{\"name\": \"rank_scaling/fpp_write/ranks=%d/domains=%d\", \"ranks\": \
       %d, \"domains\": %d, \"cores\": %d, \"seconds\": %.3f, \"records\": \
       %d, \"records_per_s\": %.0f, \"supersteps\": %d, \
       \"shard_imbalance_x1000\": %d, \"speedup_vs_domains1\": %.2f}"
      ranks domains ranks domains
      (Domain.recommended_domain_count ())
      seconds records
      (float_of_int records /. seconds)
      supersteps imbalance_x1000 speedup
    :: !json_objs

(* The scaling workload: file-per-process writes, the one pattern with no
   cross-rank data dependencies, so wall time isolates scheduler overhead.
   No collectives beyond the compiler's final barrier. *)
let scaling_workload =
  let open Workload in
  make ~name:"scale-fpp"
    [ write ~layout:File_per_process ~order:Consecutive ~block:4096 ~count:2 () ]

(* One (ranks, domains) cell: wall seconds, trace size, and the shard
   balance counters the parallel scheduler emits. *)
let scaling_cell ~ranks ~domains =
  let sink = Obs.create () in
  let t0 = Unix.gettimeofday () in
  let result =
    Obs.with_sink sink (fun () ->
        Runner.run ~nprocs:ranks ~domains (Wl_compile.body scaling_workload))
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let records = List.length result.Runner.records in
  let supersteps = Obs.find_counter sink "sim.supersteps" in
  let imbalance_x1000 =
    try Obs.find_gauge sink "sim.shard.imbalance_x1000" with Not_found -> 1000
  in
  (seconds, records, supersteps, imbalance_x1000)

let rank_scaling () =
  section "Rank scaling: superstep-parallel scheduler, fpp write workload";
  let small =
    match Sys.getenv_opt "HPCFS_BENCH_SMALL" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false
  in
  let rank_points =
    if small then [ 100; 1_000; 10_000 ]
    else [ 1; 100; 1_000; 10_000; 100_000 ]
  in
  let domain_counts = [ 1; 2; 4 ] in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "host has %d core(s) available; with fewer cores than domains the \
     speedup\ncolumn measures superstep overhead, not parallelism.\n\n"
    cores;
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      [ "ranks"; "domains"; "seconds"; "records"; "records/s"; "imbalance";
        "speedup" ]
  in
  List.iter
    (fun ranks ->
      let base = ref nan in
      List.iter
        (fun domains ->
          let seconds, records, supersteps, imbalance_x1000 =
            scaling_cell ~ranks ~domains
          in
          if domains = 1 then base := seconds;
          let speedup = !base /. seconds in
          Table.add_row t
            [
              string_of_int ranks;
              string_of_int domains;
              Printf.sprintf "%.3f" seconds;
              string_of_int records;
              Printf.sprintf "%.0f" (float_of_int records /. seconds);
              Printf.sprintf "%.2f" (float_of_int imbalance_x1000 /. 1000.);
              Printf.sprintf "%.2fx" speedup;
            ];
          record_rank_scaling ~ranks ~domains ~seconds ~records ~supersteps
            ~imbalance_x1000 ~speedup)
        domain_counts)
    rank_points;
  Table.print t;
  Printf.printf
    "(speedup is relative to domains=1 at the same rank count.  Domains\n\
    \ beyond the core count add coordination cost without parallel work;\n\
    \ the cores field in BENCH_PERF.json records what this host offered.)\n";
  write_bench_json ()
