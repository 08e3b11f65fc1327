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

(* Every perf scenario records (ns/op, words/op) here; the file is
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

(* One scenario row: the name, then each field in the order given, its
   value already formatted as the JSON literal the row carries. *)
let record ~name fields =
  let field (key, value) = Printf.sprintf "\"%s\": %s" key value in
  let name = Printf.sprintf "\"%s\"" (json_escape name) in
  json_objs :=
    ("{" ^ String.concat ", " (List.map field (("name", name) :: fields)) ^ "}")
    :: !json_objs

(* The per-operation cost fields most scenarios carry. *)
let per_op ~ns ~allocs =
  [
    ("ns_per_op", Printf.sprintf "%.1f" ns);
    ("words_per_op", Printf.sprintf "%.1f" allocs);
  ]

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

(* Words allocated per call, averaged over a few runs. *)
let measure_allocs f =
  let n = 5 in
  let m0 = allocated_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (allocated_words () -. m0) /. float_of_int n

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
           record ~name (per_op ~ns ~allocs:(measure_allocs fn))
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
module Fdata_ref = Hpcfs_oracle.Fdata_ref
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

(* ns/op and words/op over [reads] random 4 KiB reads; the first read
   is a warm-up so lazy cache builds don't skew the per-op cost. *)
let time_reads read_at reads =
  ignore (read_at 0);
  let m0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to reads do
    ignore (Sys.opaque_identity (read_at i))
  done;
  let t1 = Unix.gettimeofday () in
  let m1 = allocated_words () in
  ((t1 -. t0) *. 1e9 /. float_of_int reads, (m1 -. m0) /. float_of_int reads)

(* Slow reads: the same history under session, then one more write and
   close by a writer after the reading rank's last open, so the settled
   cache has folded an epoch the reader has not acquired and every
   session read takes the slow path; BurstFS mode ([local_order:false])
   always does.  One row per mode and history length. *)
let slow_rows ~sizes ~reads =
  List.concat_map
    (fun n ->
      let fd = Fdata.create Consistency.Session in
      build_history n
        ~write:(fun ~rank ~time ~off payload ->
          Fdata.write fd ~rank ~time ~off payload)
        ~commit:(fun ~rank ~time -> Fdata.commit fd ~rank ~time)
        ~close:(fun ~rank ~time -> Fdata.session_close fd ~rank ~time)
        ~sopen:(fun ~rank ~time -> Fdata.session_open fd ~rank ~time);
      Fdata.write fd ~rank:0 ~time:((2 * n) + 2) ~off:0 (Bytes.make 512 'y');
      Fdata.session_close fd ~rank:0 ~time:((2 * n) + 3);
      let now = (2 * n) + 4 in
      let size = Fdata.size fd in
      let off_of i = i * 4099 * 512 mod max 4096 (size - 4096) in
      List.map
        (fun (mode, local_order) ->
          let ns, words =
            time_reads
              (fun i ->
                (Fdata.read ~local_order fd ~rank:99 ~time:now ~off:(off_of i)
                   ~len:4096)
                  .Fdata.stale_bytes)
              reads
          in
          record
            ~name:(Printf.sprintf "readpath/slow/%s/%d" mode n)
            [
              ("writes", string_of_int n);
              ("reads", string_of_int reads);
              ("ns_per_read", Printf.sprintf "%.1f" ns);
              ("words_per_read", Printf.sprintf "%.1f" words);
            ];
          [
            "readpath/slow/" ^ mode;
            string_of_int n;
            Printf.sprintf "%.0f" ns;
            Printf.sprintf "%.1f" words;
          ])
        [ ("session", true); ("burstfs", false) ])
    sizes

module Namespace = Hpcfs_fs.Namespace
module Shardmap = Hpcfs_fs.Shardmap

(* Path resolution over 16,384 files at depth 3 (16 x 32 directories of
   32 files): a hit, a miss in an existing directory, a stat, and the
   metadata shard map's parent, each on canonical paths drawn in a
   scattered order. *)
let namespace_rows ~ops =
  let ns = Namespace.create Consistency.Strong in
  let dir i j = Printf.sprintf "/d%d/s%d" i j in
  for i = 0 to 15 do
    Namespace.mkdir ns ~time:0 (Printf.sprintf "/d%d" i);
    for j = 0 to 31 do
      Namespace.mkdir ns ~time:0 (dir i j);
      for k = 0 to 31 do
        let path = Printf.sprintf "%s/f%d" (dir i j) k in
        ignore (Namespace.create_file ns ~time:0 path)
      done
    done
  done;
  (* Consecutive draws land in different directories. *)
  let path leaf n =
    let j = n * 4099 mod 16_384 in
    Printf.sprintf "%s/%s%d" (dir (j / 1024) (j / 32 mod 32)) leaf (j mod 32)
  in
  let hits = Array.init 4096 (path "f") in
  let misses = Array.init 4096 (path "g") in
  let at a i = a.(i land 4095) in
  [
    ("namespace/hit", fun i -> ignore (Namespace.lookup_file ns (at hits i)));
    ("namespace/miss", fun i -> ignore (Namespace.exists ns (at misses i)));
    ("namespace/stat", fun i -> ignore (Namespace.stat ns (at hits i)));
    ("namespace/parent", fun i -> ignore (Shardmap.parent (at hits i)));
  ]
  |> List.map (fun (name, op) ->
         let ns, words = time_reads op ops in
         record ~name (("ops", string_of_int ops) :: per_op ~ns ~allocs:words);
         [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.1f" words ])

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
    Hpcfs_apps.Validation.engines @ [ Consistency.Eventual { delay = 8 } ]
  in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "scenario"; "writes"; "extent ns/op"; "ref ns/op"; "speedup" ]
  and rebuilds =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "scenario"; "writes"; "ns"; "words/write" ]
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
          (* A relaxed engine's first read after the history builds the
             settled cache from the whole log. *)
          if Consistency.publication sem <> On_arrival then begin
            let m0 = allocated_words () and t0 = Unix.gettimeofday () in
            ignore
              (Sys.opaque_identity
                 (Fdata.read fd ~rank:99 ~time:now ~off:(off_of 0) ~len:4096));
            let t1 = Unix.gettimeofday () and m1 = allocated_words () in
            let ns = (t1 -. t0) *. 1e9
            and per_write = (m1 -. m0) /. float_of_int n in
            let name =
              Printf.sprintf "readpath/rebuild/%s/%d" (Consistency.key sem) n
            in
            Table.add_row rebuilds
              [
                "readpath/rebuild/" ^ Consistency.key sem;
                string_of_int n;
                Printf.sprintf "%.0f" ns;
                Printf.sprintf "%.1f" per_write;
              ];
            record ~name
              [
                ("writes", string_of_int n);
                ("ns", Printf.sprintf "%.1f" ns);
                ("words", Printf.sprintf "%.1f" (m1 -. m0));
                ("words_per_write", Printf.sprintf "%.1f" per_write);
              ]
          end;
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
          let ens, ea = extent and rns, ra = reference in
          let name = Printf.sprintf "readpath/%s/%d" (Consistency.key sem) n in
          Table.add_row t
            [
              "readpath/" ^ Consistency.key sem;
              string_of_int n;
              Printf.sprintf "%.0f" ens;
              Printf.sprintf "%.0f" rns;
              Printf.sprintf "%.1fx" (rns /. ens);
            ];
          record ~name
            [
              ("writes", string_of_int n);
              ("reads", string_of_int reads);
              ("extent_ns_per_op", Printf.sprintf "%.1f" ens);
              ("ref_ns_per_op", Printf.sprintf "%.1f" rns);
              ("speedup", Printf.sprintf "%.2f" (rns /. ens));
              ("extent_words_per_op", Printf.sprintf "%.1f" ea);
              ("ref_words_per_op", Printf.sprintf "%.1f" ra);
            ])
        sizes)
    engines;
  Table.print t;
  print_endline
    "(expected shape: the reference repaints the full write log per read, so\n\
    \ its cost grows with history length; the extent store answers from the\n\
    \ settled owner map + pending overlay and stays near-flat.)";
  section "Read path: first read after the history (settled-cache rebuild)";
  Table.print rebuilds;
  print_endline
    "(expected shape: words per write flat in history length and in write\n\
    \ size; the cache names each byte's owner and copies no file bytes.)";
  section "Read path: slow reads (stale session open, BurstFS mode)";
  let slow =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "scenario"; "writes"; "ns/read"; "words/read" ]
  in
  List.iter (Table.add_row slow) (slow_rows ~sizes ~reads);
  Table.print slow;
  print_endline
    "(expected shape: flat in history length; a slow read repaints only the\n\
    \ writes that overlap it and counts stale bytes per segment.)";
  section "Namespace: path resolution, 16,384 files at depth 3";
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "scenario"; "ns/op"; "words/op" ]
  in
  List.iter (Table.add_row t)
    (namespace_rows ~ops:(if small then 20_000 else 1_000_000));
  Table.print t;
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

(* Rank scaling --------------------------------------------------------------- *)

module Runner = Hpcfs_apps.Runner
module Workload = Hpcfs_wl.Workload
module Wl_compile = Hpcfs_wl.Compile
module Obs = Hpcfs_obs.Obs

(* The scaling workload: file-per-process writes, the one pattern with no
   cross-rank data dependencies, so wall time isolates scheduler overhead.
   No collectives beyond the compiler's final barrier. *)
let scaling_workload =
  let open Workload in
  make ~name:"scale-fpp"
    [ write ~layout:File_per_process ~order:Consecutive ~block:4096 ~count:2 () ]

(* One rank-count cell: wall seconds and trace size. *)
let scaling_cell ~ranks =
  let t0 = Unix.gettimeofday () in
  let result = Runner.run ~nprocs:ranks (Wl_compile.body scaling_workload) in
  let seconds = Unix.gettimeofday () -. t0 in
  (seconds, List.length result.Runner.records)

(* The collective cell: FLASH-fbs, whose checkpoints are collective HDF5
   writes (each MPI-IO call gathers every rank's extent).  [mpi.sends] counts the messages left once
   collectives are rendezvous (MPI-IO's two-phase exchange); [sim.rounds]
   counts scheduler rounds, each of which polls every rank. *)
let flash_scaling ~small =
  section "Rank scaling: FLASH-fbs collective HDF5 writes";
  let entry = Option.get (Hpcfs_apps.Registry.find "FLASH-fbs") in
  let counter sink name =
    try Obs.find_counter sink name with Not_found -> 0
  in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "ranks"; "seconds"; "mpi.sends"; "sim.rounds" ]
  in
  List.iter
    (fun ranks ->
      let sink = Obs.create () in
      let t0 = Unix.gettimeofday () in
      ignore
        (Obs.with_sink sink (fun () ->
             Runner.run ~nprocs:ranks entry.Hpcfs_apps.Registry.body));
      let seconds = Unix.gettimeofday () -. t0 in
      let sends = counter sink "mpi.sends"
      and rounds = counter sink "sim.rounds" in
      Table.add_row t
        [
          string_of_int ranks;
          Printf.sprintf "%.3f" seconds;
          string_of_int sends;
          string_of_int rounds;
        ];
      record
        ~name:(Printf.sprintf "rank_scaling/flash_fbs/ranks=%d" ranks)
        [
          ("ranks", string_of_int ranks);
          ("seconds", Printf.sprintf "%.3f" seconds);
          ("mpi.sends", string_of_int sends);
          ("sim.rounds", string_of_int rounds);
        ])
    (if small then [ 64; 256 ] else [ 64; 256; 1_024 ]);
  Table.print t

let rank_scaling () =
  section "Rank scaling: fpp write workload";
  let small =
    match Sys.getenv_opt "HPCFS_BENCH_SMALL" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false
  in
  let rank_points =
    if small then [ 100; 1_000; 10_000 ]
    else [ 1; 100; 1_000; 10_000; 100_000 ]
  in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "ranks"; "seconds"; "records"; "records/s" ]
  in
  List.iter
    (fun ranks ->
      let seconds, records = scaling_cell ~ranks in
      let per_s = Printf.sprintf "%.0f" (float_of_int records /. seconds) in
      Table.add_row t
        [
          string_of_int ranks;
          Printf.sprintf "%.3f" seconds;
          string_of_int records;
          per_s;
        ];
      record
        ~name:(Printf.sprintf "rank_scaling/fpp_write/ranks=%d" ranks)
        [
          ("ranks", string_of_int ranks);
          ("seconds", Printf.sprintf "%.3f" seconds);
          ("records", string_of_int records);
          ("records_per_s", per_s);
        ])
    rank_points;
  Table.print t;
  flash_scaling ~small;
  write_bench_json ()
