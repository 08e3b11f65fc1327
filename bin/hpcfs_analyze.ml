(* Command-line front end: run application models under the simulator,
   save/load traces, analyze them, and validate against the PFS simulator.

     hpcfs_analyze list
     hpcfs_analyze run FLASH-fbs --ranks 64 --trace /tmp/flash.trace
     hpcfs_analyze analyze /tmp/flash.trace --ranks 64
     hpcfs_analyze validate FLASH-fbs --ranks 32
     hpcfs_analyze conflicts FLASH-fbs --semantics session
*)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Report = Hpcfs_core.Report
module Metadata_report = Hpcfs_core.Metadata_report
module Md = Hpcfs_md.Service
module Conflict = Hpcfs_core.Conflict
module Access = Hpcfs_core.Access
module Offsets = Hpcfs_core.Offsets
module Overlap = Hpcfs_core.Overlap
module Tracefile = Hpcfs_trace.Tracefile
module Consistency = Hpcfs_fs.Consistency
module Table = Hpcfs_util.Table
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Spec = Hpcfs_util.Spec
module Obs = Hpcfs_obs.Obs
module Export_chrome = Hpcfs_obs.Export_chrome
module Export_metrics = Hpcfs_obs.Export_metrics
module App_report = Hpcfs_obs.App_report
module Pfs = Hpcfs_fs.Pfs
module Lockmgr = Hpcfs_fs.Lockmgr
module Workload = Hpcfs_wl.Workload
module Wl_compile = Hpcfs_wl.Compile

open Cmdliner

(* Counts (ranks, shards, ranks per node) must be positive: a zero
   is a usage error naming the flag, not an exception from the simulator. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let ranks_arg =
  let doc = "Number of simulated MPI ranks." in
  Arg.(value & opt positive_int 64 & info [ "r"; "ranks" ] ~docv:"N" ~doc)

(* --tier selects between three data paths: direct PFS, the burst-buffer
   tier (one of its drain policies), or the write-ahead logging tier with
   optional replay-bandwidth and log-capacity knobs. *)
type tier_sel =
  | Sel_none
  | Sel_bb of Drain.t
  | Sel_wal of { bw : int option; cap : int option }

let parse_tier s =
  match String.lowercase_ascii s with
  | "none" -> Ok Sel_none
  | "sync-close" -> Ok (Sel_bb Drain.Sync_on_close)
  | "async" -> Ok (Sel_bb Drain.default_async)
  | "laminate" -> Ok (Sel_bb Drain.On_laminate)
  | _ -> (
    let ( let* ) = Result.bind in
    match Spec.split_head s with
    | "wal", rest ->
      let* kvs = Spec.parse_int_fields "wal" (Spec.fields_of rest) in
      let* () = Spec.check_keys "wal" ~accepted:[ "bw"; "cap" ] (List.rev kvs) in
      let positive key =
        match List.assoc_opt key kvs with
        | Some v when v <= 0 ->
          Error (Printf.sprintf "wal: %s must be positive" key)
        | v -> Ok v
      in
      let* bw = positive "bw" in
      let* cap = positive "cap" in
      Ok (Sel_wal { bw; cap })
    | _ ->
      Error
        (Printf.sprintf
           "unknown tier %S; expected none, sync-close, async, laminate or \
            wal[:bw=N,cap=BYTES]"
           s))

let tier_conv =
  let parse s =
    match parse_tier s with Ok v -> Ok v | Error e -> Error (`Msg e)
  in
  let print ppf = function
    | Sel_none -> Format.pp_print_string ppf "none"
    | Sel_bb policy -> Format.pp_print_string ppf (Drain.name policy)
    | Sel_wal { bw; cap } ->
      Format.pp_print_string ppf "wal";
      let fields =
        List.filter_map
          (fun (k, v) -> Option.map (Printf.sprintf "%s=%d" k) v)
          [ ("bw", bw); ("cap", cap) ]
      in
      if fields <> [] then
        Format.fprintf ppf ":%s" (String.concat "," fields)
  in
  Arg.conv (parse, print)

let tier_arg =
  let doc =
    "Route data operations through a staging tier: $(b,none) (direct PFS, \
     the default); a burst-buffer tier with drain policy $(b,sync-close), \
     $(b,async) or $(b,laminate); or $(b,wal[:bw=N,cap=BYTES]), the \
     host-side write-ahead log ($(b,bw) = replay bandwidth in bytes/tick, \
     $(b,cap) = per-node log capacity)."
  in
  Arg.(value & opt tier_conv Sel_none & info [ "tier" ] ~docv:"POLICY" ~doc)

let ranks_per_node_arg =
  let doc =
    "Ranks sharing one burst-buffer node or write-ahead log (with \
     $(b,--tier))."
  in
  Arg.(value & opt positive_int 4 & info [ "ranks-per-node" ] ~docv:"N" ~doc)

let mds_shards_arg =
  let doc =
    "Number of metadata-server shards.  Paths are partitioned by a hash \
     of their parent directory, so file-per-process trees spread across \
     shards while a shared-directory storm funnels into one."
  in
  Arg.(value & opt positive_int 1 & info [ "mds-shards" ] ~docv:"K" ~doc)

(* Resolve the selection into the (at most one) tier config Runner.run
   accepts: burst-buffer or WAL, never both. *)
let tier_config sel ranks_per_node =
  match sel with
  | Sel_none -> (None, None)
  | Sel_bb policy ->
    (Some { Tier.default_config with Tier.policy; ranks_per_node }, None)
  | Sel_wal { bw; cap } ->
    let c = Wal.default_config in
    ( None,
      Some
        {
          c with
          Wal.ranks_per_node;
          bandwidth_bytes_per_tick =
            Option.value bw ~default:c.Wal.bandwidth_bytes_per_tick;
          capacity_per_node =
            (match cap with Some _ -> cap | None -> c.Wal.capacity_per_node);
        } )

let app_arg =
  let doc =
    "Application configuration (see $(b,list)), or a workload spec: \
     $(b,wl:)$(i,SPEC) compiles the workload-DSL spec inline and \
     $(b,@)$(i,FILE.wl) reads the spec from a file."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let workload_arg =
  let doc =
    "Run a workload-DSL spec instead of a catalogued application \
     (equivalent to passing $(b,wl:)$(i,SPEC) as $(i,APP)); $(b,@)\
     $(i,FILE.wl) reads the spec from a file.  See the DSL grammar in \
     DESIGN.md."
  in
  Arg.(
    value & opt (some string) None & info [ "w"; "workload" ] ~docv:"SPEC" ~doc)

(* A workload spec compiled to a synthetic registry entry; [@file.wl]
   indirects through a file, its basename naming the workload. *)
let workload_entry spec =
  let ( let* ) = Result.bind in
  let* name, spec =
    if String.length spec > 0 && spec.[0] = '@' then begin
      let path = String.sub spec 1 (String.length spec - 1) in
      match In_channel.with_open_text path In_channel.input_all with
      | contents ->
        Ok (Filename.remove_extension (Filename.basename path), contents)
      | exception Sys_error msg -> Error msg
    end
    else Ok ("spec", spec)
  in
  let* w = Workload.of_string ~name spec in
  Ok (Wl_compile.entry w)

let find_app ?workload app =
  match (workload, app) with
  | Some spec, None -> workload_entry spec
  | None, Some name ->
    if String.length name > 3 && String.lowercase_ascii (String.sub name 0 3) = "wl:"
    then workload_entry (String.sub name 3 (String.length name - 3))
    else if String.length name > 0 && name.[0] = '@' then workload_entry name
    else (
      match Registry.find name with
      | Some e -> Ok e
      | None ->
        Error
          (Printf.sprintf "unknown configuration %S; try `hpcfs_analyze list'"
             name))
  | Some _, Some _ -> Error "give either APP or --workload, not both"
  | None, None -> Error "missing APP argument (or --workload SPEC)"

let exits_of_result = function
  | Ok () -> ()
  | Error msg ->
    prerr_endline msg;
    exit 1

(* An output file the user named: an unwritable path is reported like any
   other error (exit 1), with the message naming the path. *)
let write_file write =
  match write () with () -> Ok () | exception Sys_error msg -> Error msg

(* observability ------------------------------------------------------------ *)

let obs_arg =
  let doc =
    "Record telemetry for the run and write it into $(docv): a Chrome \
     trace-event file ($(b,trace.json), openable in Perfetto), a metrics \
     snapshot ($(b,metrics.prom), $(b,metrics.csv)) and a Darshan-style \
     per-application I/O report ($(b,io_report.txt))."
  in
  Arg.(value & opt (some string) None & info [ "obs" ] ~docv:"DIR" ~doc)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Run [f] with a fresh sink installed when [--obs] was given; [f] receives
   the sink so it can export after the run. *)
let with_obs obs_dir f =
  match obs_dir with
  | None -> f None
  | Some dir ->
    let sink = Obs.create () in
    Obs.with_sink sink (fun () -> f (Some (dir, sink)))

let pfs_extra (s : Pfs.stats) =
  ( "PFS statistics",
    [
      ("reads", string_of_int s.Pfs.reads);
      ("writes", string_of_int s.Pfs.writes);
      ("bytes_read", string_of_int s.Pfs.bytes_read);
      ("bytes_written", string_of_int s.Pfs.bytes_written);
      ("stale_reads", string_of_int s.Pfs.stale_reads);
      ("stale_bytes", string_of_int s.Pfs.stale_bytes);
      ("lock_acquisitions", string_of_int s.Pfs.locks.Lockmgr.acquisitions);
      ("lock_revocations", string_of_int s.Pfs.locks.Lockmgr.revocations);
      ("lock_messages", string_of_int s.Pfs.locks.Lockmgr.messages);
      ("lock_hits", string_of_int s.Pfs.locks.Lockmgr.hits);
    ] )

let tier_extra t =
  let s = Tier.stats t in
  let c = s.Tier.core in
  ( Printf.sprintf "Burst-buffer tier (%s)" (Drain.name (Tier.config t).Tier.policy),
    [
      ("writes", string_of_int c.writes);
      ("reads", string_of_int c.reads);
      ("bytes_written", string_of_int c.bytes_written);
      ("bytes_read", string_of_int c.bytes_read);
      ("staged_bytes", string_of_int c.staged_bytes);
      ("drained_bytes", string_of_int c.drained_bytes);
      ("stage_in_bytes", string_of_int s.Tier.stage_in_bytes);
      ("stage_out_bytes", string_of_int s.Tier.stage_out_bytes);
      ("cache_hits", string_of_int s.Tier.cache_hits);
      ("cache_misses", string_of_int s.Tier.cache_misses);
      ("drain_stalls", string_of_int c.stalls);
      ("stalled_bytes", string_of_int c.stalled_bytes);
      ("peak_occupancy", string_of_int c.peak_occupancy);
      ("stale_reads", string_of_int c.stale_reads);
    ] )

let wal_extra w =
  let s = Wal.stats w in
  let c = s.Wal.core in
  ( Printf.sprintf "Write-ahead log tier (%d B/tick replay)"
      (Wal.config w).Wal.bandwidth_bytes_per_tick,
    [
      ("writes", string_of_int c.writes);
      ("reads", string_of_int c.reads);
      ("bytes_written", string_of_int c.bytes_written);
      ("bytes_read", string_of_int c.bytes_read);
      ("appended_bytes", string_of_int c.staged_bytes);
      ("drained_bytes", string_of_int c.drained_bytes);
      ("flushes", string_of_int s.Wal.flushes);
      ("stalls", string_of_int c.stalls);
      ("stalled_bytes", string_of_int c.stalled_bytes);
      ("peak_occupancy", string_of_int c.peak_occupancy);
      ("stale_reads", string_of_int c.stale_reads);
      ("writethrough_writes", string_of_int s.Wal.writethrough_writes);
      ("log_faults", string_of_int c.faults);
    ] )

let md_extra (s : Md.stats) =
  ( Printf.sprintf "Metadata service (%d shards)"
      (List.length s.Md.shard_ops),
    [
      ("server_ops", string_of_int s.Md.server_ops);
      ("shard_ops", String.concat "/" (List.map string_of_int s.Md.shard_ops));
      ("makespan", string_of_int (Md.makespan s));
      ("cache_hits", string_of_int s.Md.cache_hits);
      ("cache_misses", string_of_int s.Md.cache_misses);
      ("hit_ratio", Printf.sprintf "%.3f" (Md.hit_ratio s));
      ("stale_stats", string_of_int s.Md.stale_stats);
      ("stale_dents", string_of_int s.Md.stale_dents);
      ("revalidations", string_of_int s.Md.revalidations);
      ("invalidations", string_of_int s.Md.invalidations);
      ("rejected", string_of_int s.Md.rejected);
    ] )

let result_extras (result : Runner.result) =
  pfs_extra result.Runner.stats
  :: md_extra result.Runner.md
  :: (match result.Runner.tier with
     | Some t -> [ tier_extra t ]
     | None -> [])
  @ (match result.Runner.wal with
    | Some w -> [ wal_extra w ]
    | None -> [])

(* Write everything [--obs DIR] promises.  [records] feeds both the
   per-rank trace tracks and the I/O report. *)
let save_obs ~dir ~app ~nprocs ?(extra = []) ~records sink =
  let extra =
    extra
    @ (match App_report.extent_section sink with Some s -> [ s ] | None -> [])
    @ (match App_report.codec_section sink with Some s -> [ s ] | None -> [])
  in
  mkdir_p dir;
  Export_chrome.save ~path:(Filename.concat dir "trace.json") ~records sink;
  Export_metrics.save ~dir sink;
  App_report.save
    ~path:(Filename.concat dir "io_report.txt")
    ~app ~nprocs ~extra records;
  Printf.printf
    "telemetry written to %s (trace.json, metrics.prom, metrics.csv, \
     io_report.txt)\n"
    dir

(* list --------------------------------------------------------------------- *)

let conflicts_cell = function
  | None -> "-"
  | Some c when c = Registry.no_conflicts -> "clean"
  | Some c ->
    [
      (c.Registry.waw_s, "WAWs");
      (c.Registry.waw_d, "WAWd");
      (c.Registry.raw_s, "RAWs");
      (c.Registry.raw_d, "RAWd");
    ]
    |> List.filter_map (fun (set, name) -> if set then Some name else None)
    |> String.concat ","

let meta_arg =
  let doc =
    "Append metadata-operation columns — total monitored metadata calls \
     and the hottest operation, measured by running each configuration on \
     8 ranks — and include the metadata-storm models in the listing."
  in
  Arg.(value & flag & info [ "meta" ] ~doc)

let meta_cells e =
  let result = Runner.run ~nprocs:8 e.Registry.body in
  let counts = Metadata_report.inventory_counts result.Runner.records in
  let top =
    match
      List.sort (fun (_, a) (_, b) -> compare (b : int) a) counts
    with
    | (op, n) :: _ -> Printf.sprintf "%s x%d" op n
    | [] -> "-"
  in
  [ string_of_int (Metadata_report.total counts); top ]

let list_cmd =
  let run meta =
    let entries =
      if meta then Registry.all @ Registry.storm_entries else Registry.all
    in
    let t =
      Table.create
        ([ "Configuration"; "I/O library"; "Table 3"; "Table 4"; "Description" ]
        @ if meta then [ "Meta calls"; "Hottest op" ] else [])
    in
    List.iter
      (fun e ->
        Table.add_row t
          ([
             Registry.label e;
             e.Registry.io_lib;
             e.Registry.expected_xy ^ " " ^ e.Registry.expected_structure;
             conflicts_cell e.Registry.expected_conflicts;
             e.Registry.description;
           ]
          @ if meta then meta_cells e else []))
      entries;
    Table.print t;
    Printf.printf
      "%d configurations (Table 4 column: expected conflict classes under \
       session semantics).\n\
       Anywhere APP is accepted, wl:SPEC or @FILE.wl runs a workload-DSL \
       spec instead;\n\
       try `hpcfs_analyze run --workload \
       \"write:layout=shared,pattern=strided\"'.\n"
      (List.length entries)
  in
  let doc = "List the application configurations of the study." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ meta_arg)

(* run ---------------------------------------------------------------------- *)

let trace_arg =
  let doc = "Write the captured trace to $(docv)." in
  Arg.(value & opt (some string) None & info [ "t"; "trace" ] ~docv:"FILE" ~doc)

let format_conv =
  Arg.enum [ ("text", Tracefile.Text); ("binary", Tracefile.Binary) ]

let format_arg =
  let doc =
    "Trace format for $(b,--trace): $(b,text) (v1, line-oriented) or \
     $(b,binary) (v2, compact chunked encoding)."
  in
  Arg.(value & opt format_conv Tracefile.Text & info [ "format" ] ~docv:"FMT" ~doc)

let run_cmd =
  let run app workload ranks trace_path format tier ranks_per_node mds_shards
      obs_dir =
    exits_of_result
      (let ( let* ) = Result.bind in
       let* entry = find_app ?workload app in
       let tier, wal = tier_config tier ranks_per_node in
       with_obs obs_dir @@ fun obs ->
       let result =
         Runner.run ~nprocs:ranks ?tier ?wal ~mds_shards entry.Registry.body
       in
       Printf.printf "ran %s on %d ranks: %d trace records\n"
         (Registry.label entry) ranks
         (List.length result.Runner.records);
       Option.iter
         (fun t ->
           Format.printf "burst-buffer tier (%s):@.%a@."
             (Drain.name (Tier.config t).Tier.policy)
             Tier.pp_stats (Tier.stats t))
         result.Runner.tier;
       Option.iter
         (fun w ->
           Format.printf "write-ahead log tier (%d B/tick replay):@.%a@."
             (Wal.config w).Wal.bandwidth_bytes_per_tick
             Wal.pp_stats (Wal.stats w))
         result.Runner.wal;
       let* () =
         match trace_path with
         | Some path ->
           let* () =
             write_file (fun () ->
                 Tracefile.save ~format path result.Runner.records)
           in
           Printf.printf "trace written to %s\n" path;
           Ok ()
         | None ->
           let report = Report.analyze ~nprocs:ranks result.Runner.records in
           Report.pp_digest Format.std_formatter report;
           Ok ()
       in
       Option.iter
         (fun (dir, sink) ->
           save_obs ~dir ~app:(Registry.label entry) ~nprocs:ranks
             ~extra:(result_extras result) ~records:result.Runner.records
             sink)
         obs;
       Ok ())
  in
  let doc = "Run an application model and capture (or analyze) its trace." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ app_arg $ workload_arg $ ranks_arg $ trace_arg $ format_arg
      $ tier_arg $ ranks_per_node_arg $ mds_shards_arg $ obs_arg)

(* analyze ------------------------------------------------------------------ *)

let file_arg =
  let doc = "Trace file produced by $(b,run --trace)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let ranks_opt_arg =
  let doc =
    "Number of simulated MPI ranks.  When omitted, inferred from the trace \
     (highest rank seen + 1)."
  in
  Arg.(
    value & opt (some positive_int) None & info [ "r"; "ranks" ] ~docv:"N" ~doc)

let analyze_cmd =
  (* Streaming path: records go straight from the reader into the analysis
     accumulators, so memory scales with the resolved data accesses, not
     with the trace length (a binary trace never exists as a record list). *)
  let run path ranks =
    exits_of_result
      (let stream = Report.stream ?nprocs:ranks () in
       match Tracefile.iter path ~f:(Report.feed stream) with
       | Error e -> Error e
       | Ok _ -> (
         match Report.check_ranks stream with
         | Error e -> Error (Printf.sprintf "%s: %s" path e)
         | Ok () ->
           let report = Report.finish stream in
           if ranks = None then
             Printf.printf "ranks inferred from trace: %d\n"
               report.Report.nprocs;
           Report.pp_digest Format.std_formatter report;
           Ok ()))
  in
  let doc = "Analyze a saved trace: patterns, conflicts, recommendation." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file_arg $ ranks_opt_arg)

(* convert ------------------------------------------------------------------ *)

let convert_cmd =
  let src_arg =
    let doc = "Trace file to convert (text or binary, auto-detected)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SRC" ~doc)
  in
  let dst_arg =
    let doc = "Output trace file." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DST" ~doc)
  in
  let target_arg =
    let doc =
      "Target format, $(b,text) or $(b,binary); defaults to the opposite of \
       the source format."
    in
    Arg.(value & opt (some format_conv) None & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run src dst target =
    exits_of_result
      (let ( let* ) = Result.bind in
       let* src_format = Tracefile.detect_format src in
       let target =
         match target with
         | Some f -> f
         | None -> (
           match src_format with
           | Tracefile.Text -> Tracefile.Binary
           | Tracefile.Binary -> Tracefile.Text)
       in
       let* n = Tracefile.convert ~src ~dst target in
       Printf.printf "converted %d records: %s (%s) -> %s (%s)\n" n src
         (Tracefile.format_name src_format)
         dst
         (Tracefile.format_name target);
       Ok ())
  in
  let doc =
    "Convert a trace between the text (v1) and binary (v2) formats, \
     streaming record by record."
  in
  Cmd.v (Cmd.info "convert" ~doc)
    Term.(const run $ src_arg $ dst_arg $ target_arg)

(* conflicts ---------------------------------------------------------------- *)

let model_conv =
  Arg.enum
    [ ("session", Conflict.Session_semantics);
      ("commit", Conflict.Commit_semantics) ]

let semantics_arg =
  let doc = "Consistency model to test: $(b,session) or $(b,commit)." in
  Arg.(value
       & opt model_conv Conflict.Session_semantics
       & info [ "s"; "semantics" ] ~docv:"MODEL" ~doc)

let conflicts_cmd =
  let run app workload ranks mds_shards semantics =
    exits_of_result
      (Result.map
         (fun entry ->
           let result =
             Runner.run ~nprocs:ranks ~mds_shards entry.Registry.body
           in
           let accesses =
             (Offsets.resolve result.Runner.records).Offsets.accesses
           in
           let conflicts =
             Conflict.of_pairs semantics (Overlap.detect accesses)
           in
           if conflicts = [] then print_endline "no conflicts detected"
           else begin
             let t =
               Table.create
                 [ "kind"; "scope"; "file"; "range"; "writer@t"; "second@t" ]
             in
             List.iter
               (fun c ->
                 let a = c.Conflict.first and b = c.Conflict.second in
                 Table.add_row t
                   [
                     Conflict.kind_name c.Conflict.kind;
                     Conflict.scope_name c.Conflict.scope;
                     a.Access.file;
                     Format.asprintf "%a" Hpcfs_util.Interval.pp a.Access.iv;
                     Printf.sprintf "r%d@%d" a.Access.rank a.Access.time;
                     Printf.sprintf "r%d@%d" b.Access.rank b.Access.time;
                   ])
               conflicts;
             Table.print t;
             Printf.printf "%d conflicts\n" (List.length conflicts)
           end)
         (find_app ?workload app))
  in
  let doc = "List every detected conflict pair of a configuration." in
  Cmd.v
    (Cmd.info "conflicts" ~doc)
    Term.(
      const run $ app_arg $ workload_arg $ ranks_arg $ mds_shards_arg
      $ semantics_arg)

(* profile -------------------------------------------------------------------- *)

let profile_cmd =
  let run app workload ranks mds_shards =
    exits_of_result
      (Result.map
         (fun entry ->
           let result =
             Runner.run ~nprocs:ranks ~mds_shards entry.Registry.body
           in
           let profile = Hpcfs_core.Profile.build result.Runner.records in
           Hpcfs_core.Profile.pp Format.std_formatter profile)
         (find_app ?workload app))
  in
  let doc =
    "Detailed I/O profile of a run: call counters, size histogram, per-file \
     activity and conflicts."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ app_arg $ workload_arg $ ranks_arg $ mds_shards_arg)

(* validate ------------------------------------------------------------------ *)

let validate_cmd =
  let run app workload ranks tier ranks_per_node obs_dir =
    exits_of_result
      (Result.map
         (fun entry ->
           let tier, wal = tier_config tier ranks_per_node in
           Option.iter
             (fun c ->
               Format.printf "burst-buffer tier: %a, %d ranks/node@."
                 Drain.pp c.Tier.policy c.Tier.ranks_per_node)
             tier;
           Option.iter
             (fun c ->
               Format.printf
                 "write-ahead log tier: %d B/tick replay, %d ranks/node%s@."
                 c.Wal.bandwidth_bytes_per_tick c.Wal.ranks_per_node
                 (match c.Wal.capacity_per_node with
                 | Some b -> Printf.sprintf ", %d B/node log" b
                 | None -> ""))
             wal;
           with_obs obs_dir @@ fun obs ->
           let outcomes =
             Validation.validate ~nprocs:ranks ?tier ?wal entry.Registry.body
           in
           let t =
             Table.create
               [ "semantics"; "stale reads"; "corrupted files"; "verdict" ]
           in
           List.iter
             (fun o ->
               Table.add_row t
                 [
                   Consistency.name o.Validation.semantics;
                   string_of_int o.Validation.stale_reads;
                   Printf.sprintf "%d/%d" o.Validation.corrupted_files
                     o.Validation.files;
                   (if Validation.correct o then "correct" else "INCORRECT");
                 ])
             outcomes;
           Table.print t;
           (* No single run's records represent a validation (it runs the
              body once per semantics model), so only the span trace and
              the metrics snapshot are exported. *)
           Option.iter
             (fun (dir, sink) ->
               mkdir_p dir;
               Export_chrome.save
                 ~path:(Filename.concat dir "trace.json")
                 sink;
               Export_metrics.save ~dir sink;
               Printf.printf
                 "telemetry written to %s (trace.json, metrics.prom, \
                  metrics.csv)\n"
                 dir)
             obs)
         (find_app ?workload app))
  in
  let doc =
    "Run a configuration under each consistency model on the PFS simulator \
     and compare against strong consistency, optionally through a \
     burst-buffer tier."
  in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(
      const run $ app_arg $ workload_arg $ ranks_arg $ tier_arg
      $ ranks_per_node_arg $ obs_arg)

(* faults --------------------------------------------------------------------- *)

module Fault_plan = Hpcfs_fault.Plan
module Fault_report = Hpcfs_fault.Report

let plan_arg =
  let doc =
    "Fault plan, a $(b,;)-separated list of events: \
     $(b,crash:rank=R,io=N[,restart=D]) kills rank R on its N-th I/O call \
     (restarting D ticks later when $(b,restart) is given), \
     $(b,crash:rank=R,t=T[,restart=D]) kills it at logical time T, \
     $(b,drainfail:count=K[,node=N][,after=T]) makes the next K \
     burst-buffer drain attempts fail transiently, \
     $(b,ostfail:target=K,t=T[,recover=D][,failover=1]) fails storage \
     target K at time T (recovering D ticks later; with $(b,failover) a \
     standby replica keeps serving it), $(b,mdsfail:t=T[,recover=D]) \
     fails the metadata server, \
     $(b,logfail:count=K[,node=N][,after=T]) makes the next K write-ahead \
     log append attempts fail transiently (with $(b,--tier wal)), and \
     $(b,logcap:bytes=B) (shorthand $(b,logcap=B)) caps every node's log \
     at B bytes."
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "p"; "plan" ] ~docv:"SPEC" ~doc)

let plan_seed_arg =
  let doc = "Seed of the plan's PRNG (tearing, backoff jitter)." in
  Arg.(value & opt int 42 & info [ "plan-seed" ] ~docv:"SEED" ~doc)

let sem_list_arg =
  let doc =
    "Comma-separated consistency engines to compare: $(b,strong), \
     $(b,commit), $(b,session), $(b,eventual) (default visibility delay) \
     or $(b,eventual:delay=N)."
  in
  Arg.(
    value
    & opt string "strong,commit,session"
    & info [ "s"; "semantics" ] ~docv:"LIST" ~doc)

let csv_arg =
  let doc = "Also write the report as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let faults_cmd =
  let run app workload ranks plan_spec plan_seed sem_spec tier ranks_per_node
      csv_path obs_dir =
    exits_of_result
      (let ( let* ) = Result.bind in
       let* entry = find_app ?workload app in
       let* plan = Fault_plan.of_string ~seed:plan_seed plan_spec in
       let* semantics = Consistency.list_of_string sem_spec in
       let tier, wal = tier_config tier ranks_per_node in
       with_obs obs_dir @@ fun obs ->
       let* rows =
         match
           Validation.crash_report ~nprocs:ranks ~semantics ?tier ?wal
             ~app:(Registry.label entry) ~plan entry.Registry.body
         with
         | rows -> Ok rows
         | exception Fault_plan.Invalid msg -> Error msg
       in
       Format.printf "fault plan: %a (seed %d)@.@." Fault_plan.pp plan
         plan_seed;
       Fault_report.pp Format.std_formatter rows;
       let* () =
         match csv_path with
         | Some path ->
           let* () =
             write_file (fun () ->
                 Out_channel.with_open_text path (fun oc ->
                     output_string oc (Fault_report.to_csv rows)))
           in
           Printf.printf "\nreport written to %s\n" path;
           Ok ()
         | None -> Ok ()
       in
       Option.iter
         (fun (dir, sink) ->
           mkdir_p dir;
           Export_chrome.save ~path:(Filename.concat dir "trace.json") sink;
           Export_metrics.save ~dir sink;
           Printf.printf
             "telemetry written to %s (trace.json, metrics.prom, metrics.csv)\n"
             dir)
         obs;
       Ok ())
  in
  let doc =
    "Inject a fault plan into a configuration under each consistency engine \
     and report the crash-consistency outcome: bytes lost or torn at the \
     crash, burst-buffer bytes lost with the victim node, and whether the \
     recovered files match a fault-free reference.  Plans with storage \
     failures ($(b,ostfail)/$(b,mdsfail)) add columns for target failures, \
     journal-replayed bytes, unreplayable bytes, and fsck verdicts; runs \
     through $(b,--tier wal) add columns for injected log faults and the \
     log's recovered/lost/torn bytes."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ app_arg $ workload_arg $ ranks_arg $ plan_arg $ plan_seed_arg
      $ sem_list_arg $ tier_arg $ ranks_per_node_arg $ csv_arg $ obs_arg)

(* stats ---------------------------------------------------------------------- *)

let stats_cmd =
  let run app workload ranks tier ranks_per_node mds_shards trace_path format
      obs_dir =
    exits_of_result
      (let ( let* ) = Result.bind in
       let* entry = find_app ?workload app in
       let tier, wal = tier_config tier ranks_per_node in
       let sink = Obs.create () in
       let result, saved =
         Obs.with_sink sink (fun () ->
             let result =
               Runner.run ~nprocs:ranks ?tier ?wal ~mds_shards
                 entry.Registry.body
             in
             ignore (Report.analyze ~nprocs:ranks result.Runner.records);
             (* Saved inside the sink's scope so the codec's
                [trace.codec.*] counters land in the registry below. *)
             let saved =
               match trace_path with
               | Some path ->
                 write_file (fun () ->
                     Tracefile.save ~format path result.Runner.records)
               | None -> Ok ()
             in
             (result, saved))
       in
       let* () = saved in
       Option.iter (Printf.printf "trace written to %s\n") trace_path;
       let spans = Obs.span_summary sink in
       if spans <> [] then begin
         let t = Table.create [ "span"; "calls"; "ticks"; "wall (s)" ] in
         List.iter
           (fun (name, calls, ticks, wall) ->
             Table.add_row t
               [
                 name;
                 string_of_int calls;
                 string_of_int ticks;
                 Printf.sprintf "%.6f" wall;
               ])
           spans;
         Table.print t;
         print_newline ()
       end;
       (* Per-operation metadata counts from the trace, then the
          metadata service's own accounting (shards, cache). *)
       let counts = Metadata_report.inventory_counts result.Runner.records in
       if counts <> [] then begin
         let t = Table.create [ "metadata op"; "calls" ] in
         List.iter
           (fun (op, n) -> Table.add_row t [ op; string_of_int n ])
           counts;
         Table.add_row t
           [ "total"; string_of_int (Metadata_report.total counts) ];
         Table.print t;
         print_newline ()
       end;
       let md = result.Runner.md in
       Printf.printf
         "metadata service : %d server ops on %d shard(s), makespan %d \
          (server %d, clients %d)\n\
          stat cache       : %d hits, %d misses (ratio %.3f), %d stale \
          stats, %d stale dirlists\n\n"
         md.Md.server_ops
         (List.length md.Md.shard_ops)
         (Md.makespan md) md.Md.server_makespan md.Md.client_makespan
         md.Md.cache_hits md.Md.cache_misses (Md.hit_ratio md)
         md.Md.stale_stats md.Md.stale_dents;
       print_string (Export_metrics.to_prometheus sink);
       Option.iter
         (fun dir ->
           save_obs ~dir ~app:(Registry.label entry) ~nprocs:ranks
             ~extra:(result_extras result) ~records:result.Runner.records
             sink)
         obs_dir;
       Ok ())
  in
  let doc =
    "Run a configuration with telemetry enabled and print the metric \
     registry (Prometheus text) plus a per-span timing summary."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ app_arg $ workload_arg $ ranks_arg $ tier_arg
      $ ranks_per_node_arg $ mds_shards_arg $ trace_arg $ format_arg $ obs_arg)

(* main ----------------------------------------------------------------------- *)

let () =
  let doc =
    "consistency-semantics requirements analysis for HPC applications \
     (reproduction of Wang, Mohror & Snir, HPDC'21)"
  in
  let info = Cmd.info "hpcfs_analyze" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            analyze_cmd;
            convert_cmd;
            conflicts_cmd;
            profile_cmd;
            validate_cmd;
            faults_cmd;
            stats_cmd;
          ]))
