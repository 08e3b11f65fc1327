(* End-to-end benchmark of the simulator: six workloads driven through the
   library's public entry points (Runner.run, Validation.validate, the
   binary trace codec and the streaming analyzer), every output checked,
   host time reported end to end and, in a separate traced pass, split
   across the layers of the I/O stack by timing calls from outside the
   library.  README.md in this directory lists the workloads, the metrics
   and the run protocol.

   Run protocol: a closed loop with one client.  The parent re-executes
   this program once per pass, one child at a time, because a second
   simulation in the same process runs measurably slower while the first
   one's heap is still live.  A child sets up its workload's inputs, says
   "ready" (the parent's clock for setup_s stops there), runs the legs in a
   fixed order with an untimed Gc.compact and calibration loop around
   them, checks every output, and sends its report back as one marshalled
   value. *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Consistency = Hpcfs_fs.Consistency
module Backend = Hpcfs_fs.Backend
module Posix = Hpcfs_posix.Posix
module Mpiio = Hpcfs_mpiio.Mpiio
module Record = Hpcfs_trace.Record
module Codec = Hpcfs_trace.Codec
module Tracefile = Hpcfs_trace.Tracefile
module Report = Hpcfs_core.Report
module Conflict = Hpcfs_core.Conflict
module Tier = Hpcfs_bb.Tier
module Wal = Hpcfs_wal.Wal
module Md = Hpcfs_md.Service
module Obs = Hpcfs_obs.Obs
module Export_chrome = Hpcfs_obs.Export_chrome
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let out_dir = Filename.concat "bench_out" "e2e"

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let work_path name =
  let dir = Filename.concat out_dir "work" in
  ensure_dir dir;
  Filename.concat dir name

(* Result rows ------------------------------------------------------------- *)

(* Every file this benchmark writes is a list of rows: a name plus
   (key, value, unit) triples, written by [write_rows] alone. *)
type row = { name : string; values : (string * float * string) list }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* [context] is repeated in every row so a row read on its own still says
   under which seed, sample count, host and compiler it was measured. *)
let write_rows path ~context rows =
  ensure_dir (Filename.dirname path);
  let oc = open_out path in
  let ctx =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf ", %s: %s" (json_string k) v)
         context)
  in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      let values =
        List.map
          (fun (k, v, u) ->
            Printf.sprintf "{\"key\": %s, \"value\": %s, \"unit\": %s}"
              (json_string k) (json_number v) (json_string u))
          r.values
      in
      Printf.fprintf oc "  {\"name\": %s%s, \"metrics\": [%s]}%s\n"
        (json_string r.name) ctx
        (String.concat ", " values)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

(* Workload plumbing ------------------------------------------------------- *)

(* What a leg's untimed check returns: the digest a traced rerun must
   reproduce, the failed checks, and counts for the per-layer report. *)
type verdict = {
  digest : string;
  errors : string list;
  extra : (string * float) list;
}

type leg = {
  leg : string;
  units : int;  (** Checked units: one per leg, or one per config x engine. *)
  run : unit -> unit -> verdict;
      (** The timed part; the closure it returns is the untimed check. *)
}

type plan = { legs : leg list; final : unit -> string list }

type workload = {
  name : string;
  why : string;
  setup : seed:int -> plan;
}

(* Layer timing from outside the library ---------------------------------- *)

let traced = ref false

type acc = { mutable calls : int; mutable secs : float }

let b_write = { calls = 0; secs = 0. }
let b_read = { calls = 0; secs = 0. }
let b_meta = { calls = 0; secs = 0. }
let feed_acc = { calls = 0; secs = 0. }

let reset_accs () =
  List.iter
    (fun a ->
      a.calls <- 0;
      a.secs <- 0.)
    [ b_write; b_read; b_meta; feed_acc ]

let timed a f =
  let t0 = now_s () in
  let stop () =
    a.calls <- a.calls + 1;
    a.secs <- a.secs +. (now_s () -. t0)
  in
  match f () with
  | v ->
    stop ();
    v
  | exception e ->
    stop ();
    raise e

let timed_backend (b : Backend.t) =
  {
    b with
    Backend.open_file =
      (fun ~time ~rank ~create ~trunc path ->
        timed b_meta (fun () -> b.open_file ~time ~rank ~create ~trunc path));
    close_file =
      (fun ~time ~rank path ->
        timed b_meta (fun () -> b.close_file ~time ~rank path));
    read =
      (fun ~time ~rank path ~off ~len ->
        timed b_read (fun () -> b.read ~time ~rank path ~off ~len));
    write =
      (fun ~time ~rank path ~off data ->
        timed b_write (fun () -> b.write ~time ~rank path ~off data));
    fsync =
      (fun ~time ~rank path ->
        timed b_meta (fun () -> b.fsync ~time ~rank path));
    truncate =
      (fun ~time path n -> timed b_meta (fun () -> b.truncate ~time path n));
    file_size = (fun path -> timed b_meta (fun () -> b.file_size path));
  }

(* The rank body handed to the runner, rebuilt over a timed backend on the
   first entry of each run (keyed on the run's physical POSIX context, so
   the several runs of one validation each get their own).  Metadata
   service, collector and aggregator count are the run's own, so the trace
   is the one the plain body produces. *)
let instrument body =
  let current = ref None in
  fun (env : Runner.env) ->
    let env =
      match !current with
      | Some (posix, env') when posix == env.Runner.posix -> env'
      | _ ->
        let posix =
          Posix.make_ctx_backend ~mds:(Posix.mds env.Runner.posix)
            (timed_backend (Posix.backend env.Runner.posix))
            (Posix.collector env.Runner.posix)
        in
        let env' =
          {
            env with
            Runner.posix;
            mpiio = Mpiio.make_ctx ~cb_nodes:6 posix env.Runner.comm;
          }
        in
        current := Some (env.Runner.posix, env');
        env'
    in
    body env

let body_of body = if !traced then instrument body else body

(* Without a sink installed Obs.span is exactly the callback, so the
   untraced pass runs the bare calls. *)
let run_app ?semantics ?mds_shards ?tier ?wal ~nprocs ~seed body =
  Obs.span Obs.T_core "e2e.run" (fun () ->
      Runner.run ?semantics ?mds_shards ?tier ?wal ~nprocs ~seed (body_of body))

let validate ~nprocs ~semantics body =
  Obs.span Obs.T_core "e2e.validate" (fun () ->
      Validation.validate ~nprocs ~semantics (body_of body))

let feed stream =
  if !traced then fun r -> timed feed_acc (fun () -> Report.feed stream r)
  else Report.feed stream

(* Digests and checks ------------------------------------------------------- *)

let hex s = Digest.to_hex (Digest.string s)

let trace_digest records =
  let b = Buffer.create 65536 in
  List.iter
    (fun r ->
      Buffer.add_string b (Record.to_line r);
      Buffer.add_char b '\n')
    records;
  hex (Buffer.contents b)

let files_digest result =
  Validation.final_digests result
  |> List.map (fun (path, d) -> path ^ " " ^ Digest.to_hex d)
  |> String.concat "\n" |> hex

let record_counts records =
  let posix = ref 0 and mpiio = ref 0 and hdf5 = ref 0 in
  List.iter
    (fun r ->
      match r.Record.layer with
      | Record.L_posix -> incr posix
      | Record.L_mpiio -> incr mpiio
      | Record.L_hdf5 -> incr hdf5)
    records;
  [
    ("trace.records", float_of_int (!posix + !mpiio + !hdf5));
    ("trace.records.posix", float_of_int !posix);
    ("trace.records.mpiio", float_of_int !mpiio);
    ("trace.records.hdf5", float_of_int !hdf5);
  ]

let all_equal what = function
  | [] -> []
  | (l0, d0) :: rest ->
    List.filter_map
      (fun (l, d) ->
        if d = d0 then None
        else Some (Printf.sprintf "%s: %s differs from %s" what l l0))
      rest

(* One leg = one Runner.run; its check digests the trace and the final file
   contents, and notes the latter under the leg's label for cross-leg
   comparisons. *)
let run_leg ?(check = fun _ -> []) ~files label f =
  {
    leg = label;
    units = 1;
    run =
      (fun () ->
        let r = f () in
        fun () ->
          let fd = files_digest r in
          files := (label, fd) :: !files;
          {
            digest = hex (trace_digest r.Runner.records ^ fd);
            errors = check r;
            extra =
              ("md.makespan", float_of_int (Md.makespan r.Runner.md))
              :: record_counts r.Runner.records;
          });
  }

let dsl spec =
  match Workload.of_string spec with
  | Ok w -> Compile.body w
  | Error e -> failwith ("e2e: bad workload spec: " ^ e)

let sem_name = Validation.sem_name

(* The workloads ----------------------------------------------------------- *)

let checkpoint_spec n =
  Printf.sprintf
    "checkpoint:steps=8,every=2,layout=shared,pattern=strided,block=4096,\
     count=%d;barrier;\
     read:layout=shared,pattern=strided,file=ckpt-0001,block=4096,count=%d;\
     read:layout=shared,pattern=random,file=ckpt-0003,block=4096,count=%d"
    n n n

(* ckpt-restart and ckpt-staged run this same checkpoint, so they differ
   only by the staging layer. *)
let checkpoint = checkpoint_spec 256

let live_spec n =
  Printf.sprintf
    "write:layout=shared,pattern=strided,block=4096,count=%d,file=live,\
     sync=none;\
     read:layout=shared,pattern=random,file=live,block=4096,count=%d,\
     sync=none;barrier;\
     write:layout=shared,pattern=strided,block=4096,count=%d,file=live,\
     sync=fsync;\
     read:layout=shared,pattern=random,file=live,block=4096,count=%d"
    n n n n

let fpp_storm_spec =
  "meta:op=create,files=32,layout=fpp;\
   meta:op=create,files=8,layout=shared-dir;barrier;\
   meta:op=stat,files=64,layout=shared-dir;meta:op=stat,files=64,layout=fpp;\
   meta:op=readdir,files=4,layout=fpp;meta:op=rename,files=8,layout=fpp;\
   meta:op=unlink,files=16,layout=fpp"

let conflict_classes (s : Conflict.summary) =
  {
    Registry.waw_s = s.Conflict.waw_s > 0;
    waw_d = s.Conflict.waw_d > 0;
    raw_s = s.Conflict.raw_s > 0;
    raw_d = s.Conflict.raw_d > 0;
  }

(* Only FLASH reads a shared file before its writer closes it, so session
   semantics breaks exactly these two configurations. *)
let session_breaks label = label = "FLASH-fbs" || label = "FLASH-nofbs"

let paper ~seed =
  let nprocs = 16 in
  let entries = Registry.all in
  let traces = ref [] and encoded = ref [] and stream = ref [] in
  let run =
    {
      leg = "run";
      units = List.length entries;
      run =
        (fun () ->
          (* Keep only the traces: 25 live file systems would change the
             heap the later runs allocate in. *)
          let makespan = ref 0 in
          traces :=
            List.map
              (fun e ->
                let r = run_app ~nprocs ~seed e.Registry.body in
                makespan := !makespan + Md.makespan r.Runner.md;
                (e, r.Runner.records))
              entries;
          fun () ->
            {
              digest =
                hex
                  (String.concat ""
                     (List.map (fun (_, rs) -> trace_digest rs) !traces));
              errors = [];
              extra =
                ("md.makespan", float_of_int !makespan)
                :: record_counts (List.concat_map snd !traces);
            });
    }
  in
  let encode =
    {
      leg = "encode";
      units = List.length entries;
      run =
        (fun () ->
          Obs.span Obs.T_core "e2e.encode" (fun () ->
              encoded :=
                List.map
                  (fun (e, records) ->
                    let path = work_path (Registry.label e ^ ".trace") in
                    let oc = open_out_bin path in
                    let enc = Codec.encoder oc in
                    List.iter (Codec.encode enc) records;
                    Codec.finish enc;
                    close_out oc;
                    (e, path, List.length records, Codec.stats enc))
                  !traces);
          traces := [];
          fun () ->
            let sum f =
              float_of_int
                (List.fold_left (fun acc (_, _, _, s) -> acc + f s) 0 !encoded)
            in
            {
              digest =
                hex
                  (String.concat ""
                     (List.map (fun (_, p, _, _) -> Digest.file p) !encoded));
              errors =
                List.filter_map
                  (fun (e, _, n, s) ->
                    if s.Codec.records = n then None
                    else
                      Some
                        (Printf.sprintf "%s: encoded %d of %d records"
                           (Registry.label e) s.Codec.records n))
                  !encoded;
              extra =
                [
                  ("codec.records", sum (fun s -> s.Codec.records));
                  ("codec.bytes", sum (fun s -> s.Codec.bytes));
                ];
            });
    }
  in
  let analyze =
    {
      leg = "analyze";
      units = List.length entries;
      run =
        (fun () ->
          stream :=
            List.map
              (fun (e, path, n, _) ->
                let s = Report.stream ~nprocs () in
                let decoded =
                  Obs.span Obs.T_core "e2e.decode" (fun () ->
                      Tracefile.iter path ~f:(feed s))
                in
                let summary =
                  Obs.span Obs.T_core "e2e.finish" (fun () -> Report.finish s)
                in
                (e, n, decoded, summary))
              !encoded;
          encoded := [];
          fun () ->
            let errors =
              List.concat_map
                (fun (e, n, decoded, summary) ->
                  let label = Registry.label e in
                  (match decoded with
                  | Ok d when d = n -> []
                  | Ok d ->
                    [ Printf.sprintf "%s: decoded %d of %d records" label d n ]
                  | Error msg -> [ label ^ ": " ^ msg ])
                  @
                  match e.Registry.expected_conflicts with
                  | Some expected
                    when conflict_classes summary.Report.session <> expected ->
                    [ label ^ ": Table 4 conflict classes differ" ]
                  | _ -> [])
                !stream
            in
            let digest =
              List.map
                (fun (e, _, _, s) ->
                  let c = s.Report.session and m = s.Report.commit in
                  Printf.sprintf "%s %d %d %d %d %d %d %d %d %d"
                    (Registry.label e) s.Report.record_count c.Conflict.waw_s
                    c.waw_d c.raw_s c.raw_d m.Conflict.waw_s m.waw_d m.raw_s
                    m.raw_d)
                !stream
              |> String.concat "\n" |> hex
            in
            stream := [];
            { digest; errors; extra = [] });
    }
  in
  let engines =
    Consistency.[ Strong; Commit; Session; Eventual { delay = 8 } ]
  in
  let validate_leg =
    {
      leg = "validate";
      units = List.length entries * List.length engines;
      run =
        (fun () ->
          let outcomes =
            List.map
              (fun e ->
                ( Registry.label e,
                  validate ~nprocs ~semantics:engines e.Registry.body ))
              entries
          in
          fun () ->
            let lines =
              List.concat_map
                (fun (label, os) ->
                  List.map
                    (fun o ->
                      ( label,
                        o,
                        Printf.sprintf "%s %s %d %d %d" label
                          (sem_name o.Validation.semantics)
                          o.Validation.stale_reads o.Validation.corrupted_files
                          o.Validation.files ))
                    os)
                outcomes
            in
            let wrong (label, o, _) =
              let ok = Validation.correct o in
              match o.Validation.semantics with
              | Consistency.Strong | Consistency.Commit -> not ok
              | Consistency.Session -> ok = session_breaks label
              | Consistency.Eventual _ -> false
            in
            {
              digest =
                hex (String.concat "\n" (List.map (fun (_, _, l) -> l) lines));
              errors =
                List.filter_map
                  (fun ((_, _, line) as x) ->
                    if wrong x then Some ("unexpected verdict: " ^ line)
                    else None)
                  lines;
              extra = [];
            });
    }
  in
  { legs = [ run; encode; analyze; validate_leg ]; final = (fun () -> []) }

(* Direct-PFS legs under strong, commit and session: every engine must
   leave the same final file contents. *)
let direct ~nprocs ~spec ~seed =
  let body = dsl spec in
  let files = ref [] in
  {
    legs =
      List.map
        (fun semantics ->
          run_leg ~files (sem_name semantics) (fun () ->
              run_app ~semantics ~nprocs ~seed body))
        Consistency.[ Strong; Commit; Session ];
    final = (fun () -> all_equal "final file contents" (List.rev !files));
  }

let ckpt_staged ~nprocs ~spec ~seed =
  let body = dsl spec in
  let files = ref [] in
  let wal_clean r =
    let c = Wal.check (Option.get r.Runner.wal) in
    if
      c.Wal.lost_bytes + c.Wal.torn_bytes + c.Wal.pending_bytes > 0
      || c.Wal.corrupted > 0
    then [ "Wal.check: lost, torn or pending bytes after a fault-free run" ]
    else []
  in
  let engines = Consistency.[ Commit; Session ] in
  {
    legs =
      List.concat_map
        (fun semantics ->
          let label mode = sem_name semantics ^ "/" ^ mode in
          [
            run_leg ~files (label "bb") (fun () ->
                run_app ~semantics ~tier:Tier.default_config ~nprocs ~seed
                  body);
            run_leg ~check:wal_clean ~files (label "wal") (fun () ->
                run_app ~semantics ~wal:Wal.default_config ~nprocs ~seed body);
          ])
        engines;
    final =
      (fun () ->
        List.concat_map
          (fun semantics ->
            let find mode =
              List.assoc (sem_name semantics ^ "/" ^ mode) !files
            in
            all_equal "bb vs wal final file contents"
              [ ("bb", find "bb"); ("wal", find "wal") ])
          engines);
  }

let md_counters () =
  match Obs.installed () with
  | None -> None
  | Some sink ->
    Some
      ( Obs.find_counter sink "md.cache.hits",
        Obs.find_counter sink "md.cache.misses" )

let md_storm ~seed =
  let nprocs = 512 in
  let storm name = (Option.get (Registry.find name)).Registry.body in
  let storms =
    [
      ("compile", storm "Compile-Storm");
      ("loader", storm "DataLoader-Storm");
      ("fpp", dsl fpp_storm_spec);
    ]
  in
  let files = ref [] in
  let leg (name, body) (semantics, mds_shards) =
    let observed = ref None in
    let check r =
      let md = r.Runner.md in
      (if
         semantics = Consistency.Strong
         && md.Md.stale_stats + md.Md.stale_dents > 0
       then [ name ^ ": strong metadata served stale entries" ]
       else [])
      @
      match !observed with
      | Some (Some (h0, m0), Some (h1, m1))
        when h1 - h0 <> md.Md.cache_hits || m1 - m0 <> md.Md.cache_misses ->
        [ name ^ ": obs cache counters disagree with Md.stats" ]
      | _ -> []
    in
    run_leg ~check ~files
      (Printf.sprintf "%s/%s/%d" name (sem_name semantics) mds_shards)
      (fun () ->
        let before = md_counters () in
        let r = run_app ~semantics ~mds_shards ~nprocs ~seed body in
        observed := Some (before, md_counters ());
        r)
  in
  {
    legs =
      List.concat_map
        (fun s ->
          List.map (leg s) Consistency.[ (Strong, 1); (Session, 4) ])
        storms;
    final = (fun () -> []);
  }

(* The paper's 25 traces, replicated: copy k of configuration i moves to
   its own time window and under /c<k>/<label>, so copies share no file
   and the analysis of the whole must be exactly [copies] times that of
   one copy. *)
let trace_analyze ~seed =
  let nprocs = 16 and copies = 20 in
  let base =
    List.mapi
      (fun i e ->
        let r = Runner.run ~nprocs ~seed e.Registry.body in
        (i, Registry.label e, r.Runner.records))
      Registry.all
  in
  let span =
    1
    + List.fold_left
        (fun acc (_, _, rs) ->
          List.fold_left (fun acc r -> max acc r.Record.time) acc rs)
        0 base
  in
  let nconf = List.length base in
  let relabel k (i, label, _) r =
    let prefix f = Printf.sprintf "/c%d/%s%s" k label f in
    {
      r with
      Record.time = r.Record.time + (((k * nconf) + i) * span);
      file = Option.map prefix r.Record.file;
      args =
        List.map
          (fun (key, v) -> if key = "dst" then (key, prefix v) else (key, v))
          r.Record.args;
    }
  in
  let encode_copies path n =
    let oc = open_out_bin path in
    let enc = Codec.encoder oc in
    for k = 0 to n - 1 do
      List.iter
        (fun ((_, _, rs) as b) ->
          List.iter (fun r -> Codec.encode enc (relabel k b r)) rs)
        base
    done;
    Codec.finish enc;
    close_out oc;
    Codec.stats enc
  in
  let base_path = work_path "trace-analyze.base.trace" in
  let one = encode_copies base_path 1 in
  let base_summary =
    let s = Report.stream ~nprocs () in
    ignore (Tracefile.iter base_path ~f:(Report.feed s));
    Report.finish s
  in
  let path = work_path "trace-analyze.trace" in
  let stats = ref one and stream = ref None and decoded = ref (Ok 0) in
  let encode =
    {
      leg = "encode";
      units = 1;
      run =
        (fun () ->
          stats :=
            Obs.span Obs.T_core "e2e.encode" (fun () ->
                encode_copies path copies);
          fun () ->
            let s = !stats in
            {
              digest = Digest.to_hex (Digest.file path);
              errors =
                (if s.Codec.records = copies * one.Codec.records then []
                 else [ "encode: record count is not copies x base" ]);
              extra =
                [
                  ("codec.records", float_of_int s.Codec.records);
                  ("codec.bytes", float_of_int s.Codec.bytes);
                ];
            });
    }
  in
  let decode =
    {
      leg = "decode+feed";
      units = 1;
      run =
        (fun () ->
          let s = Report.stream ~nprocs () in
          decoded :=
            Obs.span Obs.T_core "e2e.decode" (fun () ->
                Tracefile.iter path ~f:(feed s));
          stream := Some s;
          fun () ->
            match !decoded with
            | Ok n ->
              {
                digest = string_of_int n;
                errors =
                  (if n = !stats.Codec.records then []
                   else [ "decode: decoded count differs from encoded count" ]);
                extra = [];
              }
            | Error msg ->
              { digest = ""; errors = [ "decode: " ^ msg ]; extra = [] });
    }
  in
  let finish =
    {
      leg = "finish";
      units = 1;
      run =
        (fun () ->
          let summary =
            Obs.span Obs.T_core "e2e.finish" (fun () ->
                Report.finish (Option.get !stream))
          in
          stream := None;
          fun () ->
            let times (c : Conflict.summary) =
              Conflict.
                {
                  waw_s = copies * c.waw_s;
                  waw_d = copies * c.waw_d;
                  raw_s = copies * c.raw_s;
                  raw_d = copies * c.raw_d;
                }
            in
            let ok =
              summary.Report.record_count
              = copies * base_summary.Report.record_count
              && summary.Report.session = times base_summary.Report.session
              && summary.Report.commit = times base_summary.Report.commit
            in
            let c = summary.Report.session and m = summary.Report.commit in
            {
              digest =
                Printf.sprintf "%d %d %d %d %d %d %d %d %d"
                  summary.Report.record_count c.Conflict.waw_s c.waw_d c.raw_s
                  c.raw_d m.Conflict.waw_s m.waw_d m.raw_s m.raw_d;
              errors =
                (if ok then []
                 else [ "finish: summary is not copies x the base summary" ]);
              extra = [];
            });
    }
  in
  { legs = [ encode; decode; finish ]; final = (fun () -> []) }

let workloads =
  [
    {
      name = "paper";
      why =
        "the paper's experiment: 25 configurations simulated, traced, \
         analyzed and validated under four engines; validation dominates";
      setup = paper;
    };
    {
      name = "ckpt-restart";
      why =
        "N-1 checkpoint plus restart read-back on direct PFS; reads take the \
         extent-store fast path, so the Backend/PFS layer dominates";
      setup = direct ~nprocs:16 ~spec:checkpoint;
    };
    {
      name = "live-read";
      why =
        "readers of a shared file that is open and dirty; under session the \
         reads take the guarded slow path, which strong and commit bypass";
      setup = direct ~nprocs:64 ~spec:(live_spec 48);
    };
    {
      name = "ckpt-staged";
      why =
        "ckpt-restart's checkpoint staged through the burst buffer and the \
         write-ahead log; the staging layer works here and idles in \
         ckpt-restart";
      setup = ckpt_staged ~nprocs:16 ~spec:checkpoint;
    };
    {
      name = "md-storm";
      why =
        "metadata storms at 512 ranks: MDS, client caches and the scheduler \
         with almost no data, so the Backend data path is bypassed";
      setup = md_storm;
    };
    {
      name = "trace-analyze";
      why =
        "offline analysis at scale: replicated paper traces encoded, decoded \
         and stream-analyzed; codec and analysis do the work, no simulation";
      setup = trace_analyze;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "e2e: unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

(* Host-speed calibration --------------------------------------------------- *)

(* A shared host runs this program at speeds up to 2x apart for minutes at
   a time, as its neighbours come and go; no number of passes averages
   that away.  So a pass also times a fixed loop before each leg and after
   the last, and the end-to-end times are scaled to a host on which the
   loop takes [calib_ref_s] (its time on a quiet 2-core Xeon VM): a
   slowdown stretches the loop and the legs alike.

   The loop has two parts, like the simulator's work.  The first computes
   on values that die young, which slows most when a neighbour shares the
   core; the second chases pointers through 64 MiB outside the OCaml heap,
   which waits on DRAM and hardly slows.  Timed against the legs of three
   workloads through slow periods, this mix (about 2:1 in time) moved with
   the legs (elasticity 0.75-0.93), where the first part alone moved 1.5-1.9
   times as much as they did.  Neither part touches the major heap, so the
   workload's heap does not change the loop's time. *)
let calib_ref_s = 0.045

let calib_table = Array.make 4096 0

let chase_words = 1 lsl 23

(* Slot i holds the successor of i under a full-period LCG, so the chase
   visits every slot in an order no prefetcher follows.  Allocating it
   speeds up the next major GC, so make it before a Gc.compact. *)
let chase_table () =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chase_words in
  for i = 0 to chase_words - 1 do
    a.{i} <- ((i * 1103515245) + 12345) land (chase_words - 1)
  done;
  a

let calibrate chase =
  let t0 = now_s () in
  let h = ref 0 in
  for i = 1 to 400_000 do
    let s = Sys.opaque_identity (string_of_int i) in
    let k = i * 40503 land 4095 in
    calib_table.(k) <- calib_table.(k) + String.length s;
    h := !h + Hashtbl.hash s
  done;
  let p = ref 0 in
  for _ = 1 to 100_000 do
    p := chase.{!p}
  done;
  ignore (Sys.opaque_identity (!h + !p));
  now_s () -. t0

(* Child: one pass ---------------------------------------------------------- *)

type leg_report = {
  l_name : string;
  l_secs : float;
  l_digest : string;
  l_layers : (string * float) list;  (** Traced pass only. *)
}

type report = {
  legs : leg_report list;
  calib_s : float;  (** Mean time of the calibration loop over the pass. *)
  heap_mb : float;
  units : int;
  failed : int;
  errors : string list;
  counters : (string * float) list;
      (** Traced pass only: obs counters plus the legs' extra counts. *)
}

let counter_names =
  [
    "sim.steps"; "sim.rounds"; "mpi.sends"; "mpi.collectives"; "mpi.barriers";
    "fs.bytes_written"; "fs.bytes_read"; "fs.stale_reads";
    "fs.extent.fast_reads"; "fs.extent.slow_reads"; "fs.extent.compactions";
    "fs.extent.rebuilds"; "fs.lock.acquisitions"; "fs.lock.revocations";
    "fs.lock.hits"; "bb.writes"; "bb.staged_bytes"; "bb.drained_bytes";
    "bb.stalls"; "bb.cache_hits"; "bb.cache_misses"; "wal.writes";
    "wal.appended_bytes"; "wal.drained_bytes"; "wal.stalls";
    "wal.writethrough"; "md.ops"; "md.cache.hits"; "md.cache.misses";
    "md.cache.stale_stats"; "md.rejected";
  ]

(* Seconds per layer over one leg: spans the benchmark and the library
   recorded inside the leg's wall-clock window, plus the call timers. *)
let leg_layers sink ~w0 ~w1 ~wall =
  let spans =
    List.filter
      (fun sp -> sp.Obs.sp_w0 >= w0 && sp.Obs.sp_w1 <= w1)
      (Obs.spans sink)
  in
  let sum name =
    List.fold_left
      (fun acc sp ->
        if sp.Obs.sp_name = name then acc +. (sp.Obs.sp_w1 -. sp.Obs.sp_w0)
        else acc)
      0. spans
  in
  let run = sum "e2e.run" and validate = sum "e2e.validate" in
  let simulate = sum "simulate" and drain = sum "epilogue-drain" in
  let backend = b_write.secs +. b_read.secs +. b_meta.secs in
  let encode = sum "e2e.encode" and decode = sum "e2e.decode" in
  let finish = sum "e2e.finish" in
  [
    ("wall", wall);
    ("apps.run", run);
    ("apps.validate", validate);
    ("sim.simulate", simulate);
    ("stack.self", run +. validate -. backend -. drain);
    ("backend.write", b_write.secs);
    ("backend.read", b_read.secs);
    ("backend.meta", b_meta.secs);
    ("staging.drain", drain);
    ("codec.encode", encode);
    ("codec.decode", decode -. feed_acc.secs);
    ("core.feed", feed_acc.secs);
    ("core.finish", finish);
    ("covered", run +. validate +. encode +. decode +. finish);
    ("backend.write.calls", float_of_int b_write.calls);
    ("backend.read.calls", float_of_int b_read.calls);
    ("backend.meta.calls", float_of_int b_meta.calls);
  ]

let add_into tbl (k, v) =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let child ~workload ~seed ~trace =
  let w = find_workload workload in
  traced := trace;
  let plan = w.setup ~seed in
  print_string "ready\n";
  flush stdout;
  let sink =
    if trace then begin
      Obs.set_wall_clock now_s;
      let s = Obs.create () in
      Obs.install s;
      Some s
    end
    else None
  in
  let extra = Hashtbl.create 16 in
  let calibs = ref [] and chase = chase_table () in
  let calibrate_now () =
    Gc.compact ();
    calibs := calibrate chase :: !calibs
  in
  let units = ref 0 and failed = ref 0 and errors = ref [] in
  let fail n msgs =
    failed := !failed + n;
    errors := !errors @ msgs
  in
  let legs =
    List.map
      (fun (leg : leg) ->
        calibrate_now ();
        reset_accs ();
        units := !units + leg.units;
        let t0 = now_s () in
        let check =
          try
            Ok
              (Obs.span Obs.T_core ("leg:" ^ leg.leg) (fun () -> leg.run ()))
          with e -> Error (Printexc.to_string e)
        in
        let t1 = now_s () in
        let layers =
          match sink with
          | Some s -> leg_layers s ~w0:t0 ~w1:t1 ~wall:(t1 -. t0)
          | None -> []
        in
        (* Checks read files back through the PFS; keep those reads out of
           the layer counters. *)
        Obs.uninstall ();
        let digest =
          match Result.map (fun f -> f ()) check with
          | Ok v ->
            (* One failed unit per failed check, at most the leg's units. *)
            fail (min leg.units (List.length v.errors)) v.errors;
            List.iter (add_into extra) v.extra;
            v.digest
          | Error msg ->
            fail leg.units [ leg.leg ^ ": " ^ msg ];
            ""
          | exception e ->
            fail leg.units [ leg.leg ^ ": " ^ Printexc.to_string e ];
            ""
        in
        Option.iter Obs.install sink;
        {
          l_name = leg.leg;
          l_secs = t1 -. t0;
          l_digest = digest;
          l_layers = layers;
        })
      plan.legs
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  calibrate_now ();
  Obs.uninstall ();
  (match plan.final () with
  | [] -> ()
  | msgs ->
    units := !units + 1;
    fail 1 msgs
  | exception e ->
    units := !units + 1;
    fail 1 [ "final: " ^ Printexc.to_string e ]);
  let counters =
    match sink with
    | None -> []
    | Some s ->
      ensure_dir out_dir;
      Export_chrome.save
        ~path:(Filename.concat out_dir (workload ^ ".trace.json"))
        s;
      List.map (fun n -> (n, float_of_int (Obs.find_counter s n))) counter_names
      @ Hashtbl.fold (fun k v acc -> (k, v) :: acc) extra []
  in
  let report =
    {
      legs;
      calib_s =
        List.fold_left ( +. ) 0. !calibs /. float_of_int (List.length !calibs);
      heap_mb;
      units = !units;
      failed = !failed;
      errors = !errors;
      counters;
    }
  in
  Marshal.to_channel stdout report [];
  flush stdout

(* Parent: passes, medians, output ------------------------------------------ *)

(* The measured code runs on one domain, at the requested seed, untouched by
   the harness knobs of the other benchmarks and the scheduler. *)
let child_env () =
  let dropped kv =
    let key =
      match String.index_opt kv '=' with
      | Some i -> String.sub kv 0 i
      | None -> kv
    in
    key = "HPCFS_DOMAINS" || key = "HPCFS_SCHED_DEBUG"
    || String.starts_with ~prefix:"HPCFS_BENCH_" key
  in
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (dropped kv))
  |> Array.of_list

type pass = { setup_s : float; r : report }

let spawn ~workload ~seed ~trace =
  let args =
    [ Sys.executable_name; "--child"; workload; "--seed"; string_of_int seed;
      "--trace"; (if trace then "1" else "0") ]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list args)
      (child_env ()) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let got =
    match input_line ic with
    | "ready" ->
      let setup_s = now_s () -. t0 in
      (try Some { setup_s; r = (Marshal.from_channel ic : report) }
       with End_of_file | Failure _ -> None)
    | _ | (exception End_of_file) -> None
  in
  close_in ic;
  match (snd (Unix.waitpid [] pid), got) with
  | Unix.WEXITED 0, Some p -> Some p
  | _ ->
    Printf.eprintf "e2e: %s pass (seed %d, trace %b) failed\n%!" workload seed
      trace;
    None

let percentile xs p = Hpcfs_util.Stats.percentile (Array.of_list xs) p
let median xs = percentile xs 50.

type budget = Reps of int | Seconds of float

(* Untraced passes only, or (trace) untraced and traced passes alternating,
   so the overhead ratio compares passes taken under the same conditions. *)
let collect ~workload ~seed ~trace budget =
  let t_start = now_s () in
  let rec loop i acc =
    let more =
      match budget with
      | Reps r -> i < (if trace then 2 * r else r)
      | Seconds s -> now_s () -. t_start < s || i < if trace then 4 else 3
    in
    if not more then List.rev acc
    else
      let traced_pass = trace && i mod 2 = 1 in
      let p = spawn ~workload ~seed ~trace:traced_pass in
      Option.iter
        (fun p ->
          Printf.eprintf "%s pass %d%s: setup %.4f s, calib %.4f s, legs %s\n%!"
            workload i
            (if traced_pass then " (traced)" else "")
            p.setup_s p.r.calib_s
            (String.concat " "
               (List.map
                  (fun l -> Printf.sprintf "%s=%.3f" l.l_name l.l_secs)
                  p.r.legs)))
        p;
      loop (i + 1) ((traced_pass, p) :: acc)
  in
  loop 0 []

let per_layer_metrics =
  [
    ("layers.wall_s", "s"); ("layers.coverage", "share");
    ("obs.overhead_share", "share"); ("apps.run.share", "share");
    ("apps.validate.share", "share"); ("sim.simulate.share", "share");
    ("stack.self.share", "share");
    ("backend.write.share", "share"); ("backend.read.share", "share");
    ("backend.meta.share", "share"); ("staging.drain.share", "share");
    ("codec.encode.share", "share");
    ("codec.decode.share", "share"); ("core.feed.share", "share");
    ("core.finish.share", "share"); ("sim.steps", "count");
    ("sim.rounds", "count"); ("mpi.sends", "count");
    ("mpi.collectives", "count"); ("mpi.barriers", "count");
    ("trace.records", "count"); ("trace.records.posix", "count");
    ("trace.records.mpiio", "count"); ("trace.records.hdf5", "count");
    ("backend.write.calls", "count"); ("backend.read.calls", "count");
    ("backend.meta.calls", "count"); ("fs.bytes_written", "bytes");
    ("fs.bytes_read", "bytes"); ("fs.stale_reads", "count");
    ("fs.extent.fast_reads", "count"); ("fs.extent.slow_reads", "count");
    ("fs.extent.fast_read_ratio", "ratio"); ("fs.extent.compactions", "count");
    ("fs.extent.rebuilds", "count"); ("fs.lock.acquisitions", "count");
    ("fs.lock.revocations", "count"); ("fs.lock.hit_ratio", "ratio");
    ("bb.writes", "count"); ("bb.staged_bytes", "bytes");
    ("bb.drained_bytes", "bytes"); ("bb.stalls", "count");
    ("bb.cache_hit_ratio", "ratio"); ("wal.writes", "count");
    ("wal.appended_bytes", "bytes"); ("wal.drained_bytes", "bytes");
    ("wal.stalls", "count"); ("wal.writethrough", "count");
    ("md.ops", "count"); ("md.cache.hits", "count");
    ("md.cache.misses", "count"); ("md.cache.hit_ratio", "ratio");
    ("md.cache.stale_stats", "count"); ("md.rejected", "count");
    ("md.makespan", "cost_units"); ("codec.records", "count");
    ("codec.bytes", "bytes"); ("codec.bytes_per_record", "B/record");
  ]

let ratio a b = if b = 0. then 0. else a /. b

let layer_sum (p : pass) key =
  List.fold_left
    (fun acc l ->
      acc +. Option.value ~default:0. (List.assoc_opt key l.l_layers))
    0. p.r.legs

(* One traced pass's per-layer values (all but the overhead, which needs
   the untraced passes). *)
let layer_values (p : pass) =
  let wall = layer_sum p "wall" in
  let share k = ratio (layer_sum p k) wall in
  let c k = Option.value ~default:0. (List.assoc_opt k p.r.counters) in
  let shares =
    List.map
      (fun k -> (k ^ ".share", share k))
      [ "apps.run"; "apps.validate"; "sim.simulate"; "stack.self";
        "backend.write"; "backend.read"; "backend.meta"; "staging.drain";
        "codec.encode"; "codec.decode"; "core.feed"; "core.finish" ]
  in
  [ ("layers.wall_s", wall); ("layers.coverage", share "covered") ]
  @ shares
  @ List.map (fun k -> (k, layer_sum p k))
      [ "backend.write.calls"; "backend.read.calls"; "backend.meta.calls" ]
  @ p.r.counters
  @ [
      ("fs.extent.fast_read_ratio",
        ratio (c "fs.extent.fast_reads")
          (c "fs.extent.fast_reads" +. c "fs.extent.slow_reads"));
      ("fs.lock.hit_ratio",
        ratio (c "fs.lock.hits")
          (c "fs.lock.hits" +. c "fs.lock.acquisitions"));
      ("bb.cache_hit_ratio",
        ratio (c "bb.cache_hits") (c "bb.cache_hits" +. c "bb.cache_misses"));
      ("md.cache.hit_ratio",
        ratio (c "md.cache.hits") (c "md.cache.hits" +. c "md.cache.misses"));
      ("codec.bytes_per_record", ratio (c "codec.bytes") (c "codec.records"));
    ]

(* What each workload exists to stress, as a floor on the share of its
   traced time that the layer it targets takes: (layer, floor, share of
   one traced pass).  A traced run whose median share is below the floor
   counts one failed unit, since the workload then no longer measures what
   it says it does. *)
let dominant_layer workload =
  let leg_share leg keys (p : pass) =
    match List.find_opt (fun l -> l.l_name = leg) p.r.legs with
    | None -> 0.
    | Some l ->
      let get k = Option.value ~default:0. (List.assoc_opt k l.l_layers) in
      ratio (List.fold_left (fun acc k -> acc +. get k) 0. keys) (get "wall")
  in
  let share keys p =
    ratio
      (List.fold_left (fun acc k -> acc +. layer_sum p k) 0. keys)
      (layer_sum p "wall")
  in
  let backend = [ "backend.write"; "backend.read"; "backend.meta" ] in
  match workload with
  | "paper" -> Some ("apps.validate", 0.60, share [ "apps.validate" ])
  | "ckpt-restart" -> Some ("backend", 0.45, share backend)
  | "live-read" ->
    Some
      ( "session leg backend.read",
        0.70,
        leg_share "session" [ "backend.read" ] )
  | "md-storm" -> Some ("stack.self", 0.70, share [ "stack.self" ])
  | "trace-analyze" ->
    Some
      ( "codec+core",
        0.90,
        share [ "codec.encode"; "codec.decode"; "core.feed"; "core.finish" ] )
  | _ -> None

let end_to_end = [ ("wall_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MiB") ]

(* The times as the host delivered them, before scaling, and the
   calibration loop's time: printed and written, not part of the result. *)
let host_metrics =
  [ ("host.wall_s", "s"); ("host.setup_s", "s"); ("host.calib_s", "s") ]

let scale (p : pass) = calib_ref_s /. p.r.calib_s
let host_wall (p : pass) =
  List.fold_left (fun acc l -> acc +. l.l_secs) 0. p.r.legs

let e2e_values (p : pass) =
  [
    ("wall_s", host_wall p *. scale p);
    ("setup_s", p.setup_s *. scale p);
    ("peak_heap_mb", p.r.heap_mb);
    ("host.wall_s", host_wall p);
    ("host.setup_s", p.setup_s);
    ("host.calib_s", p.r.calib_s);
  ]

type stat = {
  metric : string;
  unit : string;
  median : float;
  q1 : float;
  q3 : float;
  n : int;
}

let summarize values (metric, unit) =
  let xs =
    List.map
      (fun v -> Option.value ~default:0. (List.assoc_opt metric v))
      values
  in
  {
    metric;
    unit;
    median = median xs;
    q1 = percentile xs 25.;
    q3 = percentile xs 75.;
    n = List.length xs;
  }

type outcome = { stats : stat list; attempted : int; failed : int }

let correct o = o.stats <> [] && o.failed = 0

let rows_of workload stats =
  List.map
    (fun s ->
      {
        name = workload ^ "/" ^ s.metric;
        values =
          [ ("median", s.median, s.unit); ("q1", s.q1, s.unit);
            ("q3", s.q3, s.unit); ("n", float_of_int s.n, "count") ];
      })
    stats

(* Whether the traced passes spend the expected share in the workload's
   target layer: (units checked, units failed). *)
let check_dominance workload traced =
  match (dominant_layer workload, traced) with
  | None, _ | _, [] -> (0, 0)
  | Some (layer, floor, share), _ ->
    let s = median (List.map share traced) in
    Printf.printf "%s dominant layer %s %.3f share (floor %.2f: %s)\n" workload
      layer s floor
      (if s >= floor then "ok" else "MISSED");
    (1, if s >= floor then 0 else 1)

(* layers.json: the per-layer medians plus the per-leg seconds of the first
   traced pass. *)
let report_layers ~context workload stats (p : pass) =
  let leg_rows =
    List.map
      (fun l ->
        {
          name = workload ^ "/leg/" ^ l.l_name;
          values =
            List.map
              (fun (k, v) ->
                let unit =
                  if String.ends_with ~suffix:".calls" k then "count" else "s"
                in
                (k, v, unit))
              l.l_layers;
        })
      p.r.legs
  in
  write_rows
    (Filename.concat out_dir (workload ^ ".layers.json"))
    ~context
    (rows_of workload stats @ leg_rows)

let run_workload ~seed ~trace ~budget ~context workload =
  let passes = collect ~workload ~seed ~trace budget in
  let ok =
    List.filter_map (fun (t, p) -> Option.map (fun p -> (t, p)) p) passes
  in
  let crashed = List.length passes - List.length ok in
  let untraced, traced =
    List.partition_map (fun (t, p) -> if t then Right p else Left p) ok
  in
  (* Every pass of one seed must compute the same thing, traced or not. *)
  let mismatches =
    match ok with
    | [] -> 0
    | (_, first) :: rest ->
      List.fold_left
        (fun acc (_, p) ->
          List.fold_left2
            (fun acc a b -> if a.l_digest = b.l_digest then acc else acc + 1)
            acc first.r.legs p.r.legs)
        0 rest
  in
  if mismatches > 0 then
    Printf.eprintf "e2e: %s: %d leg digest(s) differ between passes\n" workload
      mismatches;
  List.iter
    (fun (_, p) ->
      List.iter (Printf.eprintf "e2e: %s: %s\n" workload) p.r.errors)
    ok;
  let total f = List.fold_left (fun acc (_, p) -> acc + f p.r) 0 ok in
  let stats =
    if untraced = [] || (trace && traced = []) then []
    else if not trace then
      List.map
        (summarize (List.map e2e_values untraced))
        (end_to_end @ host_metrics)
    else
      (* Both sides scaled, so a host slowdown between them cancels. *)
      let base = median (List.map (fun p -> host_wall p *. scale p) untraced) in
      let values =
        List.map
          (fun p ->
            ("obs.overhead_share", (host_wall p *. scale p /. base) -. 1.)
            :: layer_values p)
          traced
      in
      List.map (summarize values) per_layer_metrics
  in
  List.iter
    (fun s ->
      Printf.printf "%s %s %.6g %s  (q1 %.6g, q3 %.6g, n=%d)\n" workload
        s.metric s.median s.unit s.q1 s.q3 s.n)
    stats;
  (match traced with
  | p :: _ when stats <> [] -> report_layers ~context workload stats p
  | _ -> ());
  let dom_units, dom_failed = check_dominance workload traced in
  {
    stats;
    attempted = crashed + mismatches + dom_units + total (fun r -> r.units);
    failed = crashed + mismatches + dom_failed + total (fun r -> r.failed);
  }

let result_line ~metrics o =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct o) o.attempted o.failed
    (String.concat ", "
       (List.filter_map
          (fun s ->
            if not (List.mem_assoc s.metric metrics) then None
            else
              Some
                (Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
                   (json_string s.metric) (json_number s.median)
                   (json_string s.unit)))
          o.stats))

let () =
  let names = ref [] and seed = ref 42 and reps = ref None
  and seconds = ref None and trace = ref 0 and child_of = ref None in
  let specs =
    [
      ("--workload", Arg.String (fun w -> names := !names @ [ w ]),
        "W  run workload W (repeatable; default: all six)");
      ("--seed", Arg.Set_int seed, "S  input seed (default 42)");
      ("--reps", Arg.Int (fun r -> reps := Some r),
        "R  passes per workload (default 5)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
        "T  take passes until T seconds have gone by (at least 3)");
      ("--trace", Arg.Set_int trace,
        "0|1  1: traced pass, per-layer metrics instead of end-to-end ones");
      ("--child", Arg.String (fun w -> child_of := Some w),
        "W  (internal) one pass");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload W]... [--seed S] [--reps R | --seconds T] \
     [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "e2e: --trace takes 0 or 1";
    exit 2
  end;
  match !child_of with
  | Some workload -> child ~workload ~seed:!seed ~trace:(!trace = 1)
  | None ->
    let names =
      if !names = [] then List.map (fun w -> w.name) workloads else !names
    in
    List.iter (fun n -> ignore (find_workload n)) names;
    let budget =
      match (!seconds, !reps) with
      | Some s, _ -> Seconds s
      | None, Some r -> Reps (max 1 r)
      | None, None -> Reps 5
    in
    let context =
      [
        ("seed", string_of_int !seed);
        ("reps",
          match budget with
          | Reps r -> string_of_int r
          | Seconds _ -> "null");
        ("seconds",
          match budget with Seconds s -> json_number s | Reps _ -> "null");
        ("host_cores", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", json_string Sys.ocaml_version);
      ]
    in
    let results =
      List.map
        (fun name ->
          let o =
            run_workload ~seed:!seed ~trace:(!trace = 1) ~budget
              ~context name
          in
          print_endline
            (result_line
               ~metrics:(if !trace = 1 then per_layer_metrics else end_to_end)
               o);
          (name, o))
        names
    in
    if !trace = 0 then
      write_rows
        (Filename.concat out_dir "results.json")
        ~context
        (List.concat_map (fun (name, o) -> rows_of name o.stats) results);
    if List.exists (fun (_, o) -> o.stats = []) results then exit 1
