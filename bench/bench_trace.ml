(* Trace-pipeline benchmarks: text v1 vs binary v2 codec throughput and
   footprint across history lengths, and the end-to-end demo the pipeline
   exists for — a 10^7-record synthetic trace streamed from disk through
   the bounded-memory analyzer without ever forming a record list.

   HPCFS_BENCH_SMALL=1 shrinks both axes for CI smoke runs. *)

module Record = Hpcfs_trace.Record
module Codec = Hpcfs_trace.Codec
module Tracefile = Hpcfs_trace.Tracefile
module Report = Hpcfs_core.Report
module Table = Hpcfs_util.Table
open Bench_common

let small =
  match Sys.getenv_opt "HPCFS_BENCH_SMALL" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Synthetic per-rank checkpoint loop, generated record by record so the
   10^7-record demo never holds the trace: each rank opens a private file
   and a small shared header, then cycles through writes, reads, seeks and
   the stat-heavy metadata chatter HPC traces are known for; every 5000th
   record is a header rewrite, the one cross-rank conflict source. *)
let nranks = 64

let private_file rank = Printf.sprintf "/scratch/rank%03d.dat" rank
let header_file = "/scratch/header.dat"

let record_at i =
  let rank = i mod nranks in
  let s = i / nranks in
  let time = i + 1 in
  let r = Record.make ~time ~rank ~layer:Record.L_posix ~origin:Record.O_app in
  if s = 0 then
    r ~func:"open" ~file:(private_file rank) ~fd:5
      ~args:[ ("flags", "O_CREAT|O_WRONLY") ] ()
  else if s = 1 then
    r ~func:"open" ~file:header_file ~fd:6 ~args:[ ("flags", "O_RDWR") ] ()
  else if i mod 5000 = 4999 then
    r ~func:"pwrite" ~fd:6 ~offset:0 ~count:8 ()
  else
    match s mod 8 with
    | 0 -> r ~func:"write" ~fd:5 ~count:4096 ()
    | 1 | 5 ->
      r ~func:"lseek" ~fd:5 ~offset:(s * 4096)
        ~args:[ ("whence", "SEEK_SET") ] ()
    | 2 -> r ~func:"stat" ~file:(private_file rank) ()
    | 3 -> r ~func:"access" ~file:(private_file rank) ()
    | 4 -> r ~func:"read" ~fd:5 ~count:4096 ()
    | 6 -> r ~func:"fstat" ~fd:5 ()
    | _ -> r ~func:"stat" ~file:header_file ()

let with_temp f =
  let path = Filename.temp_file "hpcfs_bench" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let file_size path = (Unix.stat path).Unix.st_size

(* Codec throughput: text vs binary ---------------------------------------- *)

let codec_throughput () =
  let sizes =
    if small then [ 2_000; 10_000 ] else [ 10_000; 50_000; 200_000 ]
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "records"; "format"; "B/record"; "encode rec/s"; "decode rec/s" ]
  in
  List.iter
    (fun n ->
      let records = List.init n record_at in
      let measure format =
        with_temp @@ fun path ->
        let (), enc_s = time (fun () -> Tracefile.save ~format path records) in
        let bytes = file_size path in
        let w0 = allocated_words () in
        let decoded, dec_s =
          time (fun () ->
              match Tracefile.fold path ~init:0 ~f:(fun acc _ -> acc + 1) with
              | Ok c -> c
              | Error e -> failwith e)
        in
        let dec_words = (allocated_words () -. w0) /. float_of_int n in
        assert (decoded = n);
        Table.add_row t
          [
            string_of_int n;
            Tracefile.format_name format;
            Printf.sprintf "%.1f" (float_of_int bytes /. float_of_int n);
            Printf.sprintf "%.2fM" (float_of_int n /. enc_s /. 1e6);
            Printf.sprintf "%.2fM" (float_of_int n /. dec_s /. 1e6);
          ];
        Bench_perf.record
          ~name:
            (Printf.sprintf "trace/%s/%d" (Tracefile.format_name format) n)
          [
            ("records", string_of_int n);
            ("bytes", string_of_int bytes);
            ( "bytes_per_record",
              Printf.sprintf "%.2f" (float bytes /. float (max 1 n)) );
            ("encode_records_per_s", Printf.sprintf "%.0f" (float n /. enc_s));
            ("decode_records_per_s", Printf.sprintf "%.0f" (float n /. dec_s));
            ("decode_words_per_record", Printf.sprintf "%.2f" dec_words);
          ];
        (bytes, enc_s, dec_s)
      in
      let tb, te, td = measure Tracefile.Text in
      let bb, be, bd = measure Tracefile.Binary in
      ignore (te, td);
      if 2 * bb > tb then
        Printf.printf
          "  !! binary is not <= 0.5x the text size at %d records\n" n;
      if be +. bd > 0.0 then ())
    sizes;
  Table.print t

(* Streaming-analysis demo -------------------------------------------------- *)

let streaming_demo () =
  let n = if small then 200_000 else 10_000_000 in
  with_temp @@ fun path ->
  let (), enc_s =
    time (fun () ->
        let oc = open_out_bin path in
        let e = Codec.encoder oc in
        for i = 0 to n - 1 do
          Codec.encode e (record_at i)
        done;
        Codec.finish e;
        close_out oc)
  in
  let bytes = file_size path in
  Printf.printf
    "encoded %d records to %.1f MB binary (%.1f B/record) in %.1fs (%.2fM \
     rec/s)\n"
    n
    (float_of_int bytes /. 1e6)
    (float_of_int bytes /. float_of_int n)
    enc_s
    (float_of_int n /. enc_s /. 1e6);
  let summary, dec_s =
    time (fun () ->
        let s = Report.stream ~nprocs:nranks () in
        match Tracefile.iter path ~f:(Report.feed s) with
        | Ok _ -> Report.finish s
        | Error e -> failwith e)
  in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6
  in
  Printf.printf
    "streamed %d records through the analyzer in %.1fs (%.2fM rec/s), top \
     heap %.0f MB\n"
    summary.Report.record_count dec_s
    (float_of_int n /. dec_s /. 1e6)
    top_heap_mb;
  let conflicts (s : Hpcfs_core.Conflict.summary) =
    s.Hpcfs_core.Conflict.waw_s + s.waw_d + s.raw_s + s.raw_d
  in
  Printf.printf
    "  %d data accesses, %d skipped; verdict follows from %d session / %d \
     commit conflicts\n"
    summary.Report.access_count summary.Report.skipped
    (conflicts summary.Report.session)
    (conflicts summary.Report.commit);
  Bench_perf.record
    ~name:(Printf.sprintf "trace/stream-analyze/%d" n)
    [
      ("records", string_of_int n);
      ("seconds", Printf.sprintf "%.2f" dec_s);
      ("records_per_s", Printf.sprintf "%.0f" (float_of_int n /. dec_s));
      ("top_heap_mb", Printf.sprintf "%.0f" top_heap_mb);
    ]

let trace () =
  section "Trace pipeline: binary codec vs text, streaming analysis";
  codec_throughput ();
  streaming_demo ();
  print_endline
    "(expected shape: binary holds a record in well under half the bytes of\n\
    \ text and decodes at least as fast; the streaming analyzer's heap is\n\
    \ bounded by resolved data accesses, not the record count.)";
  Bench_perf.write_bench_json ()
