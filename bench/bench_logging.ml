(* Host-side logging scenario: checkpoint ack latency and crash-recovery
   cost of the write-ahead logging tier against direct PFS and the
   burst-buffer tier, across all four consistency engines.

   Two questions, two sections:

   ack       a checkpoint-dominated DSL workload runs under each engine in
             three modes (direct, bb-async, wal); the application-visible
             write-path latency is modeled from where each byte was
             acknowledged.  Writes acked at log-append (or burst-buffer
             stage-in) time pay the node-local price; bytes a caller had to
             wait for (publication stalls, write-through degradations) pay
             the PFS price.
   crash     the same checkpoint crashes mid-run under every engine, once
             with the victim mid-burst (the un-flushed log tail dies) and
             once after the closing flush (the durable log recovers
             everything, even under eventual semantics where a direct run
             drops its unpublished writes).  Rows come from the same
             emitter as `bench faults`, so the artifacts stay
             format-identical.

   Latency is modeled, not measured, with the same PFS/node-local constants
   as `bench bb` so the two scenarios are comparable: a WAL append is a
   sequential write to a node-local log device, slightly costlier per byte
   than the burst buffer's memory staging.  CSV rows land in
   bench_out/logging.csv and bench_out/logging_crash.csv; headline numbers
   merge into bench_out/BENCH_PERF.json for the CI acceptance gate. *)

module Consistency = Hpcfs_fs.Consistency
module Drain = Hpcfs_bb.Drain
module Tier = Hpcfs_bb.Tier
module Wal = Hpcfs_wal.Wal
module Plan = Hpcfs_fault.Plan
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile

let pfs_op_ns = 30_000.
let pfs_byte_ns = 1.0
let bb_op_ns = 3_000.
let bb_byte_ns = 0.125
let wal_op_ns = 3_000.
let wal_byte_ns = 0.25 (* 4 GB/s sequential node-local log append *)

let engines =
  [
    Consistency.Strong;
    Consistency.Commit;
    Consistency.Session;
    Consistency.Eventual { delay = 16 };
  ]

(* Checkpoint-dominated storm: N-N epochs of small blocks, where the
   per-operation PFS overhead dominates and ack-at-append pays off. *)
let ack_spec = "checkpoint:steps=6,every=2,layout=fpp,block=4096,count=16"

(* The crash workload ends with a read-back of the first epoch, so an
   io-triggered crash can land after every rank's closing flush: epoch 1
   is the victim's calls 1-18 (open + 16 writes + close), the read-back
   its calls 19-21. *)
let crash_spec =
  "checkpoint:steps=2,every=2,layout=fpp,block=4096,count=16;barrier;\
   read:layout=fpp,file=ckpt-0001,block=4096,count=1"

let mid_io = 10 (* 9 writes into epoch 1: un-flushed tail + torn append *)
let aligned_io = 20 (* the read-back: every log record is behind a flush *)

let body_of spec = Compile.body (Result.get_ok (Workload.of_string spec))

type mode = Direct | Bb | Log

let mode_name = function Direct -> "direct" | Bb -> "bb-async" | Log -> "wal"

type row = {
  engine : string;
  mode : string;
  ack_ms : float;
  stalls : int;
  stalled : int; (* bytes a caller waited on at PFS speed *)
  peak : int; (* peak undrained log/stage occupancy *)
}

let ms ns = ns /. 1e6

(* Where was each byte acknowledged?  Direct: every write pays the PFS
   price.  Tiered: writes ack at the node-local device, while stalled
   bytes (publication flushes, capacity squeezes) and write-through
   degradations pay the PFS price the ack dodged. *)
let run_mode ~nranks semantics mode =
  let body = body_of ack_spec in
  let engine = Consistency.to_string semantics in
  match mode with
  | Direct ->
    let r = Runner.run ~semantics ~nprocs:nranks body in
    let s = r.Runner.stats in
    let ns =
      (float_of_int s.Hpcfs_fs.Pfs.writes *. pfs_op_ns)
      +. (float_of_int s.Hpcfs_fs.Pfs.bytes_written *. pfs_byte_ns)
    in
    { engine; mode = mode_name mode; ack_ms = ms ns; stalls = 0; stalled = 0;
      peak = 0 }
  | Bb ->
    let tier = { Tier.default_config with Tier.policy = Drain.default_async } in
    let r = Runner.run ~semantics ~nprocs:nranks ~tier body in
    let s = Tier.stats (Option.get r.Runner.tier) in
    let ns =
      (float_of_int s.Tier.writes *. bb_op_ns)
      +. (float_of_int s.Tier.staged_bytes *. bb_byte_ns)
      +. (float_of_int s.Tier.drain_stalls *. pfs_op_ns)
      +. (float_of_int s.Tier.stalled_bytes *. pfs_byte_ns)
    in
    { engine; mode = mode_name mode; ack_ms = ms ns;
      stalls = s.Tier.drain_stalls; stalled = s.Tier.stalled_bytes;
      peak = s.Tier.peak_occupancy }
  | Log ->
    let r = Runner.run ~semantics ~nprocs:nranks ~wal:Wal.default_config body in
    let s = Wal.stats (Option.get r.Runner.wal) in
    let logged = s.Wal.writes - s.Wal.writethrough_writes in
    let ns =
      (float_of_int logged *. wal_op_ns)
      +. (float_of_int s.Wal.appended_bytes *. wal_byte_ns)
      +. (float_of_int s.Wal.writethrough_writes *. pfs_op_ns)
      +. (float_of_int s.Wal.writethrough_bytes *. pfs_byte_ns)
      +. (float_of_int s.Wal.stalls *. pfs_op_ns)
      +. (float_of_int s.Wal.stalled_bytes *. pfs_byte_ns)
    in
    { engine; mode = mode_name mode; ack_ms = ms ns; stalls = s.Wal.stalls;
      stalled = s.Wal.stalled_bytes; peak = s.Wal.peak_occupancy }

let crash_rows ~nranks ~label ~io =
  let plan = Plan.make ~seed:42 [ Plan.crash ~rank:1 (Plan.At_io io) ] in
  let body = body_of crash_spec in
  let app mode = Printf.sprintf "wl:logging/%s/%s" label mode in
  let direct =
    Validation.crash_report ~nprocs:nranks ~semantics:engines
      ~app:(app "direct") ~plan body
  in
  let walled =
    Validation.crash_report ~nprocs:nranks ~semantics:engines
      ~wal:Wal.default_config ~app:(app "wal") ~plan body
  in
  List.iter
    (fun r ->
      Bench_perf.record_logging_crash
        ~name:
          (Printf.sprintf "logging/crash-%s/%s" label r.Hpcfs_fault.Report.r_semantics)
        ~lost:r.Hpcfs_fault.Report.r_wal_lost_bytes
        ~torn:r.Hpcfs_fault.Report.r_wal_torn_bytes
        ~recovered:r.Hpcfs_fault.Report.r_wal_recovered_bytes
        ~direct_lost:
          (match
             List.find_opt
               (fun d ->
                 d.Hpcfs_fault.Report.r_semantics
                 = r.Hpcfs_fault.Report.r_semantics)
               direct
           with
          | Some d -> d.Hpcfs_fault.Report.r_lost_bytes
          | None -> 0))
    walled;
  direct @ walled

let logging () =
  Bench_common.with_obs "logging" @@ fun () ->
  Bench_common.section
    "Host-side logging: checkpoint ack latency and crash-recovery cost";
  let nranks = min Bench_common.nprocs 32 in
  Printf.printf
    "checkpoint storm `%s`, %d ranks\n\
     (modeled ack: PFS %.0f us/op + %.1f ns/B, WAL %.0f us/op + %.2f ns/B, \
     BB %.0f us/op + %.3f ns/B;\n\
     \ stalled and write-through bytes pay the PFS price)\n\n"
    ack_spec nranks (pfs_op_ns /. 1e3) pfs_byte_ns (wal_op_ns /. 1e3)
    wal_byte_ns (bb_op_ns /. 1e3) bb_byte_ns;
  let rows =
    List.concat_map
      (fun semantics ->
        List.map (run_mode ~nranks semantics) [ Direct; Bb; Log ])
      engines
  in
  List.iter
    (fun r ->
      Bench_perf.record_logging
        ~name:(Printf.sprintf "logging/ack/%s/%s" r.mode r.engine)
        ~ack_ms:r.ack_ms ~stalls:r.stalls ~peak:r.peak)
    rows;
  let path =
    Bench_common.emit_table_csv ~csv_file:"logging.csv"
      ~csv_header:"engine,mode,ack_ms,stalls,stalled_bytes,peak_occupancy"
      ~columns:
        [ "engine"; "mode"; "ack ms"; "stalls"; "stalled KiB"; "peak KiB" ]
      (List.map
         (fun r ->
           ( [
               r.engine; r.mode;
               Printf.sprintf "%.2f" r.ack_ms;
               string_of_int r.stalls;
               string_of_int (r.stalled / 1024);
               string_of_int (r.peak / 1024);
             ],
             Printf.sprintf "%s,%s,%.3f,%d,%d,%d" r.engine r.mode r.ack_ms
               r.stalls r.stalled r.peak ))
         rows)
  in
  Printf.printf "\nack-latency rows written to %s\n\n" path;
  Printf.printf
    "crash `%s`:\n\
     mid-burst (io=%d) tears the un-flushed log tail; post-flush (io=%d)\n\
     recovers everything from the durable log, even where the direct run\n\
     drops its unpublished writes.\n\n"
    crash_spec mid_io aligned_io;
  let rows =
    crash_rows ~nranks ~label:"mid" ~io:mid_io
    @ crash_rows ~nranks ~label:"aligned" ~io:aligned_io
  in
  Bench_common.emit_crash_rows ~csv_file:"logging_crash.csv"
    ~what:"logging crash rows" rows;
  Bench_perf.write_bench_json ()
