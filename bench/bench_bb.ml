(* Burst-buffer policy comparison: the same N-N checkpoint/restart workload
   written directly to the PFS and through the lib/bb tier under each drain
   policy.  Reports the application-visible (modeled) write latency, the
   drain backlog left after the write phase, stall counts and cache
   behaviour, and emits one CSV row per configuration to bench_out/.

   Latency is modeled, not measured: every operation is charged a fixed
   per-op cost plus a per-byte cost of the device that served it.  The
   constants below encode a familiar ratio — a node-local burst buffer
   roughly an order of magnitude faster than the PFS both in latency and
   bandwidth (cf. the paper's Section 3.5 motivation for node-local
   tiers) — so the numbers are comparable across policies, not absolute. *)

module Pfs = Hpcfs_fs.Pfs
module Consistency = Hpcfs_fs.Consistency
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Table = Hpcfs_util.Table

let pfs_op_ns = 30_000. (* per-operation PFS latency *)
let pfs_byte_ns = 1.0 (* 1 ns/B = 1 GB/s PFS bandwidth *)
let bb_op_ns = 3_000. (* per-operation node-local latency *)
let bb_byte_ns = 0.125 (* 8 GB/s node-local bandwidth *)

(* Workload shape: every rank writes its own checkpoint file in [chunks]
   chunks of [chunk] bytes per checkpoint round, verifies its round header
   (a read-your-writes read) and closes; after the last round each rank
   reads its file back (a restart).  N-N consecutive — HACC-IO's pattern.
   Ranks interleave inside a round, as a parallel checkpoint does, so
   staged data sits in the backlog long enough for background draining to
   matter. *)
let checkpoints = 3

let chunks = 4
let chunk = 64 * 1024

let path_of rank = Printf.sprintf "/ckpt/rank%04d.dat" rank

type row = {
  config : string;
  write_ms : float; (* app-visible write-phase latency *)
  read_ms : float; (* app-visible restart-phase latency *)
  backlog : int; (* undrained bytes once the write phase is done *)
  stalls : int;
  stalled_bytes : int;
  peak : int;
  hits : int;
  misses : int;
}

(* Direct PFS baseline: every operation pays the PFS price. *)
let run_direct ~nranks =
  let pfs = Pfs.create Consistency.Session in
  let clock = ref 0 in
  let tick () = incr clock; !clock in
  Hpcfs_fs.Namespace.mkdir (Pfs.namespace pfs) ~time:(tick ()) "/ckpt";
  let lat = ref 0. in
  let charge_op bytes = lat := !lat +. pfs_op_ns +. (float bytes *. pfs_byte_ns) in
  let payload = Bytes.make chunk 'x' in
  for ck = 0 to checkpoints - 1 do
    for rank = 0 to nranks - 1 do
      ignore (Pfs.open_file pfs ~time:(tick ()) ~rank ~create:true (path_of rank));
      charge_op 0
    done;
    for c = 0 to chunks - 1 do
      for rank = 0 to nranks - 1 do
        let off = ((ck * chunks) + c) * chunk in
        Pfs.write pfs ~time:(tick ()) ~rank (path_of rank) ~off payload;
        charge_op chunk
      done
    done;
    for rank = 0 to nranks - 1 do
      let off = ck * chunks * chunk in
      ignore (Pfs.read pfs ~time:(tick ()) ~rank (path_of rank) ~off ~len:chunk);
      charge_op chunk;
      Pfs.close_file pfs ~time:(tick ()) ~rank (path_of rank);
      charge_op 0
    done
  done;
  let write_ms = !lat /. 1e6 in
  lat := 0.;
  for rank = 0 to nranks - 1 do
    let p = path_of rank in
    ignore (Pfs.open_file pfs ~time:(tick ()) ~rank p);
    charge_op 0;
    let len = Pfs.file_size pfs p in
    ignore (Pfs.read pfs ~time:(tick ()) ~rank p ~off:0 ~len);
    charge_op len;
    Pfs.close_file pfs ~time:(tick ()) ~rank p;
    charge_op 0
  done;
  {
    config = "direct-pfs";
    write_ms;
    read_ms = !lat /. 1e6;
    backlog = 0;
    stalls = 0;
    stalled_bytes = 0;
    peak = 0;
    hits = 0;
    misses = 0;
  }

(* One tiered run.  Stall work (synchronous drains hidden inside close or
   capacity-squeezed writes) is charged at the PFS rate by diffing the
   tier's stall counters around each operation. *)
let run_tiered ~nranks policy =
  let pfs = Pfs.create Consistency.Session in
  let config = { Tier.default_config with Tier.policy } in
  let tier = Tier.create ~config pfs in
  let clock = ref 0 in
  let tick () = incr clock; !clock in
  Hpcfs_fs.Namespace.mkdir (Pfs.namespace pfs) ~time:(tick ()) "/ckpt";
  let lat = ref 0. in
  let stalled = ref 0 in
  let charge_bb bytes = lat := !lat +. bb_op_ns +. (float bytes *. bb_byte_ns) in
  let charge_pfs bytes =
    lat := !lat +. pfs_op_ns +. (float bytes *. pfs_byte_ns)
  in
  let charge_stalls () =
    let s = Tier.stats tier in
    let fresh = s.Tier.core.stalled_bytes - !stalled in
    if fresh > 0 then begin
      lat := !lat +. (float fresh *. pfs_byte_ns);
      stalled := s.Tier.core.stalled_bytes
    end
  in
  let payload = Bytes.make chunk 'x' in
  for ck = 0 to checkpoints - 1 do
    for rank = 0 to nranks - 1 do
      ignore
        (Tier.open_file tier ~time:(tick ()) ~rank ~create:true (path_of rank));
      charge_pfs 0
    done;
    for c = 0 to chunks - 1 do
      for rank = 0 to nranks - 1 do
        let off = ((ck * chunks) + c) * chunk in
        Tier.write tier ~time:(tick ()) ~rank (path_of rank) ~off payload;
        charge_bb chunk;
        charge_stalls ()
      done
    done;
    for rank = 0 to nranks - 1 do
      let p = path_of rank in
      let off = ck * chunks * chunk in
      let before = (Tier.stats tier).Tier.cache_hits in
      ignore (Tier.read tier ~time:(tick ()) ~rank p ~off ~len:chunk);
      if (Tier.stats tier).Tier.cache_hits > before then charge_bb chunk
      else charge_pfs chunk;
      Tier.close_file tier ~time:(tick ()) ~rank p;
      charge_pfs 0;
      charge_stalls ()
    done
  done;
  let backlog = Tier.occupancy tier in
  let write_ms = !lat /. 1e6 in
  (* Under On_laminate nothing has drained yet: publish the checkpoints the
     UnifyFS way before the restart phase reads them. *)
  (match policy with
  | Drain.On_laminate ->
    for rank = 0 to nranks - 1 do
      Tier.stage_out tier ~time:(tick ()) (path_of rank)
    done
  | _ -> ());
  lat := 0.;
  let read_stats = Tier.stats tier in
  let hits0 = read_stats.Tier.cache_hits in
  for rank = 0 to nranks - 1 do
    let p = path_of rank in
    ignore (Tier.open_file tier ~time:(tick ()) ~rank p);
    charge_pfs 0;
    let len = Tier.file_size tier p in
    let before = (Tier.stats tier).Tier.cache_hits in
    ignore (Tier.read tier ~time:(tick ()) ~rank p ~off:0 ~len);
    if (Tier.stats tier).Tier.cache_hits > before then charge_bb len
    else charge_pfs len;
    Tier.close_file tier ~time:(tick ()) ~rank p;
    charge_pfs 0;
    charge_stalls ()
  done;
  ignore (Tier.drain_all tier ());
  let s = Tier.stats tier in
  ignore hits0;
  let config_name =
    match policy with
    | Drain.Async { bandwidth_bytes_per_tick; _ } ->
      Printf.sprintf "bb-async-%dK/tick" (bandwidth_bytes_per_tick / 1024)
    | _ -> "bb-" ^ Drain.name policy
  in
  {
    config = config_name;
    write_ms;
    read_ms = !lat /. 1e6;
    backlog;
    stalls = s.Tier.core.stalls;
    stalled_bytes = s.Tier.core.stalled_bytes;
    peak = s.Tier.core.peak_occupancy;
    hits = s.Tier.cache_hits;
    misses = s.Tier.cache_misses;
  }

let bb () =
  Bench_common.with_obs "bb" @@ fun () ->
  Bench_common.section
    "Burst-buffer tier: write latency and drain backlog per policy";
  let nranks = min Bench_common.nprocs 64 in
  Printf.printf
    "N-N checkpoint/restart, %d ranks, %d checkpoints x %d x %d KiB chunks\n\
     (modeled latency: PFS %.0f us/op + %.1f ns/B, BB %.0f us/op + %.3f ns/B)\n\n"
    nranks checkpoints chunks (chunk / 1024) (pfs_op_ns /. 1e3) pfs_byte_ns
    (bb_op_ns /. 1e3) bb_byte_ns;
  let rows =
    run_direct ~nranks
    :: List.map
         (fun p -> run_tiered ~nranks p)
         [
           Drain.Sync_on_close;
           Drain.default_async;
           (* An under-provisioned drain pipe: half the staging rate, so
              closes must absorb what the background could not. *)
           Drain.Async
             { bandwidth_bytes_per_tick = 16 * 1024; drain_interval = 32 };
           Drain.On_laminate;
         ]
  in
  let t =
    Table.create
      [
        "configuration"; "write ms"; "restart ms"; "backlog KiB"; "stalls";
        "stalled KiB"; "peak KiB"; "hits"; "misses";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.config;
          Printf.sprintf "%.2f" r.write_ms;
          Printf.sprintf "%.2f" r.read_ms;
          string_of_int (r.backlog / 1024);
          string_of_int r.stalls;
          string_of_int (r.stalled_bytes / 1024);
          string_of_int (r.peak / 1024);
          string_of_int r.hits;
          string_of_int r.misses;
        ])
    rows;
  Table.print t;
  let out_dir = "bench_out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let csv = out_dir ^ "/bb_policies.csv" in
  let oc = open_out csv in
  output_string oc
    "config,write_ms,restart_ms,backlog_bytes,stalls,stalled_bytes,\
     peak_occupancy,cache_hits,cache_misses\n";
  List.iter
    (fun r ->
      Printf.fprintf oc "%s,%.3f,%.3f,%d,%d,%d,%d,%d,%d\n" r.config r.write_ms
        r.read_ms r.backlog r.stalls r.stalled_bytes r.peak r.hits r.misses)
    rows;
  close_out oc;
  Printf.printf "\nper-policy stats written to %s\n" csv
