module Interval = Hpcfs_util.Interval
module Obs = Hpcfs_obs.Obs
module Domctx = Hpcfs_util.Domctx

type t = {
  semantics : Consistency.t;
  local_order : bool;
  namespace : Namespace.t;
  stripe : Stripe.t;
  lockmgr : Lockmgr.t;
  targets : Target.t;
  (* Telemetry counter names, precomputed per consistency engine so the
     instrumented hot paths allocate nothing. *)
  m_read : string;
  m_write : string;
  m_commit : string;
  (* Striped per-domain counters (Domctx): pure commutative sums, so
     concurrent ranks of a parallel run accumulate without locks and the
     totals are schedule-independent. *)
  reads : Domctx.counter;
  writes : Domctx.counter;
  bytes_read : Domctx.counter;
  bytes_written : Domctx.counter;
  stale_reads : Domctx.counter;
  stale_bytes : Domctx.counter;
}

let create ?stripe ?(lock_granularity = 1 lsl 20) ?(local_order = true)
    ?(mds_shards = 1) semantics =
  let stripe =
    match stripe with
    | Some s -> s
    | None -> Stripe.create ~stripe_size:(1 lsl 20) ~server_count:8
  in
  let key = Consistency.key semantics in
  {
    semantics;
    local_order;
    namespace = Namespace.create semantics;
    stripe;
    lockmgr = Lockmgr.create ~granularity:lock_granularity;
    targets = Target.create ~mds_shards ~count:stripe.Stripe.server_count ();
    m_read = "fs.reads." ^ key;
    m_write = "fs.writes." ^ key;
    m_commit = "fs.commits." ^ key;
    reads = Domctx.counter ();
    writes = Domctx.counter ();
    bytes_read = Domctx.counter ();
    bytes_written = Domctx.counter ();
    stale_reads = Domctx.counter ();
    stale_bytes = Domctx.counter ();
  }

let semantics t = t.semantics
let namespace t = t.namespace
let stripe t = t.stripe
let targets t = t.targets

(* Availability checks.  [Target.all_up] is a single load, so the
   fault-free hot path (every run without an ostfail/mdsfail plan) pays
   nothing beyond it and produces byte-identical results to a build
   without the failure domain. *)

let mds_shards t = Target.mds_shards t.targets

(* A metadata operation is served by the shard owning the path's parent
   directory; it fails only when *that* shard is down, so a partial MDS
   outage takes out one directory subtree's worth of paths.  With one
   shard this degenerates to the legacy whole-MDS check. *)
let check_mds t ~time path =
  if not (Target.all_up t.targets) then begin
    let shard = Shardmap.shard ~shards:(Target.mds_shards t.targets) path in
    if not (Target.mds_available t.targets shard) then begin
      Target.note_rejected t.targets;
      raise (Target.Mds_down { time })
    end
  end

(* Data-path availability: a read or write whose extent touches a [Down]
   target fails whole (no partial server-side application — the client
   gives up before issuing any chunk).  Extents served by a [Degraded]
   target's failover replica succeed and are counted. *)
let check_data t ~time iv =
  if (not (Target.all_up t.targets)) && not (Interval.is_empty iv) then begin
    let degraded = ref false in
    List.iter
      (fun (srv, _) ->
        match Target.state t.targets srv with
        | Target.Down ->
          Target.note_rejected t.targets;
          raise (Target.Target_down { target = srv; time })
        | Target.Degraded -> degraded := true
        | Target.Up -> ())
      (Stripe.split_extent t.stripe iv);
    if !degraded then Obs.incr "fs.target.degraded_ops"
  end

let account_lock t ~file ~rank mode iv =
  match t.semantics with
  | Consistency.Strong -> Lockmgr.access t.lockmgr ~file ~client:rank mode iv
  | Consistency.Commit | Consistency.Session | Consistency.Eventual _ -> ()

(* Stripe accounting only runs with a sink installed: computing the extent
   decomposition would otherwise cost an allocation per data operation. *)
let account_stripe t iv =
  if Obs.enabled () then
    Obs.incr ~by:(List.length (Stripe.split_extent t.stripe iv))
      "fs.stripe.requests"

let open_file t ~time ~rank ?(create = false) ?(trunc = false) path =
  check_mds t ~time path;
  let fd =
    if create then Namespace.create_file t.namespace ~time path
    else Namespace.lookup_file t.namespace path
  in
  if trunc then Fdata.truncate fd ~time 0;
  Fdata.session_open fd ~rank ~time;
  Obs.incr "fs.opens";
  Fdata.size fd

let close_file t ~time ~rank path =
  let fd = Namespace.lookup_file t.namespace path in
  Fdata.session_close fd ~rank ~time;
  Obs.incr "fs.closes";
  Lockmgr.release_client t.lockmgr ~file:path ~client:rank

(* The read body shared by the checked path and the degraded fallback. *)
let do_read t ~time ~rank path ~off ~len =
  let fd = Namespace.lookup_file t.namespace path in
  if len > 0 then begin
    account_lock t ~file:path ~rank Lockmgr.Read (Interval.of_len off len);
    account_stripe t (Interval.of_len off len)
  end;
  let result =
    Fdata.read ~local_order:t.local_order fd ~rank ~time ~off ~len
  in
  Domctx.add t.reads 1;
  Domctx.add t.bytes_read (Bytes.length result.Fdata.data);
  Obs.incr t.m_read;
  Obs.incr ~by:(Bytes.length result.Fdata.data) "fs.bytes_read";
  if result.Fdata.stale_bytes > 0 then begin
    Domctx.add t.stale_reads 1;
    Domctx.add t.stale_bytes result.Fdata.stale_bytes;
    Obs.incr "fs.stale_reads";
    Obs.incr ~by:result.Fdata.stale_bytes "fs.stale_bytes"
  end;
  Namespace.touch_atime t.namespace ~time path;
  result

let read t ~time ~rank path ~off ~len =
  if len > 0 then check_data t ~time (Interval.of_len off len);
  do_read t ~time ~rank path ~off ~len

(* Degraded read: serve whatever the reachable targets hold and return
   zeroes for the chunks on down targets — what a client that already
   exhausted its retries gets instead of blocking forever.  Never raises
   for a down target; callers pick it explicitly. *)
let read_degraded t ~time ~rank path ~off ~len =
  let result = do_read t ~time ~rank path ~off ~len in
  if (not (Target.all_up t.targets)) && len > 0 then begin
    let data_hi = off + Bytes.length result.Fdata.data in
    let unreachable = ref 0 in
    List.iter
      (fun (srv, piv) ->
        if Target.state t.targets srv = Target.Down then begin
          let lo = max piv.Interval.lo off
          and hi = min piv.Interval.hi data_hi in
          if hi > lo then begin
            Bytes.fill result.Fdata.data (lo - off) (hi - lo) '\000';
            unreachable := !unreachable + (hi - lo)
          end
        end)
      (Stripe.split_extent t.stripe (Interval.of_len off len));
    if !unreachable > 0 then begin
      Obs.incr "fs.target.degraded_reads";
      Obs.incr ~by:!unreachable "fs.target.unreachable_bytes"
    end
  end;
  result

let write t ~time ~rank path ~off data =
  let len = Bytes.length data in
  if len > 0 then check_data t ~time (Interval.of_len off len);
  let fd = Namespace.lookup_file t.namespace path in
  if len > 0 then begin
    account_lock t ~file:path ~rank Lockmgr.Write (Interval.of_len off len);
    account_stripe t (Interval.of_len off len)
  end;
  Fdata.write fd ~rank ~time ~off data;
  Domctx.add t.writes 1;
  Domctx.add t.bytes_written len;
  Obs.incr t.m_write;
  Obs.incr ~by:len "fs.bytes_written";
  Namespace.touch_mtime t.namespace ~time path

let fsync t ~time ~rank path =
  let fd = Namespace.lookup_file t.namespace path in
  Obs.incr t.m_commit;
  Fdata.commit fd ~rank ~time

let laminate t ~time path =
  Fdata.laminate (Namespace.lookup_file t.namespace path) ~time

let truncate t ~time path len =
  check_mds t ~time path;
  let fd = Namespace.lookup_file t.namespace path in
  Fdata.truncate fd ~time len;
  Namespace.touch_mtime t.namespace ~time path

let file_size t path = Fdata.size (Namespace.lookup_file t.namespace path)

let settled t ~rank ~path ~issued ~time =
  (not (Namespace.exists t.namespace path))
  || Fdata.settled (Namespace.lookup_file t.namespace path) ~rank ~issued ~time

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  stale_reads : int;
  stale_bytes : int;
  locks : Lockmgr.counters;
}

let stats (t : t) =
  {
    reads = Domctx.total t.reads;
    writes = Domctx.total t.writes;
    bytes_read = Domctx.total t.bytes_read;
    bytes_written = Domctx.total t.bytes_written;
    stale_reads = Domctx.total t.stale_reads;
    stale_bytes = Domctx.total t.stale_bytes;
    locks = Lockmgr.counters t.lockmgr;
  }

let reset_stats (t : t) =
  Domctx.reset t.reads;
  Domctx.reset t.writes;
  Domctx.reset t.bytes_read;
  Domctx.reset t.bytes_written;
  Domctx.reset t.stale_reads;
  Domctx.reset t.stale_bytes;
  Lockmgr.reset t.lockmgr

(* Whole-job crash at [time]: every file loses its pending (unpublished)
   write buffers according to the active consistency engine; per-rank
   in-flight writes tear at this PFS's stripe boundaries.  [keep_stripes]
   decides how many whole stripes of a torn write reached storage — callers
   pass a seeded-PRNG draw so the outcome is deterministic per plan. *)
let crash t ~time ?(keep_stripes = fun ~total:_ -> 0) () =
  let files = List.sort compare (Namespace.all_files t.namespace) in
  let stripe_size = t.stripe.Stripe.stripe_size in
  List.fold_left
    (fun (acc, per_file) path ->
      let fd = Namespace.lookup_file t.namespace path in
      let s =
        Fdata.crash fd ~time ~stripe_size ~keep_stripes
      in
      if s.Fdata.lost_bytes > 0 then
        Obs.incr ~by:s.Fdata.lost_bytes "fs.crash_lost_bytes";
      if s.Fdata.torn_bytes > 0 then
        Obs.incr ~by:s.Fdata.torn_bytes "fs.crash_torn_bytes";
      (Fdata.add_crash_stats acc s, (path, s) :: per_file))
    (Fdata.no_crash_stats, []) files
  |> fun (total, per_file) -> (total, List.rev per_file)

(* Storage-target failure: mark the target and drop the volatile bytes it
   held — each file's unpersisted stripe chunks on that target (see
   {!Fdata.crash_target}).  Clients that lost bytes get their lock grants
   recalled: the server cannot tell which of their cached state survived. *)
let fail_target t ~time ?(failover = false) target =
  Target.fail t.targets ~time ~failover target;
  let stripe_size = t.stripe.Stripe.stripe_size in
  let server_count = t.stripe.Stripe.server_count in
  let files = List.sort compare (Namespace.all_files t.namespace) in
  let total, per_file, ranks =
    List.fold_left
      (fun (acc, per_file, ranks) path ->
        let fd = Namespace.lookup_file t.namespace path in
        let s, rs =
          Fdata.crash_target fd ~time ~stripe_size ~server_count ~target
        in
        if s.Fdata.lost_bytes > 0 then
          Obs.incr ~by:s.Fdata.lost_bytes "fs.target.lost_bytes";
        if s.Fdata.torn_bytes > 0 then
          Obs.incr ~by:s.Fdata.torn_bytes "fs.target.torn_bytes";
        let per_file =
          if s = Fdata.no_crash_stats then per_file else (path, s) :: per_file
        in
        let ranks =
          List.fold_left
            (fun acc r -> if List.mem r acc then acc else r :: acc)
            ranks rs
        in
        (Fdata.add_crash_stats acc s, per_file, ranks))
      (Fdata.no_crash_stats, [], [])
      files
  in
  let ranks = List.sort compare ranks in
  let evicted =
    List.fold_left
      (fun acc r -> acc + Lockmgr.evict_client t.lockmgr ~client:r)
      0 ranks
  in
  (total, List.rev per_file, ranks, evicted)

let recover_target t ~time target = Target.recover t.targets ~time target
let fail_mds ?shard t ~time = Target.fail_mds ?shard t.targets ~time
let recover_mds ?shard t ~time = Target.recover_mds ?shard t.targets ~time
let evict_client t ~client = Lockmgr.evict_client t.lockmgr ~client

let observer_rank = -1

let read_oracle t path ~off ~len =
  Fdata.oracle (Namespace.lookup_file t.namespace path) ~off ~len

let read_back t ~time path =
  let fd = Namespace.lookup_file t.namespace path in
  Fdata.session_open fd ~rank:observer_rank ~time;
  Fdata.read ~local_order:t.local_order fd ~rank:observer_rank
    ~time:(time + 1) ~off:0 ~len:(Fdata.size fd)
