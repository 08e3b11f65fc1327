module Pfs = Hpcfs_fs.Pfs
module Fdata = Hpcfs_fs.Fdata
module Staging = Hpcfs_fs.Staging
module Interval = Hpcfs_util.Interval
module Backoff = Hpcfs_util.Backoff
module Obs = Hpcfs_obs.Obs

type config = {
  ranks_per_node : int;
  policy : Drain.t;
  capacity_per_node : int option;
  retry : Backoff.policy;
}

let default_config =
  {
    ranks_per_node = 4;
    policy = Drain.Sync_on_close;
    capacity_per_node = None;
    retry = Backoff.default;
  }

(* A staged extent is a {!Staging.record}, shared between the global
   backlog, the per-file queue and the owning node's per-file list.
   [Pending] is dirty and node-local only; [Applied] is drained into the
   PFS and retained as node-local cache until the next open invalidates
   it; [Dropped] is truncated or invalidated. *)
type node = {
  n_by_file : (string, Staging.record list ref) Hashtbl.t;
      (* the node's extents of each file, newest first *)
  n_snapshots : (string, bytes) Hashtbl.t; (* stage_in read caches *)
}

type t = {
  core : Staging.t;
  config : config;
  nodes : (int, node) Hashtbl.t;
  stage_in : Staging.counter;
  stage_out : Staging.counter;
  hits : Staging.counter;
  misses : Staging.counter;
  crash_lost : Staging.counter;
}

let create ?(config = default_config) pfs =
  {
    core =
      Staging.create ~prefix:"bb" ~staged:"staged_bytes"
        ~drained:"drained_bytes" ~fault:"drain"
        ~events:("async-drain", "stall")
        ~ranks_per_node:config.ranks_per_node ~retry:config.retry pfs;
    config;
    nodes = Hashtbl.create 16;
    stage_in = Staging.counter "bb.stage_in_bytes";
    stage_out = Staging.counter "bb.stage_out_bytes";
    hits = Staging.counter "bb.cache_hits";
    misses = Staging.counter "bb.cache_misses";
    crash_lost = Staging.counter "bb.crash_lost_bytes";
  }

let set_fault t ?prng hook = Staging.set_fault t.core ?prng hook
let pfs t = Staging.pfs t.core
let core t = t.core
let config t = t.config
let occupancy t = Staging.occupancy t.core
let node_of_rank t rank = Staging.node_of_rank t.core rank

let get_node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None ->
    let n = { n_by_file = Hashtbl.create 8; n_snapshots = Hashtbl.create 8 } in
    Hashtbl.add t.nodes id n;
    n

(* Draining ---------------------------------------------------------------- *)

(* A drain attempt may fail transiently when a fault hook is installed; an
   extent whose retries all failed stays staged for a later pass.  The
   drained extent stays in its node's list as a read cache. *)
let drain_extent t ~time (x : Staging.record) =
  if x.state = Pending && Staging.admitted t.core ~time ~node:x.node then
    Staging.replay t.core x
  else 0

(* Drain a file's staged extents in staging order — every node's, or one
   node's — compacting the per-file queue as we go.  An extent whose drain
   was aborted is skipped, not waited for: it stays queued for a later
   pass while the file's younger extents drain past it. *)
let drain_for_file t ?node ~time path =
  match Staging.file_queue t.core path with
  | None -> 0
  | Some q ->
    let keep = Queue.create () in
    let drained = ref 0 in
    Queue.iter
      (fun (x : Staging.record) ->
        if x.state = Pending then
          match node with
          | Some n when x.node <> n -> Queue.add x keep
          | _ ->
            drained := !drained + drain_extent t ~time x;
            if x.state = Pending then Queue.add x keep)
      q;
    Queue.clear q;
    Queue.transfer keep q;
    !drained

let maybe_async_drain t ~time =
  match t.config.policy with
  | Drain.Async { bandwidth_bytes_per_tick; drain_interval } ->
    Staging.paced_drain t.core ~time ~bandwidth:bandwidth_bytes_per_tick
      ~interval:drain_interval ~replay:(drain_extent t ~time)
  | Drain.Sync_on_close | Drain.On_laminate -> ()

let stall t bytes =
  Staging.stall t.core bytes;
  if bytes > 0 then Obs.observe "bb.stall_bytes" (float_of_int bytes)

(* The synchronous flush a close or fsync performs for the caller's node,
   according to the policy. *)
let flush_for_commit t ~node ~time path =
  match t.config.policy with
  | Drain.Sync_on_close | Drain.Async _ ->
    stall t (drain_for_file t ~node ~time path)
  | Drain.On_laminate -> ()

(* Data surface ------------------------------------------------------------- *)

(* The core cuts the file's queue; drained extents the queue no longer
   holds stay cached on the nodes, and are cut here with the stage-in
   snapshots. *)
let truncate_staged t path len =
  Staging.truncate t.core path len;
  Hashtbl.iter
    (fun _ node ->
      (match Hashtbl.find_opt node.n_by_file path with
      | Some l -> List.iter (fun x -> Staging.clip t.core x len) !l
      | None -> ());
      match Hashtbl.find_opt node.n_snapshots path with
      | Some snap when Bytes.length snap > len ->
        Hashtbl.replace node.n_snapshots path (Bytes.sub snap 0 len)
      | _ -> ())
    t.nodes

let open_file t ~time ~rank ~create ~trunc path =
  maybe_async_drain t ~time;
  let node = get_node t (node_of_rank t rank) in
  (* Close-to-open cache invalidation: the opening node drops its clean
     (drained) cached extents and any stage-in snapshot, so it re-reads
     whatever the PFS makes visible.  Dirty (undrained) extents stay. *)
  Hashtbl.remove node.n_snapshots path;
  (match Hashtbl.find_opt node.n_by_file path with
  | Some l ->
    l := List.filter (fun (x : Staging.record) -> x.state = Pending) !l
  | None -> ());
  ignore (Pfs.open_file (pfs t) ~time ~rank ~create ~trunc path);
  if trunc then truncate_staged t path 0;
  Staging.file_size t.core path

let close_file t ~time ~rank path =
  maybe_async_drain t ~time;
  flush_for_commit t ~node:(node_of_rank t rank) ~time path;
  Pfs.close_file (pfs t) ~time ~rank path

let fsync t ~time ~rank path =
  maybe_async_drain t ~time;
  flush_for_commit t ~node:(node_of_rank t rank) ~time path;
  Pfs.fsync (pfs t) ~time ~rank path

let write t ~time ~rank path ~off data =
  maybe_async_drain t ~time;
  let len = Bytes.length data in
  Staging.count_write t.core len;
  if len > 0 then begin
    if Staging.laminated (pfs t) path then
      invalid_arg "Tier.write: file is laminated";
    let id = node_of_rank t rank in
    let node = get_node t id in
    (* Make room first: capacity eviction drains the node's own oldest
       dirty extents synchronously — the stall burst buffers hit when the
       compute phase outruns the drain. *)
    (match t.config.capacity_per_node with
    | Some cap when Staging.pending t.core ~node:id + len > cap ->
      let forced = ref 0 in
      (try
         Staging.iter_backlog t.core (fun (x : Staging.record) ->
             if Staging.pending t.core ~node:id + len <= cap then raise Exit;
             if x.node = id then forced := !forced + drain_extent t ~time x)
       with Exit -> ());
      if !forced > 0 then begin
        Obs.incr "bb.evictions";
        Obs.incr ~by:!forced "bb.evicted_bytes"
      end;
      stall t !forced
    | _ -> ());
    let x = Staging.append t.core ~time ~rank path ~off data in
    (match Hashtbl.find_opt node.n_by_file path with
    | Some l -> l := x :: !l
    | None -> Hashtbl.add node.n_by_file path (ref [ x ]));
    Staging.extend t.core path (off + len)
  end

let fully_covered req ivs =
  let rest =
    List.fold_left
      (fun rest iv -> List.concat_map (fun r -> Interval.subtract r iv) rest)
      [ req ] ivs
  in
  List.for_all Interval.is_empty rest

(* The node's log (dirty and cached extents) painted over a stage-in
   snapshot or, failing that, over a PFS read; a request the log covers
   entirely never touches the PFS. *)
let read t ~time ~rank path ~off ~len =
  maybe_async_drain t ~time;
  let node = get_node t (node_of_rank t rank) in
  Staging.read t.core path ~off ~len ~serve:(fun n ->
      let overlay =
        match Hashtbl.find_opt node.n_by_file path with
        | None -> []
        | Some l ->
          List.rev
            (List.filter (fun (x : Staging.record) -> x.state <> Dropped) !l)
      in
      let hit buf =
        List.iter (Staging.paint ~off buf) overlay;
        Staging.bump t.hits 1;
        buf
      in
      if
        n = 0
        || fully_covered (Interval.of_len off n)
             (List.map
                (fun (x : Staging.record) ->
                  Interval.of_len x.off (Bytes.length x.data))
                overlay)
      then
        hit (Bytes.make n '\000')
      else
        match Hashtbl.find_opt node.n_snapshots path with
        | Some snap when off + n <= Bytes.length snap ->
          hit (Bytes.sub snap off n)
        | _ ->
          let buf = Staging.pfs_bytes t.core ~time ~rank path ~off ~len:n in
          List.iter (Staging.paint ~off buf) overlay;
          Staging.bump t.misses 1;
          buf)

let truncate t ~time path len =
  Pfs.truncate (pfs t) ~time path len;
  truncate_staged t path len

include Staging.Surface (struct
  type tier = t

  let core t = t.core
  let open_file = open_file
  let close_file = close_file
  let read = read
  let write = write
  let fsync = fsync
  let truncate = truncate
end)

(* Staging and publication -------------------------------------------------- *)

let stage_in t ~time ~rank path =
  let size = Pfs.file_size (pfs t) path in
  let r = Staging.pfs_read t.core ~time ~rank path ~off:0 ~len:size in
  let node = get_node t (node_of_rank t rank) in
  Hashtbl.replace node.n_snapshots path r.Fdata.data;
  let n = Bytes.length r.Fdata.data in
  Staging.bump t.stage_in n;
  n

let laminate t ~time path =
  ignore (drain_for_file t ~time path);
  Pfs.laminate (pfs t) ~time path

let stage_out t ~time path =
  let b = drain_for_file t ~time path in
  Staging.bump t.stage_out b;
  Pfs.laminate (pfs t) ~time path

(* Every extent is attempted; an aborted one stays staged and the rest of
   the backlog, its own file included, still drains. *)
let drain_all t ?(time = max_int) () =
  Staging.drain_all t.core ~replay:(drain_extent t ~time)

(* A node crash loses the node's undrained (dirty) staged bytes: they exist
   only in its local buffer, so they never reach the PFS, and the core's
   ledger tallies them lost.  Clean (drained) cached extents and snapshots
   are mere caches — also gone, but no data is lost with them. *)
let crash_node t ~node:id =
  match Hashtbl.find_opt t.nodes id with
  | None -> 0
  | Some node ->
    let lost = ref 0 in
    Hashtbl.iter
      (fun _ l ->
        List.iter
          (fun (x : Staging.record) ->
            if x.state = Pending then begin
              lost := !lost + Bytes.length x.data;
              Staging.lose t.core x
            end
            else Staging.drop t.core x)
          !l)
      node.n_by_file;
    Hashtbl.reset node.n_by_file;
    Hashtbl.reset node.n_snapshots;
    if !lost > 0 then begin
      Staging.bump t.crash_lost !lost;
      Obs.gauge "bb.backlog" (occupancy t)
    end;
    !lost

(* Statistics --------------------------------------------------------------- *)

type stats = {
  core : Staging.stats;
  stage_in_bytes : int;
  stage_out_bytes : int;
  cache_hits : int;
  cache_misses : int;
  crash_lost_bytes : int;
}

let stats (t : t) =
  {
    core = Staging.stats t.core;
    stage_in_bytes = t.stage_in.n;
    stage_out_bytes = t.stage_out.n;
    cache_hits = t.hits.n;
    cache_misses = t.misses.n;
    crash_lost_bytes = t.crash_lost.n;
  }

let pp_stats ppf s =
  let c = s.core in
  Format.fprintf ppf
    "@[<v>writes: %d (%d B)  reads: %d (%d B)@,\
     staged: %d B  drained: %d B  backlog never drained: %d B@,\
     stage-in: %d B  stage-out: %d B@,\
     cache hits/misses: %d/%d  drain stalls: %d (%d B)  peak occupancy: %d B@,\
     stale reads: %d (%d B)"
    c.writes c.bytes_written c.reads c.bytes_read c.staged_bytes
    c.drained_bytes
    (c.staged_bytes - c.drained_bytes)
    s.stage_in_bytes s.stage_out_bytes s.cache_hits s.cache_misses c.stalls
    c.stalled_bytes c.peak_occupancy c.stale_reads c.stale_bytes;
  (* Fault counters appear only when faults were injected, so fault-free
     output is byte-identical with the injector absent. *)
  if c.faults > 0 || c.retries > 0 || c.aborts > 0 || s.crash_lost_bytes > 0
  then
    Format.fprintf ppf
      "@,drain faults: %d (%d retries, %d backoff ticks, %d aborts)  crash \
       lost: %d B"
      c.faults c.retries c.backoff_ticks c.aborts s.crash_lost_bytes;
  if c.target_down > 0 then
    Format.fprintf ppf "@,drains refused by down target: %d" c.target_down;
  Format.fprintf ppf "@]"
