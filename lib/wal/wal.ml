module Pfs = Hpcfs_fs.Pfs
module Consistency = Hpcfs_fs.Consistency
module Target = Hpcfs_fs.Target
module Staging = Hpcfs_fs.Staging
module Backoff = Hpcfs_util.Backoff
module Obs = Hpcfs_obs.Obs

type config = {
  ranks_per_node : int;
  bandwidth_bytes_per_tick : int;
  drain_interval : int;
  capacity_per_node : int option;
  retry : Backoff.policy;
}

let default_config =
  {
    ranks_per_node = 4;
    bandwidth_bytes_per_tick = 65536;
    drain_interval = 32;
    capacity_per_node = None;
    retry = Backoff.default;
  }

(* A logged write is a {!Staging.record}, as a {!Hpcfs_fs.Journal} entry
   is: [Pending] is in the log, not yet replayed; [Applied] is replayed;
   [Dropped] was truncated away or died with its node's log — lost, or
   torn as the in-flight append (the core's ledger keeps which).  Unlike
   the burst buffer's, the per-file queues are never compacted: crash and
   target-failure handling walk every record a file ever logged, to revert
   its applied suffix. *)
type t = {
  core : Staging.t;
  config : config;
  (* Log-device flush watermark per node: the newest fsync/close any rank
     of the node completed.  Records appended strictly before it are on
     the log platter and survive the node's crash. *)
  flushed : (int, int) Hashtbl.t;
  (* Records that survived a crash or target failure in the durable log:
     their next replay is a recovery, tallied in the core's ledger. *)
  recovering : (int, unit) Hashtbl.t;
  mutable cap_override : int option;  (* a plan's logcap=BYTES *)
  mutable s_flushes : int;
  writethrough : Staging.counter;
  writethrough_bytes : Staging.counter;
  crash_lost : Staging.counter;
  crash_torn : Staging.counter;
  recovered : Staging.counter;
}

let create ?(config = default_config) pfs =
  {
    core =
      Staging.create ~prefix:"wal" ~staged:"appended_bytes"
        ~drained:"drained_bytes" ~fault:"log"
        ~events:("wal-drain", "wal-stall")
        ~ranks_per_node:config.ranks_per_node ~retry:config.retry pfs;
    config;
    flushed = Hashtbl.create 16;
    recovering = Hashtbl.create 16;
    cap_override = None;
    s_flushes = 0;
    writethrough = Staging.counter "wal.writethrough";
    writethrough_bytes = Staging.counter "wal.writethrough_bytes";
    crash_lost = Staging.counter "wal.crash_lost_bytes";
    crash_torn = Staging.counter "wal.crash_torn_bytes";
    recovered = Staging.counter "wal.recovered_bytes";
  }

let set_fault t ?prng hook = Staging.set_fault t.core ?prng hook
let set_cap_override t cap = t.cap_override <- cap
let pfs t = Staging.pfs t.core
let config t = t.config
let core t = t.core
let occupancy t = Staging.occupancy t.core
let node_of_rank t rank = Staging.node_of_rank t.core rank

let effective_cap t =
  match (t.config.capacity_per_node, t.cap_override) with
  | None, c | c, None -> c
  | Some a, Some b -> Some (min a b)

let flushed t node =
  Option.value ~default:min_int (Hashtbl.find_opt t.flushed node)

(* Is the log copy of [r] on stable log media as of [time]?  Where writes
   publish on arrival the log runs synchronously (every append hits the
   platter — the price of replay-before-visibility with no loss window);
   otherwise a flush by any rank of the node flushes the whole node log,
   and a record published after its delay no longer needs its log copy. *)
let durable t (r : Staging.record) ~time =
  let sem = Pfs.semantics (pfs t) in
  match Consistency.publication sem with
  | On_arrival -> true
  | At_operation -> flushed t r.node > r.time
  | After_delay ->
    r.time + Consistency.delay sem <= time || flushed t r.node > r.time

(* Is an applied record already persisted server-side?  Settled bytes
   survive a target failure on their own; unsettled ones must be
   re-replayed from the log. *)
let settled t (r : Staging.record) ~time =
  Pfs.settled (pfs t) ~rank:r.rank ~path:r.file ~issued:r.time ~time

(* Draining ---------------------------------------------------------------- *)

(* Replay one logged record; 0 means the backing target is down and the
   record stays logged — per-file replay order is preserved by never
   draining past a blocked record of the same file. *)
let drain_record t (r : Staging.record) =
  let n = Staging.replay t.core r in
  if n > 0 && Hashtbl.mem t.recovering r.seq then begin
    Hashtbl.remove t.recovering r.seq;
    Staging.bump t.recovered n;
    Staging.recovered t.core r n
  end;
  n

(* Replay a file's logged records in append order, stopping at the first
   blocked one: replay never reorders a file's write history.  [until]
   ends the pass early at a record it rejects. *)
let drain_for_file ?(until = fun _ -> true) t path =
  let drained = ref 0 in
  (try
     Staging.iter_pending t.core path (fun r ->
         if not (until r) then raise Exit;
         let n = drain_record t r in
         if n = 0 then raise Exit;
         drained := !drained + n)
   with Exit -> ());
  !drained

let maybe_bg_drain t ~time =
  Staging.paced_drain t.core ~time ~bandwidth:t.config.bandwidth_bytes_per_tick
    ~interval:t.config.drain_interval ~replay:(drain_record t)

(* Final/recovery replay: everything that can reach a live target does,
   skipping only files whose replay head is blocked — per-file order is
   kept even while other files drain past them. *)
let replay_all t =
  let blocked = Hashtbl.create 4 in
  Staging.drain_all t.core ~replay:(fun (r : Staging.record) ->
      if Hashtbl.mem blocked r.file then 0
      else begin
        let n = drain_record t r in
        if r.state = Pending then Hashtbl.replace blocked r.file ();
        n
      end)

let stall t bytes = Staging.stall t.core bytes

(* Whether [op] must wait for the file's replay: every publishing
   operation, and every flush where writes publish on arrival. *)
let flush_on t op =
  let sem = Pfs.semantics (pfs t) in
  Consistency.publication sem = On_arrival || Consistency.publishes_at sem op

(* Before a read observes the file, replay what is published by now: all
   of it on arrival, the records whose delay elapsed after a delay — the
   queue is issue-time ordered, so the aged set is a prefix. *)
let visibility_drain t ~time path =
  let sem = Pfs.semantics (pfs t) in
  match Consistency.publication sem with
  | On_arrival -> stall t (drain_for_file t path)
  | After_delay ->
    let delay = Consistency.delay sem in
    ignore
      (drain_for_file t path ~until:(fun (r : Staging.record) ->
           r.time + delay <= time))
  | At_operation -> ()

(* Data surface ------------------------------------------------------------- *)

let open_file t ~time ~rank ~create ~trunc path =
  maybe_bg_drain t ~time;
  if trunc then begin
    (* Apply everything logged first, then let the PFS cut it: the file
       ends up with exactly the write-then-truncate history of a direct
       run.  Records still blocked behind a dead target are truncated in
       the log — they would have been cut on the PFS anyway. *)
    ignore (drain_for_file t path);
    Staging.truncate t.core path 0
  end;
  ignore (Pfs.open_file (pfs t) ~time ~rank ~create ~trunc path);
  Staging.file_size t.core path

let note_flush t ~time ~rank =
  let node = node_of_rank t rank in
  Hashtbl.replace t.flushed node (max (flushed t node) time);
  t.s_flushes <- t.s_flushes + 1

let close_file t ~time ~rank path =
  maybe_bg_drain t ~time;
  if flush_on t `Close then stall t (drain_for_file t path);
  note_flush t ~time ~rank;
  Pfs.close_file (pfs t) ~time ~rank path

let fsync t ~time ~rank path =
  maybe_bg_drain t ~time;
  if flush_on t `Fsync then stall t (drain_for_file t path);
  note_flush t ~time ~rank;
  Pfs.fsync (pfs t) ~time ~rank path

let append_record t ~time ~rank path ~off data =
  ignore (Staging.append t.core ~time ~rank path ~off data)

(* Degrade one write to a direct PFS write (log device dead, or log full
   past eviction).  The file's logged records must land first or its write
   history would be reordered; when the replay head is blocked by a down
   target — or the direct write itself finds the target down — the record
   goes to the log after all (the controller buffers the append). *)
let write_through t ~time ~rank path ~off data =
  stall t (drain_for_file t path);
  let fallback () = append_record t ~time ~rank path ~off data in
  if Staging.pending_in_file t.core path > 0 then fallback ()
  else
    match Pfs.write (pfs t) ~time ~rank path ~off data with
    | () ->
      Staging.bump t.writethrough 1;
      Staging.bump t.writethrough_bytes (Bytes.length data)
    | exception Target.Target_down _ -> fallback ()

let write t ~time ~rank path ~off data =
  maybe_bg_drain t ~time;
  let len = Bytes.length data in
  Staging.count_write t.core len;
  if len > 0 then begin
    if Staging.laminated (pfs t) path then
      invalid_arg "Wal.write: file is laminated";
    let node = node_of_rank t rank in
    Staging.extend t.core path (off + len);
    (* The logfail retry loop: an append may fail transiently; past the
       retry budget the write degrades to write-through. *)
    if not (Staging.admitted t.core ~time ~node) then
      write_through t ~time ~rank path ~off data
    else begin
      (* Log-full backpressure: replay from the global head until this
         node's log fits the record — the stall a checkpoint burst pays
         when it outruns the drain bandwidth. *)
      let over_cap () =
        match effective_cap t with
        | Some cap -> Staging.pending t.core ~node + len > cap
        | None -> false
      in
      if over_cap () then begin
        let forced =
          Staging.drain_head t.core ~replay:(drain_record t)
            ~more:(fun _ -> over_cap ())
        in
        if forced > 0 then begin
          Obs.incr "wal.evictions";
          Obs.incr ~by:forced "wal.evicted_bytes"
        end;
        stall t forced
      end;
      if over_cap () then write_through t ~time ~rank path ~off data
      else append_record t ~time ~rank path ~off data
    end
  end

(* The PFS's answer with the caller's own still-logged records painted on
   top, in append order (read-your-writes) — the same local-order
   guarantee the PFS gives a process for its own unpublished writes. *)
let read t ~time ~rank path ~off ~len =
  maybe_bg_drain t ~time;
  visibility_drain t ~time path;
  Staging.read t.core path ~off ~len ~serve:(fun n ->
      let buf = Staging.pfs_bytes t.core ~time ~rank path ~off ~len:n in
      Staging.iter_pending t.core path (fun r ->
          if r.rank = rank then Staging.paint ~off buf r);
      buf)

let truncate t ~time path len =
  maybe_bg_drain t ~time;
  ignore (drain_for_file t path);
  Pfs.truncate (pfs t) ~time path len;
  Staging.truncate t.core path len

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

let drain_all t = replay_all t

(* Failure handling --------------------------------------------------------- *)

let recover t (r : Staging.record) = Hashtbl.replace t.recovering r.seq ()

(* Revert a file's applied suffix to the log, from the first applied record
   [starts] selects: everything applied after it is re-replayed too, so
   the replay rebuilds the file's history in issue order.  [logged] sees
   the records that were still in the log.  Laminated files are
   published for good and keep their state. *)
let revert_suffix t path q ~starts ~logged =
  if not (Staging.laminated (pfs t) path) then begin
    let reverting = ref false in
    Queue.iter
      (fun (r : Staging.record) ->
        match r.state with
        | Applied ->
          if (not !reverting) && starts r then reverting := true;
          if !reverting then begin
            r.state <- Pending;
            recover t r
          end
        | Pending -> logged r
        | Dropped -> ())
      q
  end

type crash_summary = { lost_bytes : int; torn_bytes : int }

(* A whole-job crash.  Pass 1: the victim node's log loses its un-flushed
   tail, torn at a record boundary — the newest non-durable record is the
   in-flight append (torn), the rest of the tail is lost.  Pass 2 (every
   node, and the only pass for a victimless MDS abort): the PFS is about
   to drop its unpublished bytes, so every applied-but-unsettled record —
   and everything applied after it in the same file, settled or not, to
   keep the file's replayed history in issue order — reverts to the log
   for re-replay.  Surviving logged records are marked as recoveries.
   Call this before {!Pfs.crash}. *)
let on_crash t ?victim ~time () =
  let lost = ref 0 and torn = ref 0 in
  let lose ~tear (r : Staging.record) =
    let len = Bytes.length r.data in
    if tear then torn := !torn + len else lost := !lost + len;
    Staging.lose t.core ~torn:tear r
  in
  Option.iter
    (fun v ->
      let dead = ref [] in
      Staging.iter_files t.core (fun _ q ->
          Queue.iter
            (fun (r : Staging.record) ->
              if r.node = v && not (durable t r ~time) then
                match r.state with
                | Pending -> dead := r :: !dead
                | Applied ->
                  (* The PFS may still persist settled bytes; only the log
                     copy is gone.  An unsettled applied record whose bytes
                     the PFS drops has no log copy to replay from: lost. *)
                  if not (settled t r ~time) then lose ~tear:false r
                | Dropped -> ())
            q);
      let newest_first (a : Staging.record) (b : Staging.record) =
        compare b.seq a.seq
      in
      match List.sort newest_first !dead with
      | [] -> ()
      | newest :: rest ->
        lose ~tear:true newest;
        List.iter (lose ~tear:false) rest)
    victim;
  (* Pass 2: revert the applied-but-unpersisted suffix of every file. *)
  Staging.iter_files t.core (fun path q ->
      revert_suffix t path q
        ~starts:(fun r -> not (settled t r ~time))
        ~logged:(recover t));
  Staging.resync t.core;
  if !lost > 0 then Staging.bump t.crash_lost !lost;
  if !torn > 0 then Staging.bump t.crash_torn !torn;
  { lost_bytes = !lost; torn_bytes = !torn }

(* A storage target failed: its unpersisted chunks are gone from the PFS,
   but every record lives host-side in the log.  Park the affected
   applied records — and the rest of each file's applied suffix — for
   journal-style re-replay once the target recovers or fails over. *)
let on_target_fail t ~time ~target =
  Staging.iter_files t.core (fun path q ->
      revert_suffix t path q ~logged:ignore ~starts:(fun r ->
          Staging.touches_target (pfs t) ~off:r.off ~len:(Bytes.length r.data)
            ~target
          && not (settled t r ~time)));
  Staging.resync t.core

(* Post-crash fsck ----------------------------------------------------------- *)

type check = Staging.check = {
  files : Staging.file_check list;
  recovered_bytes : int;
  lost_bytes : int;
  torn_bytes : int;
  pending_bytes : int;
  clean : int;
  recovered : int;
  corrupted : int;
}

let check t =
  ignore (replay_all t);
  Staging.check t.core

(* Statistics --------------------------------------------------------------- *)

type stats = {
  core : Staging.stats;
  flushes : int;
  writethrough_writes : int;
  writethrough_bytes : int;
  crash_lost_bytes : int;
  crash_torn_bytes : int;
  recovered_bytes : int;
}

let stats (t : t) =
  {
    core = Staging.stats t.core;
    flushes = t.s_flushes;
    writethrough_writes = t.writethrough.n;
    writethrough_bytes = t.writethrough_bytes.n;
    crash_lost_bytes = t.crash_lost.n;
    crash_torn_bytes = t.crash_torn.n;
    recovered_bytes = t.recovered.n;
  }

let pp_stats ppf s =
  let c = s.core in
  Format.fprintf ppf
    "@[<v>writes: %d (%d B)  reads: %d (%d B)@,\
     appended: %d B  replayed: %d B  backlog never replayed: %d B@,\
     flush stalls: %d (%d B)  peak log occupancy: %d B  stale reads: %d (%d B)"
    c.writes c.bytes_written c.reads c.bytes_read c.staged_bytes
    c.drained_bytes
    (c.staged_bytes - c.drained_bytes)
    c.stalls c.stalled_bytes c.peak_occupancy c.stale_reads c.stale_bytes;
  (* Fault counters appear only when faults were injected, so fault-free
     output never changes shape. *)
  if c.faults > 0 || s.writethrough_writes > 0 then
    Format.fprintf ppf
      "@,log faults: %d (%d retries, %d backoff ticks, %d aborts)  \
       write-through: %d (%d B)"
      c.faults c.retries c.backoff_ticks c.aborts s.writethrough_writes
      s.writethrough_bytes;
  if s.crash_lost_bytes > 0 || s.crash_torn_bytes > 0 || s.recovered_bytes > 0
  then
    Format.fprintf ppf
      "@,crash lost: %d B  torn: %d B  recovered by replay: %d B"
      s.crash_lost_bytes s.crash_torn_bytes s.recovered_bytes;
  if c.target_down > 0 then
    Format.fprintf ppf "@,replays refused by down target: %d" c.target_down;
  Format.fprintf ppf "@]"
