(** Host-side write-ahead logging tier.

    A policy over the {!Hpcfs_fs.Staging} core, like {!Hpcfs_bb.Tier}, but
    with journal semantics instead of cache semantics: every write appends
    a record to its compute node's sequential log and is acknowledged at
    append time.  The core's paced drain replays the log into the PFS at
    the original [(time, rank)], so the PFS's own consistency engine still
    governs publication, and its rule ({!Hpcfs_fs.Consistency.publication})
    says when a file's replay must be complete: before a read observes it
    where writes publish on arrival, by the return of every publishing
    operation, and within the engine's delay.

    Crash semantics are defined end to end.  A whole-job crash loses only
    the victim node's un-flushed log tail, torn at a record boundary;
    records already on the log platter survive and are re-replayed after
    restart.  A storage-target or MDS failure during replay parks the
    affected records host-side for journal-style re-replay.  A planned
    log-device failure ([logfail:]) retries under the configured capped
    backoff and then degrades that write to write-through; a log-capacity
    plan ([logcap=]) forces drain-stalls and write-through once a node's
    log is full.  The crash ledger lives in the staging core, and {!check}
    runs the core's post-crash fsck after a final replay. *)

type t

type config = {
  ranks_per_node : int;
      (** Ranks sharing one node-local log (and its flush watermark). *)
  bandwidth_bytes_per_tick : int;  (** Background replay bandwidth. *)
  drain_interval : int;
      (** Logical ticks between background replay passes. *)
  capacity_per_node : int option;
      (** Log size limit; [None] = unbounded.  A full log forces replay
          stalls, then write-through. *)
  retry : Hpcfs_util.Backoff.policy;
      (** Retry policy for transient log-device failures ([logfail:]). *)
}

val default_config : config
(** 4 ranks/node, 64 KiB/tick replay bandwidth, drain every 32 ticks,
    unbounded log, {!Hpcfs_util.Backoff.default} retries. *)

val create : ?config:config -> Hpcfs_fs.Pfs.t -> t

val config : t -> config

val core : t -> Hpcfs_fs.Staging.t
(** The staging core holding the log's records, for inspection. *)

val occupancy : t -> int
(** Logged-but-not-yet-replayed bytes across all node logs. *)

val node_of_rank : t -> int -> int
(** Which node's log a rank appends to (negative synthetic ranks keep
    their own identity). *)

(** {1 Data operations}

    Metadata failures ([Target.Mds_down]) propagate from the PFS.  A
    fault-free WAL run reports exactly the staleness a direct run would. *)

include Hpcfs_fs.Staging.SURFACE with type tier := t

val drain_all : t -> int
(** Replay everything that can reach a live target (end-of-job epilogue,
    or after a target recovery); returns the bytes replayed.  Files whose
    replay head is refused by a down target keep their records logged, in
    order. *)

(** {1 Failure handling} *)

type crash_summary = {
  lost_bytes : int;  (** Un-flushed log-tail records destroyed whole. *)
  torn_bytes : int;  (** The in-flight append, torn at its boundary. *)
}

val on_crash : t -> ?victim:int -> time:int -> unit -> crash_summary
(** Apply a whole-job crash to the log.  Call {b before}
    {!Hpcfs_fs.Pfs.crash}: applied-but-unpublished records revert to the
    log (with their file's applied suffix, preserving replay order) so the
    post-restart replay rebuilds what the PFS is about to drop.  [victim]
    is the crashed node ({!node_of_rank} of the crashed rank); omit it for
    a victimless abort (MDS death), which loses no log bytes. *)

val on_target_fail : t -> time:int -> target:int -> unit
(** A storage target failed: park its applied-but-unpersisted records
    (and each file's applied suffix after them) for re-replay. *)

(** {1 Post-crash fsck} *)

type check = Hpcfs_fs.Staging.check = {
  files : Hpcfs_fs.Staging.file_check list;
  recovered_bytes : int;
  lost_bytes : int;
  torn_bytes : int;
  pending_bytes : int;
  clean : int;
  recovered : int;
  corrupted : int;
}
(** {!Hpcfs_fs.Staging.check}, re-exported so code reading the WAL's check
    as [c.Wal.lost_bytes] (the end-to-end harness does) keeps working. *)

val check : t -> check
(** The WAL's final replay ({!drain_all}), then
    {!Hpcfs_fs.Staging.check}: what the durable log recovered, and what
    the crash semantics let disappear. *)

(** {1 Fault injection} *)

val set_fault :
  t -> ?prng:Hpcfs_util.Prng.t -> (node:int -> time:int -> bool) option -> unit
(** Install the injector's log-device failure hook ([logfail:] events);
    a [true] return fails one append attempt.  [prng] drives the retry
    backoff jitter (deterministic per plan seed). *)

val set_cap_override : t -> int option -> unit
(** A plan's [logcap=BYTES]: caps every node log below the configured
    capacity for the rest of the run. *)

(** {1 Statistics} *)

type stats = {
  core : Hpcfs_fs.Staging.stats;
      (** The staging core's counters: [staged_bytes] were acknowledged at
          log-append time, [drained_bytes] replayed into the PFS, [stalls]
          are synchronous replays a caller waited for, and the admission
          counters ([faults], [retries], [backoff_ticks], [aborts]) count
          injected log-device append failures. *)
  flushes : int;  (** fsync/close log-flush watermark bumps. *)
  writethrough_writes : int;  (** Writes degraded to direct PFS writes. *)
  writethrough_bytes : int;
  crash_lost_bytes : int;
  crash_torn_bytes : int;
  recovered_bytes : int;  (** Bytes re-replayed after a failure. *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Fault, crash and write-through lines appear only when nonzero, so
    fault-free output has a stable shape. *)
