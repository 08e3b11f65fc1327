(** The burst-buffer storage tier: a per-node write-back shim between the
    I/O layers and the backing PFS.

    A policy over the {!Hpcfs_fs.Staging} core, which owns replay at the
    original (time, rank), the paced drain and staleness accounting.  Each
    node owns an append-log of staged write extents: a write lands in the
    writing node's log and is {e drained} according to the configured
    {!Drain.t} policy.  Reads compose the backing PFS's answer with the
    reading node's log, giving read-your-writes for everything the node
    staged; a read fully served by the node log or by a {!stage_in}
    snapshot never touches the PFS at all.  Metadata operations go
    straight to the backing namespace, which stays strongly consistent. *)

type config = {
  ranks_per_node : int;  (** Ranks sharing one node-local buffer. *)
  policy : Drain.t;
  capacity_per_node : int option;
      (** Buffer bytes per node; staging beyond it forces a synchronous
          drain of the node's oldest extents (a stall).  [None] =
          unbounded. *)
  retry : Hpcfs_util.Backoff.policy;
      (** Backoff policy for transient drain failures (only exercised when
          a fault hook is installed via {!set_fault}). *)
}

val default_config : config
(** 4 ranks per node, {!Drain.Sync_on_close}, unbounded buffers,
    {!Hpcfs_util.Backoff.default}. *)

type t

val create : ?config:config -> Hpcfs_fs.Pfs.t -> t
(** A tier staging onto [pfs].  The tier does not own the PFS: callers may
    keep reading it directly (e.g. for post-run validation). *)

val config : t -> config

val node_of_rank : t -> int -> int
(** The node a rank's writes are staged on. *)

val core : t -> Hpcfs_fs.Staging.t
(** The staging core holding the staged extents, for inspection. *)

(** {1 The PFS-shaped data surface}

    Opening passes through to the PFS (sessions are recorded there) and
    invalidates the node's {e drained} cached extents and stage-in
    snapshot for the file — the close-to-open cache invalidation burst
    buffers perform — while undrained (dirty) extents are kept.  A write
    stages into the node log.  Close and fsync apply the drain policy to
    the calling node's staged extents of the file, then record the
    operation on the PFS: under [Sync_on_close] and [Async] the extents
    drain (fsync is a commit — the data must reach the PFS); under
    [On_laminate] staged data stays local.  A read is the composite read
    described above. *)

include Hpcfs_fs.Staging.SURFACE with type tier := t

(** {1 Staging and publication} *)

val stage_in : t -> time:int -> rank:int -> string -> int
(** Prefetch the file's PFS-visible contents (as seen by [rank] at
    [time]) into the rank's node read cache; returns the bytes staged.
    Subsequent in-range reads by the node are served locally.  Call it
    with the file open (session semantics otherwise show nothing). *)

val stage_out : t -> time:int -> string -> unit
(** Publish a completed output: drain every node's staged extents for the
    file, then laminate it on the PFS (globally visible, read-only) —
    the UnifyFS workflow for checkpoint outputs. *)

val laminate : t -> time:int -> string -> unit
(** Same draining and lamination as {!stage_out}, accounted as lamination
    rather than explicit stage-out. *)

val drain_all : t -> ?time:int -> unit -> int
(** Force-drain the whole backlog (e.g. at end of job); returns the bytes
    drained.  Extents whose drain failed past the retry budget stay
    staged. *)

(** {1 Fault injection} *)

val set_fault :
  t -> ?prng:Hpcfs_util.Prng.t -> (node:int -> time:int -> bool) option ->
  unit
(** Install (or clear) a transient drain-failure hook: every drain attempt
    asks the hook; [true] makes the attempt fail, retried under the
    configured [retry] policy with backoff delays drawn from
    [prng].  With no hook installed the drain path is untouched. *)

val crash_node : t -> node:int -> int
(** [crash_node t ~node] loses the node's buffer to a crash: every
    undrained staged extent is lost ({!Hpcfs_fs.Staging.lose}) — those
    bytes never reach the PFS — and the node's clean caches are
    invalidated.  Returns the undrained bytes lost.  After the final
    {!drain_all}, {!Hpcfs_fs.Staging.check} on {!core} classifies the
    files. *)

(** {1 Statistics} *)

type stats = {
  core : Hpcfs_fs.Staging.stats;
      (** The staging core's counters: [staged_bytes] entered node logs,
          [drained_bytes] were replayed into the backing PFS, [stalls] are
          close/fsync flushes and capacity evictions, and the admission
          counters ([faults], [retries], [backoff_ticks], [aborts]) count
          injected transient drain failures. *)
  stage_in_bytes : int;
  stage_out_bytes : int;  (** Bytes drained by stage-out/lamination. *)
  cache_hits : int;  (** Reads served without touching the PFS. *)
  cache_misses : int;  (** Reads that needed a PFS read underneath. *)
  crash_lost_bytes : int;  (** Undrained bytes lost to node crashes. *)
}

val stats : t -> stats
val occupancy : t -> int
(** Current undrained bytes across all nodes. *)

val pp_stats : Format.formatter -> stats -> unit
