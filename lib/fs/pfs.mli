(** The parallel file system simulator.

    Combines the namespace, per-file write histories, a consistency engine
    and the lock-manager cost model behind one façade.  The POSIX layer
    (lib/posix) drives it; the validation experiments run the same
    application against different {!Consistency.t} values and compare what
    reads observe.

    The module is time-agnostic: callers pass logical timestamps (from
    [Sched.tick]) so the library stays usable on replayed traces too. *)

type t

val create :
  ?stripe:Stripe.t -> ?local_order:bool -> ?mds_shards:int -> Consistency.t ->
  t
(** Under strong semantics, accesses are accounted against a lock manager
    with 1 MiB lock granularity.  [local_order] (default true) is the
    single-process write-ordering guarantee; disable it to model BurstFS
    (Section 3.5).  [mds_shards] (default 1) is the number of
    directory-partitioned metadata shards in the failure domain (see
    {!Shardmap} and {!Target}). *)

val semantics : t -> Consistency.t
val namespace : t -> Namespace.t
val stripe : t -> Stripe.t

val targets : t -> Target.t
(** The storage-target failure domain: one target per stripe server (see
    {!Target}).  All up at creation; drive failures through
    {!fail_target} / {!fail_mds} so pending data is reconciled too. *)

val open_file :
  t -> time:int -> rank:int -> ?create:bool -> ?trunc:bool -> string -> int
(** Open a file, recording the start of a session for [rank]; returns its
    current size (after truncation).  Raises [Namespace.Not_found_path]
    when the file does not exist and [create] is false. *)

val close_file : t -> time:int -> rank:int -> string -> unit
(** Record the end of [rank]'s session (which also commits its writes) and
    release its locks. *)

val read : t -> time:int -> rank:int -> string -> off:int -> len:int -> Fdata.read_result
val write : t -> time:int -> rank:int -> string -> off:int -> bytes -> unit
(** Data-path operations raise {!Target.Target_down} when any stripe chunk
    of the extent maps to a [Down] target — before applying anything, so a
    failed write is never partially visible.  {!open_file} and {!truncate}
    raise {!Target.Mds_down} while the metadata server is down.

    Buffers follow {!Fdata}: a write hands its buffer over to the file's
    log (the caller must not mutate it afterwards), a read returns a fresh
    one. *)

val read_degraded :
  t -> time:int -> rank:int -> string -> off:int -> len:int -> Fdata.read_result
(** Like {!read} but never refuses service: chunks on [Down] targets read
    back as zeroes (counted as [fs.target.unreachable_bytes]).  The escape
    hatch a client uses after exhausting its retries. *)

val fsync : t -> time:int -> rank:int -> string -> unit
(** The commit operation of commit semantics. *)

val laminate : t -> time:int -> string -> unit
(** UnifyFS lamination: publish the file to every process and make it
    permanently read-only. *)

val truncate : t -> time:int -> string -> int -> unit

val file_size : t -> string -> int

val settled : t -> rank:int -> path:string -> issued:int -> time:int -> bool
(** {!Fdata.settled} under this PFS's engine: has the write [rank] issued
    at [issued] to [path] been persisted by [time]?  A path that no longer
    exists counts as settled — there is nothing left to replay into. *)

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  stale_reads : int;  (** Reads that returned at least one stale byte. *)
  stale_bytes : int;  (** Total stale bytes returned. *)
  locks : Lockmgr.counters;
}

val stats : t -> stats

val crash :
  t ->
  time:int ->
  ?keep_stripes:(total:int -> int) ->
  unit ->
  Fdata.crash_stats * (string * Fdata.crash_stats) list
(** [crash t ~time ()] applies a whole-job crash at logical time [time] to
    every regular file, dropping each file's pending write buffers per the
    configured consistency engine and tearing per-rank in-flight writes at
    this PFS's stripe boundaries (see {!Fdata.crash}).  Returns the
    aggregate loss statistics and the per-file breakdown, in sorted path
    order.  [keep_stripes] (default: keep nothing) decides how many whole
    stripes of each torn write reached storage. *)

val fail_target :
  t ->
  time:int ->
  ?failover:bool ->
  int ->
  Fdata.crash_stats * (string * Fdata.crash_stats) list * int list * int
(** [fail_target t ~time k] fails storage target [k]: the target goes
    [Down] ([Degraded] with [~failover:true] — a standby replica keeps
    serving its extents) and every file's unpersisted stripe chunks on it
    are dropped per the engine's durability rule ({!Fdata.crash_target}).
    Returns [(stats, per_file, ranks, evicted)]: aggregate and per-file
    (affected files only, sorted) loss statistics, the sorted ranks that
    lost bytes, and how many lock grants their eviction recalled. *)

val recover_target : t -> time:int -> int -> unit
(** Bring a failed target back to [Up].  Recovered storage is empty of the
    dropped volatile bytes — re-issuing them is the client's job (see
    {!Journal}). *)

val mds_shards : t -> int
(** Number of directory-partitioned metadata shards (1 = single MDS). *)

val fail_mds : ?shard:int -> t -> time:int -> unit
(** Fail one metadata shard, or all of them when [shard] is omitted (the
    legacy whole-MDS event).  Metadata operations on paths owned by a
    down shard raise {!Target.Mds_down}. *)

val recover_mds : ?shard:int -> t -> time:int -> unit

val evict_client : t -> client:int -> int
(** Recall every lock grant [client] holds (all files); returns the count.
    Called when a client dies (rank crash) so its grants don't outlive it. *)

val read_back : t -> time:int -> string -> Fdata.read_result
(** Read a file's full contents as a fresh observer that opens after every
    writer has closed — what a post-run validation pass (or the next job in
    a workflow) would see.  Uses a synthetic rank that never wrote. *)

val read_oracle : t -> string -> off:int -> len:int -> bytes
(** Ground-truth contents of a byte range: what a strongly-consistent file
    system would return, regardless of the configured semantics.  Performs
    no session bookkeeping and touches no statistics — it exists so that
    an external tier (lib/bb) can account staleness against the same
    oracle {!Fdata.read} uses internally.  Reads past the current size
    return the in-range prefix. *)
