(** The staging core shared by the host-side logs — the burst buffer
    ({!Hpcfs_bb.Tier}), the write-ahead log ({!Hpcfs_wal.Wal}) and the
    client retry journal ({!Journal}): a store of write records held on
    compute nodes and replayed into the backing {!Pfs.t} later.

    Every record keeps the original issue timestamp and rank of its write,
    and {!replay} hands both to {!Pfs.write}.  The backing file therefore
    ends up with exactly the write history a direct run builds; a staging
    tier changes {e when} bytes reach the servers, never what the PFS's
    consistency engine lets a process observe.

    The core owns the mechanics the logs share:
    - the record store: global backlog (staging order), per-file queues
      and pending bytes, the staged size high-water mark, per-node pending
      bytes, occupancy and its peak;
    - replay of one record, the paced backlog drain and head-of-backlog
      eviction;
    - truncation, which cuts pending and applied records alike;
    - stall accounting and the capped-backoff admission loop of an
      injected fault hook;
    - the staleness ground truth of a read;
    - the {!Backend.t} record;
    - the crash ledger and the post-crash {!check}.

    Which retained records a storage failure forces back into the PFS is
    the PFS's own durability rule, {!Pfs.settled}.  What differs between
    logs — when to flush, what a read overlays, what a crash loses — stays
    in the log's module. *)

type state =
  | Pending  (** Staged on its node, not yet in the PFS. *)
  | Applied  (** Replayed (or accepted directly); the PFS holds the bytes. *)
  | Dropped  (** Truncated away, invalidated or lost: ignore everywhere. *)

type record = {
  seq : int;  (** Global staging order; per-file order is a subsequence. *)
  file : string;
  node : int;
  rank : int;
  time : int;  (** Original issue time, replayed as is. *)
  off : int;
  mutable data : bytes;
  mutable state : state;
}

type t

val create :
  prefix:string -> staged:string -> drained:string -> fault:string ->
  events:string * string -> ranks_per_node:int ->
  retry:Hpcfs_util.Backoff.policy -> Pfs.t -> t
(** Counters are named [<prefix>.<name>]: [staged] counts the bytes
    entering the store, [drained] the bytes {!replay} moves into the PFS,
    [fault] is the stem of the admission-loop counters
    ([<fault>_faults], [_retries], [_backoff_ticks], [_aborts]).  [events]
    names the instants of a paced drain pass and of a stall. *)

val pfs : t -> Pfs.t

val node_of_rank : t -> int -> int
(** Negative synthetic ranks keep their own identity. *)

(** {1 Record store} *)

val append :
  t -> time:int -> rank:int -> string -> off:int -> bytes -> record
(** Stage the write on the rank's node.  The record keeps the caller's
    buffer, not a copy, and {!replay} hands the same buffer on to
    {!Pfs.write}: the caller must not mutate it afterwards.  The store never
    mutates it either; {!clip} replaces it with a cut copy. *)

val file_queue : t -> string -> record Queue.t option
(** The file's records in staging order.  A tier may compact it, as long
    as every {!Pending} record stays.  A tier that moves a record into or
    out of {!Pending} itself, rather than through {!replay}, {!drop},
    {!mark_applied} or {!truncate}, must call {!resync} afterwards. *)

val iter_pending : t -> string -> (record -> unit) -> unit
(** The file's {!Pending} records in staging order.  A file with no
    pending bytes costs one lookup, however long its queue. *)

val iter_files : t -> (string -> record Queue.t -> unit) -> unit
(** Every file's queue, in no particular order. *)

val pending : t -> node:int -> int
(** Pending bytes staged on [node]. *)

val pending_in_file : t -> string -> int
(** Pending bytes of one file, kept as a count (O(1)). *)

val occupancy : t -> int
(** Pending bytes across all nodes. *)

val drop : t -> record -> unit
(** Mark a record {!Dropped}, releasing its pending bytes. *)

val mark_applied : t -> record -> unit
(** Mark a just-appended {!Pending} record {!Applied} without replaying
    it, releasing its pending bytes: the log retains a write the PFS
    already accepted directly. *)

val resync : t -> unit
(** Rebuild the backlog, the per-file and per-node pending bytes and the
    occupancy from the per-file queues, after a tier moved records between
    states wholesale (crash handling). *)

val file_size : t -> string -> int
(** PFS size, or the staged high-water mark if larger. *)

val extend : t -> string -> int -> unit
(** Raise the file's staged high-water mark to the given end offset. *)

val clip : t -> record -> int -> unit
(** Cut one {!Pending} or {!Applied} record at a file length: a record
    wholly past it is {!drop}ped, one straddling it keeps its prefix. *)

val truncate : t -> string -> int -> unit
(** {!clip} every record of the file's queue, and its high-water mark, at
    the given length.  Applied records are cut too, so a log that replays
    them again after a storage failure does not bring the bytes back. *)

(** {1 Replay} *)

val replay : t -> record -> int
(** Write a {!Pending} record into the PFS at its original (time, rank);
    returns the bytes applied.  0 when the record is not pending, or when
    its storage target is down: the record then stays pending. *)

val iter_backlog : t -> (record -> unit) -> unit
(** Every {!Pending} record, in staging order.  The walk also passes over
    the records replayed or dropped since a drain pass last popped them. *)

val drain_head : t -> replay:(record -> int) -> more:(int -> bool) -> int
(** Replay from the head of the backlog while [more drained_so_far]
    holds, oldest first.  A record the tier's [replay] leaves pending
    stops the pass, preserving staging order.  Returns the bytes
    drained. *)

val drain_all : t -> replay:(record -> int) -> int
(** Offer every pending record to [replay], in staging order; those it
    leaves pending stay queued, in order.  Returns the bytes drained.  The
    tier's [replay] decides whether a blocked record holds back the rest
    of its file. *)

val paced_drain :
  t -> time:int -> bandwidth:int -> interval:int -> replay:(record -> int) ->
  unit
(** Once [interval] ticks have passed since the last pass, drain up to
    [bandwidth] × elapsed ticks of backlog with {!drain_head}.  The last
    record is never split: real drains move whole records. *)

val stall : t -> int -> unit
(** Account a synchronous drain of the given bytes a caller waited for
    (no-op for 0). *)

(** {1 Fault admission} *)

val set_fault :
  t -> ?prng:Hpcfs_util.Prng.t -> (node:int -> time:int -> bool) option ->
  unit

val admitted : t -> time:int -> node:int -> bool
(** Ask the installed fault hook; a failed attempt retries under the
    capped backoff, accounted rather than slept.  [false] once the retry
    budget is spent.  Always [true] with no hook. *)

(** {1 Reads} *)

val paint : off:int -> bytes -> record -> unit
(** Overlay the record's bytes on a buffer holding the file at [off]. *)

val pfs_read :
  t -> time:int -> rank:int -> string -> off:int -> len:int -> Fdata.read_result
(** A PFS read that degrades (missing chunks read as zeroes) rather than
    fails when a storage target is down. *)

val pfs_bytes :
  t -> time:int -> rank:int -> string -> off:int -> len:int -> bytes
(** {!pfs_read}'s data, zero-filled to [len] bytes. *)

val count_write : t -> int -> unit
(** Account one application write of the given length. *)

val read :
  t -> string -> off:int -> len:int -> serve:(int -> bytes) ->
  Fdata.read_result
(** Clamp the request to {!file_size}, let [serve n] produce the tier's
    answer for the [n] bytes at [off], and count its stale bytes against
    the strong ground truth: the PFS oracle with every pending record of
    the file painted on top in staging order.  Beyond the two buffers, a
    read costs a walk of the file's queue only when it has pending bytes,
    one memcmp of the answer, and a per-byte count only when they
    differ. *)

(** {1 The backend facade} *)

module type TIER = Staging_intf.TIER with type core := t
module type SURFACE = Staging_intf.SURFACE

(** A tier's surface, with {!file_size} and the {!Backend.t} record. *)
module Surface (T : TIER) : SURFACE with type tier := T.tier

(** {1 Crash ledger and post-crash check}

    Every tier's answer to "what did the failure cost each file?" is kept
    here, per file: the bytes recovery replays brought back, and the bytes
    failures destroyed, whole or torn.  The ledger moves only when a tier
    reports a loss or a recovery, never on append, replay or drain. *)

val lose : t -> ?torn:bool -> record -> unit
(** A failure destroyed the record: {!drop} it and tally its bytes on its
    file as lost, or as torn when [torn] (the in-flight write a crash
    cut). *)

val recovered : t -> record -> int -> unit
(** A recovery replay of the record brought the given bytes back. *)

val lost_bytes : t -> int
(** Bytes lost or torn, over every file the store ever held. *)

type verdict =
  | Clean  (** Nothing lost, nothing left pending, nothing recovered. *)
  | Recovered  (** Recovery replays brought bytes back; nothing is lost. *)
  | Corrupted  (** Bytes were lost, torn, or cannot be replayed. *)

type file_check = {
  c_path : string;
  c_verdict : verdict;
  c_recovered_bytes : int;  (** Brought back by recovery replays. *)
  c_lost_bytes : int;  (** Destroyed whole. *)
  c_torn_bytes : int;  (** The torn in-flight write. *)
  c_pending_bytes : int;  (** Still pending: no live target to replay to. *)
}

type check = {
  files : file_check list;  (** Every file of the PFS namespace, by path. *)
  recovered_bytes : int;
  lost_bytes : int;
  torn_bytes : int;
  pending_bytes : int;
  clean : int;
  recovered : int;
  corrupted : int;
}

val check : t -> check
(** The post-crash fsck: classify every file of the PFS namespace from the
    ledger and {!pending_in_file}.  Pure: the tier runs its own final
    replay first. *)

val pp_check : prefix:string -> Format.formatter -> check -> unit
(** [<prefix>-fsck: N files, ...], then one line per file that is not
    [Clean]. *)

(** {1 Statistics} *)

type counter = private { name : string; mutable n : int }
(** A statistic mirrored into the obs counter [name]. *)

val counter : string -> counter
val bump : counter -> int -> unit

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;  (** Bytes the application wrote through the log. *)
  bytes_read : int;
  staged_bytes : int;  (** Bytes that entered the store. *)
  drained_bytes : int;  (** Bytes {!replay} moved into the PFS. *)
  stalls : int;
      (** Synchronous drains a caller waited for (close/fsync flushes,
          capacity evictions). *)
  stalled_bytes : int;  (** Bytes drained inside stalls. *)
  faults : int;  (** Failed attempts of the admission loop. *)
  retries : int;  (** Retry attempts after failures. *)
  backoff_ticks : int;  (** Total backoff delay accounted. *)
  aborts : int;  (** Admissions abandoned after the retry budget. *)
  target_down : int;
      (** Replays refused by a down storage target; the record stays
          pending for a later pass. *)
  peak_occupancy : int;  (** High-water mark of pending bytes. *)
  stale_reads : int;  (** Reads returning at least one stale byte. *)
  stale_bytes : int;
}
(** A snapshot of the core's counters; the obs counters carry the same
    numbers live. *)

val stats : t -> stats

val laminated : Pfs.t -> string -> bool
(** The file exists and is laminated (read-only, published). *)

val touches_target : Pfs.t -> off:int -> len:int -> target:int -> bool
(** Does the byte range stripe onto storage target [target]? *)
