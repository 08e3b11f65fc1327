(** Per-file write history and visibility resolution.

    A regular file is stored not as a flat byte array but as the full log of
    write extents, together with the publishing events (commits, closes)
    and session opens of every process.  Each file interprets one
    consistency engine ({!Consistency.t}), fixed when it is created, and
    records only what that engine reads: one publish time per write and
    one list of publishing events per process.  A read is answered by
    composing the writes that are {e visible} to the reading process under
    that engine; the same read also reports how many of the requested
    bytes are {e stale} — covered by a newer write that is not yet visible.
    Staleness is what turns a "potential conflict" of the paper into an
    observable wrong read, so it is the ground truth the trace-analysis
    predictions are validated against. *)

type t

val create : Consistency.t -> t
(** An empty file under the given consistency engine. *)

val size : t -> int
(** Current file size: the high-water mark of all writes and truncations.
    (Metadata is kept strongly consistent; only data visibility is
    relaxed.) *)

val write : t -> rank:int -> time:int -> off:int -> bytes -> unit
(** Record a write of the full buffer at [off]. Extends the size if needed. *)

val truncate : t -> time:int -> int -> unit
(** [truncate t ~time len] discards write history beyond [len] and sets the
    size.  Truncation is modeled as a strongly-consistent metadata
    operation. *)

type read_result = {
  data : bytes;  (** Bytes visible to the reader; unwritten bytes are 0. *)
  stale_bytes : int;
      (** Requested bytes whose globally-latest write was not visible to the
          reader — each is a consistency violation waiting to happen. *)
}

val read :
  ?local_order:bool -> t -> rank:int -> time:int -> off:int -> len:int ->
  read_result
(** Resolve a read of [len] bytes at [off] as seen by [rank] at [time]
    under the file's engine.  Reads past the current size return the
    in-range prefix.

    [local_order] (default true) is the single-process guarantee of
    Section 3.5: a process's own overlapping writes take effect in issue
    order.  BurstFS does not provide it — with [local_order:false],
    overlapping writes published by the same commit take effect in an
    adversarial (reversed) order, modelling the paper's warning that "a
    read following two writes from the same process could return the value
    of either write". *)

val oracle : t -> off:int -> len:int -> bytes
(** The bytes a strongly-consistent PFS would return for the range: every
    write in issue order, whatever the file's engine.  The ground truth
    staged reads are compared against; no stale count is computed.  Reads
    past the current size return the in-range prefix. *)

val commit : t -> rank:int -> time:int -> unit
(** Record a commit (fsync/fdatasync) by [rank].  Only commit semantics
    publishes on it. *)

val session_open : t -> rank:int -> time:int -> unit
(** Record the start of a session ([open]) by [rank].  Only session
    semantics reads opens. *)

val session_close : t -> rank:int -> time:int -> unit
(** Record the end of a session ([close]) by [rank].  A close also counts
    as a commit, as in the systems surveyed by the paper. *)

val laminate : t -> time:int -> unit
(** UnifyFS-style lamination (Section 3.2): the file becomes permanently
    read-only and all of its data becomes globally visible, regardless of
    the consistency model.  Later writes raise [Invalid_argument].  A
    second lamination keeps the earliest lamination time. *)

val is_laminated : t -> bool

type crash_stats = {
  lost_writes : int;  (** Pending writes dropped entirely. *)
  lost_bytes : int;  (** Bytes of pending data that did not survive. *)
  torn_writes : int;  (** In-flight writes that survived (possibly) partially. *)
  torn_bytes : int;  (** Bytes surviving from torn writes. *)
}

val no_crash_stats : crash_stats
val add_crash_stats : crash_stats -> crash_stats -> crash_stats

val crash :
  t -> time:int -> stripe_size:int -> keep_stripes:(total:int -> int) ->
  crash_stats
(** [crash t ~time ~stripe_size ~keep_stripes] applies the crash-time
    durability rules of the file's consistency engine to the write
    history, as of a whole-job crash at [time]:

    - a write {e persisted} under the engine's rules survives whole.  Under
      strong consistency every write issued before the crash is durable on
      arrival; under commit consistency a write survives only if the writer
      committed ([fsync]/[close]) after it and before the crash; under
      session consistency only if the writer closed its session; under
      eventual consistency only if the propagation delay had elapsed.
      Lamination persists everything.
    - per rank, the {e newest} unpersisted write is considered in flight: it
      is torn at stripe boundaries, keeping a prefix of
      [keep_stripes ~total] whole stripes out of [total] pieces (callers
      drive this from a seeded PRNG for determinism).
    - every other unpersisted write is lost outright.

    The file size (metadata, kept strongly consistent by the MDS) is left
    unchanged: bytes lost from the middle of a file read back as holes.
    Session/commit event history survives — it describes operations that
    completed before the crash. *)

val settled : t -> rank:int -> issued:int -> time:int -> bool
(** Is a write [rank] issued at [issued] persisted as of [time]?  The rule
    {!crash} applies, asked of the file's publishing events instead of a
    logged write: strong persists on arrival; commit once [rank]
    committed or closed after the write, by [time]; session once it
    closed; eventual once the propagation delay elapsed.  Lamination
    persists everything.  Host-side logs use it to tell which retained
    writes a storage failure cannot take from the PFS. *)

val crash_target :
  t ->
  time:int ->
  stripe_size:int ->
  server_count:int ->
  target:int ->
  crash_stats * int list
(** [crash_target t ~time ~stripe_size ~server_count ~target] drops the
    volatile (non-persisted, under the same per-engine rules as
    {!crash}) bytes stored on one failed storage target: every stripe chunk
    of every unpersisted live write whose chunk maps to [target] under the
    round-robin layout.  A write losing all of its chunks is lost outright;
    one losing some is torn, its surviving chunks re-inserted with the
    original rank and issue time.  Persisted data is untouched — it made it
    to stable storage (or the failover replica) before the failure.

    Returns the loss statistics and the sorted list of ranks that had at
    least one byte dropped (their client state — locks, cached handles —
    must be reconciled by the caller).  Laminated files lose nothing. *)

val write_count : t -> int
(** Number of recorded write extents (for tests and reports). *)
