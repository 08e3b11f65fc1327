(** Reference (pre-extent-store) per-file write history: the executable
    specification the extent store in {!Fdata} is differentially tested
    against.  Reads repaint the full write log, so cost is O(writes) per
    read — correct but slow; see test/test_fdata_equiv.ml and
    [bench perf readpath].

    A regular file is stored not as a flat byte array but as the full log of
    write extents, together with the commit / session events of every
    process.  A read is answered by composing the writes that are {e visible}
    to the reading process under the active consistency semantics
    ({!Consistency.t}); the same read also reports how many of the requested
    bytes are {e stale} — covered by a newer write that is not yet visible.
    Staleness is what turns a "potential conflict" of the paper into an
    observable wrong read, so it is the ground truth the trace-analysis
    predictions are validated against. *)

module Consistency = Hpcfs_fs.Consistency

type t

val create : unit -> t

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
  ?local_order:bool ->
  t -> semantics:Consistency.t -> rank:int -> time:int -> off:int -> len:int ->
  read_result
(** Resolve a read of [len] bytes at [off] as seen by [rank] at [time].
    Reads past the current size return the in-range prefix.

    [local_order] (default true) is the single-process guarantee of
    Section 3.5: a process's own overlapping writes take effect in issue
    order.  BurstFS does not provide it — with [local_order:false],
    overlapping writes published by the same commit take effect in an
    adversarial (reversed) order, modelling the paper's warning that "a
    read following two writes from the same process could return the value
    of either write". *)

val commit : t -> rank:int -> time:int -> unit
(** Record a commit (fsync/fdatasync/lamination) by [rank]. *)

val session_open : t -> rank:int -> time:int -> unit
(** Record the start of a session ([open]) by [rank]. *)

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
  t ->
  semantics:Consistency.t ->
  time:int ->
  stripe_size:int ->
  keep_stripes:(total:int -> int) ->
  crash_stats
(** [crash t ~semantics ~time ~stripe_size ~keep_stripes] applies the
    crash-time durability rules of the consistency engine to the write
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

val write_count : t -> int
(** Number of recorded write extents (for tests and reports). *)
