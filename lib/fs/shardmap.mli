(** Directory-partitioned metadata shard map.

    A path is owned by the shard of its parent directory, so all entries
    of one directory are served by one metadata shard (the Lustre-DNE /
    CephFS-dirfrag partitioning).  Per-rank subdirectories spread load
    across shards; a shared directory funnels every sibling operation
    into one.  Used by {!Pfs} for availability checks and by the
    metadata service (lib/md) for load accounting — pure function of the
    path, no state. *)

val parent : string -> string
(** Parent directory of an absolute '/'-separated path (["/"] for
    top-level entries and for the root itself).  Empty components are
    ignored, matching {!Namespace} path normalization. *)

val shard : shards:int -> string -> int
(** Owning shard of a path's parent directory, in [0 .. shards-1].
    Always 0 when [shards <= 1]. *)
