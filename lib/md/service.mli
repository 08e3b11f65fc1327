(** The sharded metadata service.

    Layers two things over the authoritative {!Hpcfs_fs.Namespace} of a
    PFS:

    - a {b shard map} ({!Hpcfs_fs.Shardmap}): every operation is
      accounted against — and checked for availability on — the
      directory-partitioned shard owning the path, so a shared-directory
      create storm visibly funnels into one shard while
      file-per-process spreads across all of them, and [mdsfail]
      plans apply per shard;
    - a {b per-client stat/attribute/dentry cache} ({!Mdcache}) whose
      serve and invalidation protocol follows the PFS engine's rules
      ({!Hpcfs_fs.Consistency}): nothing is cached where writes publish
      on arrival; a publishing fsync clears the committing client's
      cache; an acquiring open drops what the client cached about the
      path; entries published after a delay are served up to it.

    Staleness is accounted against ground truth: every answer served
    from a cache is compared with the authoritative namespace at serve
    time — the metadata analogue of [Pfs.read_oracle] for data.  The
    cached answer is still what the caller gets; the comparison only
    feeds the [md.cache.stale_*] counters and {!stats}.

    Load is modelled in deterministic cost units (lookup 1, readdir 2,
    remove 2, create 3, rename 4; one client-side unit per issued call),
    never wall time, so benchmark output is bit-identical across runs. *)

type t

val create : Hpcfs_fs.Pfs.t -> t
(** Shard count and consistency engine are taken from the PFS
    ([Pfs.mds_shards] / [Pfs.semantics]). *)

(** {1 Lookups}

    Served from [client]'s cache when the engine allows; otherwise a
    server round-trip that refreshes the cache (except under strong
    semantics).  Server round-trips raise [Target.Mds_down] while the
    owning shard is [Down] — cache hits never do, which is the point:
    relaxed clients keep resolving cached entries through an outage. *)

val stat : t -> time:int -> client:int -> string -> Hpcfs_fs.Namespace.stat
(** Raises [Namespace.Not_found_path] — also for a {e cached negative}
    entry, even if the path has since been created (a stale miss). *)

val exists : t -> time:int -> client:int -> string -> bool
val is_dir : t -> time:int -> client:int -> string -> bool

val readdir : t -> time:int -> client:int -> string -> string list

(** {1 Mutations}

    Write-through: always a server round-trip on the owning shard.  The
    mutating client's own cached entries for the affected paths are
    dropped (metadata read-your-writes); {e other} clients' caches are
    deliberately left alone — that lag is exactly the staleness the
    engines differ on.  Namespace exceptions propagate unchanged. *)

val mkdir : t -> time:int -> client:int -> string -> unit
val rmdir : t -> time:int -> client:int -> string -> unit
val unlink : t -> time:int -> client:int -> string -> unit

val rename : t -> time:int -> client:int -> string -> string -> unit
(** Checks (and charges) both the source and destination shards. *)

(** {1 Protocol hooks} *)

val note_open : t -> time:int -> client:int -> create:bool -> string -> unit
(** Called by the POSIX layer before a backend open.  Where the open
    acquires, the client revalidates: it drops whatever it cached about
    the path.  The open itself is a server lookup (a create when the
    file springs into existence), charged to the owning shard. *)

val note_commit : t -> time:int -> client:int -> unit
(** Called on fsync and friends.  Where fsync publishes, the committing
    client revalidates: its whole cache is cleared. *)

val note_local_write : t -> client:int -> string -> unit
(** Called on the client's own data writes and truncates: drops just
    that client's attribute entry for the path so a process always sees
    its own size/mtime effects. *)

val reset_clients : t -> unit
(** A job restart: client caches die with the clients; the server-side
    namespace, shard loads and counters carry over. *)

(** {1 Statistics} *)

type stats = {
  server_ops : int;  (** Operations that reached a shard. *)
  by_op : (string * int) list;  (** Per-op server counts, sorted. *)
  shard_ops : int list;  (** Per-shard operation counts. *)
  shard_load : int list;  (** Per-shard load, cost units. *)
  server_makespan : int;  (** Busiest shard's load. *)
  client_makespan : int;  (** Busiest client's issued-op count. *)
  total_load : int;
  cache_hits : int;
  cache_misses : int;
  stale_stats : int;  (** Cache-served attrs that disagreed with truth. *)
  stale_dents : int;  (** Cache-served listings that disagreed. *)
  revalidations : int;  (** Entries dropped by commit/open protocol. *)
  invalidations : int;  (** Own-mutation entry drops. *)
  rejected : int;  (** Operations refused by a [Down] shard. *)
}

val stats : t -> stats

val makespan : stats -> int
(** The modelled metadata completion bound:
    [max server_makespan client_makespan]. *)

val hit_ratio : stats -> float
(** Hits over hits+misses; [0.] when no lookups were issued. *)
