(** Instrumented POSIX I/O API over the PFS simulator.

    This is the interposition point of the study: every call allocates a
    logical timestamp, emits a {!Hpcfs_trace.Record.t} into the run's
    collector (tagged with the software layer that issued it) and then
    performs the operation against {!Hpcfs_fs.Pfs}.  The surface mirrors
    the calls Recorder hooks: the data operations, the stdio variants, and
    the metadata/utility operations of the paper's footnote 3.

    All calls must run inside a [Sched.run] process body; rank identity is
    taken from the scheduler. *)

type ctx
(** Shared state of one traced run: the PFS, the trace collector, the
    metadata service, and the per-rank descriptor tables. *)

val make_ctx :
  ?mds:Hpcfs_md.Service.t -> Hpcfs_fs.Pfs.t -> Hpcfs_trace.Collector.t -> ctx
(** A ctx whose data operations go straight to the PFS.  [mds] (default: a
    fresh {!Hpcfs_md.Service} over the PFS) carries the metadata path —
    pass an existing service to keep shard loads and cache statistics
    across several ctxs of one run (e.g. restart attempts). *)

val make_ctx_backend :
  ?mds:Hpcfs_md.Service.t ->
  Hpcfs_fs.Backend.t -> Hpcfs_trace.Collector.t -> ctx
(** A ctx whose data operations route through an arbitrary backend (e.g. a
    burst-buffer tier); metadata operations go through the sharded
    metadata service over the backend's underlying PFS. *)

val pfs : ctx -> Hpcfs_fs.Pfs.t
val backend : ctx -> Hpcfs_fs.Backend.t
val collector : ctx -> Hpcfs_trace.Collector.t

val mds : ctx -> Hpcfs_md.Service.t
(** The metadata service: per-shard load, cache counters, staleness. *)

exception Posix_error of { func : string; path : string; msg : string }

type flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND

type origin = Hpcfs_trace.Record.origin

(** {1 Data operations} *)

val openf : ctx -> ?origin:origin -> string -> flag list -> int
(** [openf ctx path flags] returns a new file descriptor.  Raises
    {!Posix_error} when the file is absent and [O_CREAT] was not given. *)

val close : ctx -> ?origin:origin -> int -> unit

val read : ctx -> ?origin:origin -> int -> int -> bytes
(** The returned buffer is fresh: the caller owns it and may mutate it. *)

val write : ctx -> ?origin:origin -> int -> bytes -> int
(** The buffer is handed over, not copied: the backend and the file's
    write log keep it as written, so the caller must not mutate it
    afterwards.  Build a new buffer per write, or copy before reusing
    one.  Returns the bytes written. *)

val pread : ctx -> ?origin:origin -> int -> off:int -> int -> bytes
(** Like {!read}: a fresh buffer. *)

val pwrite : ctx -> ?origin:origin -> int -> off:int -> bytes -> int
(** Like {!write}: the callee owns the buffer from now on. *)

type whence = SEEK_SET | SEEK_CUR | SEEK_END

val lseek : ctx -> ?origin:origin -> int -> int -> whence -> int
(** Returns the new file position. *)

val fsync : ctx -> ?origin:origin -> int -> unit

(** {1 stdio variants}

    Thin wrappers over the same descriptors that trace under the stdio
    function names ([fopen], [fwrite], ...), since applications in the study
    (especially Fortran codes) appear in traces through stdio. *)

val fopen : ctx -> ?origin:origin -> string -> string -> int
(** [fopen ctx path mode] with mode one of "r", "r+", "w", "w+", "a", "a+". *)

val fclose : ctx -> ?origin:origin -> int -> unit
val fread : ctx -> ?origin:origin -> int -> int -> bytes
val fwrite : ctx -> ?origin:origin -> int -> bytes -> int
(** Buffer ownership as for {!read} and {!write}. *)

val fseek : ctx -> ?origin:origin -> int -> int -> whence -> unit
val fflush : ctx -> ?origin:origin -> int -> unit

(** {1 Metadata and utility operations (footnote 3)}

    These route through the sharded metadata service
    ({!Hpcfs_md.Service}): lookups may be served from the calling rank's
    stat/dentry cache according to the active consistency engine, and
    every server round-trip is accounted against — and refused by, with
    [Target.Mds_down] — the directory shard owning the path. *)

val stat : ctx -> ?origin:origin -> string -> Hpcfs_fs.Namespace.stat
val lstat : ctx -> ?origin:origin -> string -> Hpcfs_fs.Namespace.stat
val fstat : ctx -> ?origin:origin -> int -> Hpcfs_fs.Namespace.stat
val access : ctx -> ?origin:origin -> string -> bool
val mkdir : ctx -> ?origin:origin -> string -> unit
val rmdir : ctx -> ?origin:origin -> string -> unit
val unlink : ctx -> ?origin:origin -> string -> unit
val rename : ctx -> ?origin:origin -> string -> string -> unit
val getcwd : ctx -> ?origin:origin -> unit -> string
val chdir : ctx -> ?origin:origin -> string -> unit
val truncate : ctx -> ?origin:origin -> string -> int -> unit
val ftruncate : ctx -> ?origin:origin -> int -> int -> unit
val dup : ctx -> ?origin:origin -> int -> int
val fcntl : ctx -> ?origin:origin -> int -> string -> int
val umask : ctx -> ?origin:origin -> int -> int
val fileno : ctx -> ?origin:origin -> int -> int
val opendir : ctx -> ?origin:origin -> string -> string list
(** Emits [opendir]/[readdir]/[closedir] records and returns the entries,
    modelling the usual scan loop in one call. *)

val mmap : ctx -> ?origin:origin -> int -> len:int -> unit
val msync : ctx -> ?origin:origin -> int -> unit

(** {1 Introspection} *)

val fd_path : ctx -> int -> string
(** Path a descriptor was opened on (for tests and I/O libraries). *)

val fd_pos : ctx -> int -> int
(** Current file position of a descriptor. *)
