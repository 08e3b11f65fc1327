(** Simulated MPI-IO over the instrumented POSIX layer.

    Provides the calls the study's applications use: collective open/close,
    independent [read_at]/[write_at], and collective [write_at_all] /
    [read_at_all] with ROMIO-style two-phase aggregation.  In collective
    data exchange, every rank's buffer is shipped to a small set of
    {e aggregator} ranks which perform large contiguous POSIX accesses —
    exactly the mechanism behind the paper's observation that FLASH-fbs
    funnels checkpoint I/O through six aggregators.

    Every MPI-IO call emits an [MPI-IO]-layer trace record; the POSIX
    operations it triggers underneath are traced with origin [O_mpi], so
    the analysis can attribute each access to the layer that issued it. *)

type ctx

val make_ctx :
  ?cb_nodes:int -> Hpcfs_posix.Posix.ctx -> Hpcfs_mpi.Mpi.comm -> ctx
(** [cb_nodes] is the number of aggregator ranks for collective buffering
    (default: [max 1 (size/12)], spaced evenly — about 6 aggregators in the
    paper's 64-rank runs). *)

type amode = { rd : bool; wr : bool; create : bool }

val mode_rdonly : amode
val mode_wronly_create : amode
val mode_rdwr_create : amode

type fh
(** An MPI file handle (collective state shared across ranks). *)

val file_open :
  ctx -> ?origin:Hpcfs_trace.Record.origin -> string -> amode -> fh
(** Collective: every rank of the communicator must call it. *)

val file_open_self :
  ctx -> ?origin:Hpcfs_trace.Record.origin -> string -> amode -> fh
(** Non-collective open over MPI_COMM_SELF (per-rank files, as HACC-IO's
    independent-I/O mode uses). *)

val file_close : ctx -> ?origin:Hpcfs_trace.Record.origin -> fh -> unit

val file_sync : ctx -> ?origin:Hpcfs_trace.Record.origin -> fh -> unit

val read_at :
  ctx -> ?origin:Hpcfs_trace.Record.origin -> fh -> off:int -> int -> bytes
(** Independent read at an explicit offset. *)

val write_at :
  ctx -> ?origin:Hpcfs_trace.Record.origin -> fh -> off:int -> bytes -> unit
(** Independent write at an explicit offset. *)

val write_at_all :
  ctx -> ?origin:Hpcfs_trace.Record.origin -> fh -> off:int -> bytes -> unit
(** Collective write: all ranks participate (pass an empty buffer to
    contribute nothing); data is exchanged to aggregators which issue the
    actual POSIX writes. *)

val read_at_all :
  ctx -> ?origin:Hpcfs_trace.Record.origin -> fh -> off:int -> int -> bytes
(** Collective read through the aggregators. *)

val aggregators : ctx -> int list
(** The aggregator ranks collective I/O funnels through. *)

val is_aggregator : ctx -> bool

(** {1 Accessors for layered libraries (HDF5 sits on top of MPI-IO)} *)

val comm : ctx -> Hpcfs_mpi.Mpi.comm
val posix_ctx : ctx -> Hpcfs_posix.Posix.ctx

val posix_fd : ctx -> fh -> int
(** Underlying POSIX descriptor of this rank's open of the file. *)
