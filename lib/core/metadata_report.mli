(** Metadata-operation inventory (Section 6.4 / Figure 3).

    For each application configuration, which of the monitored POSIX
    metadata and utility operations were invoked, attributed to the
    software layer that issued them: the MPI library, HDF5, or the
    application itself (which, as in the paper, also absorbs libraries the
    tracer does not distinguish further — NetCDF, ADIOS, Silo). *)

type issuer = By_mpi | By_hdf5 | By_app

type usage = (string * issuer list) list
(** Monitored operations actually used, with the (sorted, de-duplicated)
    issuers of each; operations never used are absent. *)

val inventory : Hpcfs_trace.Record.t list -> usage

type counts = (string * int) list
(** Call counts of the monitored operations actually used, in the same
    (footnote 3) order as {!usage}; operations never used are absent. *)

val inventory_counts : Hpcfs_trace.Record.t list -> counts

val total : counts -> int
(** Monitored metadata calls across all operations. *)

(** {2 Streaming} — the inventory as a one-record-at-a-time
    accumulator; [inventory] is [collector]/[record]/[usage], and
    [inventory_counts] is [collector]/[record]/[counts]. *)

type collector

val collector : unit -> collector
val record : collector -> Hpcfs_trace.Record.t -> unit
val usage : collector -> usage
val counts : collector -> counts

val used_ops : usage -> string list

val never_used : usage list -> string list
(** Monitored operations that no configuration used (the paper calls out
    [rename], [chown], [utime]). *)
