(** Happens-before reconstruction from communication events (Section 5.2).

    The paper validates its use of timestamp order by matching sends to
    receives and collective invocations in the FLASH traces and checking
    that every cross-process conflict pair is ordered by program
    synchronization.  This module implements that check in general: vector
    clocks are computed over the MPI event log (program order, send→recv
    edges, barrier joins, and collective joins built from the [E_coll]
    records: every rank's entry precedes every rank's exit of an allgather
    or allreduce, and the root's exit of a gather), and a conflict is
    {e synchronized} when the earlier operation happens-before the later
    one. *)

type t

val build : nprocs:int -> Hpcfs_mpi.Mpi.event list -> t

val ordered : t -> r1:int -> t1:int -> r2:int -> t2:int -> bool
(** Does the operation executed at logical time [t1] on rank [r1]
    happen-before the operation at [t2] on [r2]?  Same-rank operations are
    ordered by time. *)

val conflict_synchronized : t -> Conflict.t -> bool
(** Apply {!ordered} to a conflict pair. *)

val race_free : t -> Conflict.t list -> bool
(** All cross-process conflicts are synchronized — the paper's assumption
    that applications are race-free, checked rather than assumed. *)
