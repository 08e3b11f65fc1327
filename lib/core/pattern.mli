(** Byte-level access pattern classification (Section 4 / Figure 1).

    Within a stream of accesses, access [i+1] is {e consecutive} when it
    starts exactly where access [i] ended, {e monotonic} when it starts
    strictly beyond, and {e random} otherwise.  The {e local} pattern
    streams accesses per (file, rank); the {e global} pattern streams all
    ranks' accesses to a file in timestamp order — the PFS's view, which
    the paper shows is far more random for independent-I/O applications. *)

type mix = { consecutive : int; monotonic : int; random : int }

val zero : mix

val add : mix -> mix -> mix
(** Pointwise sum — mixes of disjoint streams combine additively, which
    is what lets the streaming analysis fold them per file. *)

val percentages : mix -> float * float * float
(** (consecutive, monotonic, random), each in [0, 100]. *)

val classify_stream : Access.t list -> mix
(** The list must already be the desired stream, in timestamp order.  The
    first access of a stream is consecutive iff it starts at offset 0,
    monotonic otherwise. *)

val local_mix : Access.t list -> mix
(** Per-(file, rank) streams, summed. *)

val global_mix : Access.t list -> mix
(** Per-file streams over all ranks, summed. *)

val offset_series :
  Access.t list -> file:string -> (int * int * Hpcfs_util.Interval.t) list
(** [(time, rank, extent)] series of accesses to one file in time order —
    the raw data behind the paper's Figure 2 scatter plots. *)
