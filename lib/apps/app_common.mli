(** Helpers shared by the application models. *)

val block : int
(** Default per-rank payload of one write (bytes). *)

val rank : Runner.env -> int
val is_rank0 : Runner.env -> bool

val payload : ?len:int -> Runner.env -> int -> bytes
(** Deterministic rank- and tag-dependent buffer contents: byte [i] is
    [(tag + rank + i) land 0xff].  The buffer is shared and read-only: calls
    with the same [(tag + rank) land 0xff] and [len] in one run return the
    same buffer, which earlier writes may still hold (writes take
    ownership of their buffer, see {!Hpcfs_posix.Posix.write}).  Never
    mutate it; copy it first. *)

val compute : Runner.env -> unit
(** One synchronized computation step (a barrier): separates I/O phases
    and supplies the happens-before edges that make conflicts race-free. *)

val compute_allreduce : Runner.env -> unit
(** A computation step that also reduces a value (error monitors etc.). *)

val jitter : Runner.env -> Hpcfs_util.Prng.t -> max_slots:int -> unit
(** Random scheduling delay, desynchronizing ranks so independent I/O
    interleaves out of rank order (the global randomness of Figure 1). *)

val setup_dir : Runner.env -> string -> unit
(** Create a directory tree (rank 0, traced), then synchronize. *)

val prepare_input : Runner.env -> string -> int -> unit
(** Materialize an input file directly in the PFS, bypassing the tracer
    (input staging is not part of the studied I/O). *)
