(** Deterministic cooperative scheduler for simulated MPI ranks.

    Each simulated process (rank) is an OCaml effect-handler coroutine.  The
    scheduler runs them round-robin: a process executes until it yields or
    blocks on a predicate, at which point control passes to the next runnable
    process.  A global logical clock advances on every traced operation
    ([tick]); because a blocked process only resumes after the operation that
    unblocked it has executed, the resulting timestamps respect the
    happens-before order induced by inter-process synchronization — the very
    property Section 5.2 of the paper establishes for its adjusted wall-clock
    timestamps.

    Every simulation runs on this scheduler.  It is not reentrant: only
    one simulation may run at a time ([run] raises [Failure] if another run
    is active).  [self], [tick], [now], [yield] and
    [wait_until] must only be called from inside a process body during
    [run].

    Setting the [HPCFS_SCHED_DEBUG] environment variable enables a
    per-round monotonicity assertion on [wait_until] predicates: a
    predicate observed true at the top of a round that is false again by
    the time its rank resumes raises [Failure], naming the rank. *)

exception Deadlock of string
(** Raised when no process can make progress but some are unfinished. *)

val run :
  ?clock:int -> ?before_step:(int -> unit) -> nprocs:int -> (int -> unit) ->
  unit
(** [run ~nprocs body] starts [nprocs] processes, process [r] executing
    [body r], and schedules them to completion.  Exceptions escaping a
    process body are re-raised to the caller.  Raises [Deadlock] when every
    remaining process is blocked on a false predicate.

    [clock] (default 0) is the initial logical-clock value; a crash/restart
    harness resumes a restarted job past the crashed run's timestamps so the
    file systems' write histories stay totally ordered.

    [before_step], when given, runs in scheduler context immediately before
    each unfinished process is considered, receiving the process's rank.  It
    may raise (e.g. a fault injector killing the rank); the exception aborts
    the whole simulation and is re-raised to the caller — the behaviour of an
    MPI job when one of its ranks dies. *)

val self : unit -> int
(** Rank of the currently executing process. *)

val nprocs : unit -> int
(** Number of processes of the running simulation. *)

val yield : unit -> unit
(** Voluntarily pass control to the next runnable process. *)

val wait_until : (unit -> bool) -> unit
(** [wait_until pred] blocks the calling process until [pred ()] is true.
    The predicate must be monotone (once true, stays true until the process
    resumes) for the simulation to be deterministic. *)

val tick : unit -> int
(** Advance the logical clock and return its new value.  Every traced I/O or
    communication operation calls this exactly once, so clock values are
    unique and totally ordered by execution. *)

val now : unit -> int
(** Current clock value without advancing it. *)
