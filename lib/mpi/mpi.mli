(** Simulated MPI: communicators, point-to-point messages and collectives.

    This is the communication substrate the application models run on.  It
    provides just enough of MPI for the I/O study: ranks, barriers, typed
    point-to-point messages, and the collectives that parallel I/O libraries
    use for aggregation.  Every operation records an event in the
    communicator's event log, from which the analysis reconstructs the
    happens-before order (matching sends to receives and collective
    invocations, as in the paper's validation of its timestamp-order
    assumption).

    A collective is one rendezvous on shared state, like a barrier: every
    rank deposits its value in its own slot, and once all ranks have
    arrived each reads what it needs.  It costs O(n) for n ranks, sends no
    message, and draws exactly two ticks per rank (enter and exit), logged
    as one [E_coll] record per rank.  The simulator blocks every rank of a
    collective until all have arrived, non-roots of a [gather] included;
    the happens-before analysis keeps only what MPI guarantees (a gather
    orders every rank's entry before the root's exit only).

    All calls must be made from inside a {!Sched.run} process body. *)

type payload =
  | P_unit
  | P_int of int
  | P_ints of int array
  | P_bytes of bytes
      (** Message contents.  A small closed universe keeps the simulator
          type-safe without functorizing every application over a message
          type. *)

type event =
  | E_send of { src : int; dst : int; tag : int; time : int }
  | E_recv of { src : int; dst : int; tag : int; time : int }
  | E_barrier of { rank : int; gen : int; enter : int; exit : int }
  | E_coll of {
      rank : int;
      name : string;
      seq : int;
      root : int option;
      enter : int;
      exit : int;
    }
      (** Communication events, timestamped with the logical clock.  A
          barrier's [gen] and a collective's [seq] count the barriers and
          collectives every rank has entered before, so equal values name
          one invocation; [root] is [Some r] for a rooted collective. *)

type comm
(** A communicator over all ranks of the running simulation. *)

val world : unit -> comm
(** Create the world communicator.  Must be created once, before
    [Sched.run], and shared by all ranks (it holds the mailboxes and the
    collectives' slots). *)

val rank : comm -> int
val size : comm -> int

val barrier : comm -> unit
(** Block until every rank of the communicator has entered the barrier. *)

val send : comm -> dst:int -> tag:int -> payload -> unit
(** Asynchronous (buffered) send. *)

val recv : comm -> src:int -> tag:int -> payload
(** Blocking receive of the oldest matching message. *)

val gather : comm -> root:int -> payload -> payload array option
(** Root returns [Some values] indexed by rank; others return [None].  In
    the simulator every rank, not only the root, waits for all to enter. *)

val allgather : comm -> payload -> payload array
(** Every rank returns the values of all ranks, indexed by rank. *)

type reduce_op = Sum | Max | Min

val allreduce : comm -> reduce_op -> int -> int
(** Integer reduction, result on every rank. *)

val events : comm -> event list
(** All recorded events, in increasing logical-time order.  Only meaningful
    after [Sched.run] returns. *)
