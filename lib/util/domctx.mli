(** Shared context for domain-parallel simulation.

    The parallel scheduler shards simulated ranks across OCaml domains;
    layers that cannot depend on lib/sim coordinate through this module:
    a global parallel-mode flag (every lock below is gated on it, so
    legacy runs stay byte-identical), per-domain slot indexes for
    contention-free counters, the superstep counter for epoch-scoped
    dirty tracking, and a registry of work to run single-threaded at the
    next superstep boundary. *)

val max_slots : int
(** Maximum number of domains (per-domain buffer arrays are this wide). *)

val set_slot : int -> unit
(** Bind the calling domain to slot [i] (0 <= i < [max_slots]).  The
    scheduler calls this once per worker domain; everything else only
    reads it. *)

val slot : unit -> int
(** The calling domain's slot; 0 outside parallel runs. *)

val parallel : unit -> bool
(** True exactly while a parallel simulation is running. *)

val set_parallel : bool -> unit
(** Scheduler-internal. *)

val locked : Mutex.t -> (unit -> 'a) -> 'a
(** [locked mu f] runs [f] holding [mu] during a parallel run (released
    even if [f] raises); outside one it is just [f ()], one branch. *)

val superstep : unit -> int
(** Current superstep index of the running parallel simulation. *)

val set_superstep : int -> unit

val run_epoch : unit -> int
(** Current run epoch (bumped once per parallel scheduler run), stamped
    on accumulation-buffer entries so that cross-epoch timestamp ties
    merge in emission order. *)

val next_run_epoch : unit -> unit
(** Scheduler-internal. *)

type counter
(** A per-domain striped counter: increments land in the calling domain's
    padded slot; [total] sums every slot.  In single-domain runs it
    behaves exactly like a plain [int ref]. *)

val counter : unit -> counter
val add : counter -> int -> unit
val total : counter -> int
val reset : counter -> unit

val at_boundary : (unit -> unit) -> unit
(** Register work for the next superstep boundary (runs single-threaded).
    Work must be order-insensitive across registrations, because the
    registration order across domains is not deterministic; callers
    register at most once per superstep. *)

val run_boundary : unit -> unit
(** Scheduler-internal: run and drain the registered boundary work. *)

val reset_boundary : unit -> unit
(** Scheduler-internal: drop any leftover registrations. *)
