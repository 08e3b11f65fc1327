(** Stateful storage targets: the PFS's own failure domain.

    Each stripe server of a {!Stripe.t} layout is a storage target (an OST
    in Lustre terms) that can fail and recover; the metadata server is a
    separate single point.  This module is only the state machine and its
    accounting — {!Pfs} maps extents to targets, raises the typed errors
    on the data path, and reconciles pending data when a target dies.

    Target states:
    - [Up]: serving normally.
    - [Degraded]: the primary died but a failover replica serves all
      operations; data already settled is safe, volatile pending data on
      the primary is still lost at the failure instant (the replica has
      only what was settled or replayed to it).
    - [Down]: unreachable.  Data-path operations touching the target fail
      with {!Target_down}. *)

type state = Up | Degraded | Down

exception Target_down of { target : int; time : int }
(** Raised by data-path operations whose extent touches a [Down] target. *)

exception Mds_down of { time : int }
(** Raised by metadata operations while the shard serving the path (or,
    legacy single-MDS, the whole metadata service) is down. *)

type t

val create : ?mds_shards:int -> count:int -> unit -> t
(** All [count] targets start [Up]; the metadata service starts with
    [mds_shards] (default 1) directory-partitioned shards, all [Up] (see
    {!Shardmap} for the path-to-shard function).  Raises
    [Invalid_argument] for non-positive counts. *)

val count : t -> int
val state : t -> int -> state
val available : t -> int -> bool
(** [Up] or [Degraded] (a failover replica serves the target's extents). *)

val all_up : t -> bool
(** True iff every target is [Up] and the MDS is up — the single load the
    fault-free hot path checks before skipping all per-extent work. *)

val mds_shards : t -> int
(** Number of metadata shards (1 = legacy single MDS). *)

val mds_available : t -> int -> bool
(** [Up] or [Degraded]. *)

val fail : t -> time:int -> failover:bool -> int -> unit
(** Fail target [k]: [Degraded] when a failover replica absorbs it,
    [Down] otherwise. *)

val recover : t -> time:int -> int -> unit
(** Return target [k] to [Up] (no-op when already up). *)

val fail_mds : ?shard:int -> t -> time:int -> unit
(** Fail metadata shard [shard], or the whole metadata service when no
    shard is given (the legacy single-MDS event).  One call counts as
    one failure regardless of how many shards it downed. *)

val recover_mds : ?shard:int -> t -> time:int -> unit

val note_rejected : t -> unit
(** Count one operation refused because a target or the MDS was down. *)

type counters = {
  failures : int;  (** OST failures injected. *)
  failovers : int;  (** Of which absorbed by a failover replica. *)
  recoveries : int;  (** Targets returned to [Up]. *)
  mds_failures : int;
  mds_recoveries : int;
  rejected_ops : int;  (** Operations refused with a typed error. *)
}

val counters : t -> counters
