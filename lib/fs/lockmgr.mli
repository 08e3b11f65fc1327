(** Distributed-lock-manager cost model for strong consistency semantics.

    Strong semantics in production PFSs (Lustre, GPFS) is enforced by
    extent locks handed out by a lock server; conflicting accesses force
    revocations, and the resulting message traffic is the performance cost
    the paper's Section 3.1 describes.  This module does not block anyone —
    the simulator already serializes operations — it {e accounts}: every
    access acquires block-granular extent locks, conflicting ownership is
    revoked, and the counters feed the ablation benchmarks comparing lock
    traffic under strong semantics with the lock-free weaker models. *)

type t

type counters = {
  acquisitions : int;  (** Lock grants issued by the manager. *)
  revocations : int;  (** Grants recalled because another client conflicted. *)
  messages : int;
      (** Total protocol messages: one request+grant per acquisition and a
          recall+release per revocation. *)
  hits : int;  (** Accesses fully covered by locks already held. *)
}

val create : granularity:int -> t
(** [granularity] is the lock block size in bytes (Lustre default: one
    stripe). Raises [Invalid_argument] if non-positive. *)

type mode = Read | Write

val access : t -> file:string -> client:int -> mode -> Hpcfs_util.Interval.t -> unit
(** Account for one I/O: acquire the covering locks for [client], revoking
    conflicting owners (writers conflict with everyone; readers share). *)

val release_client : t -> file:string -> client:int -> unit
(** Drop every lock [client] holds on [file] (called on close). *)

val evict_client : t -> client:int -> int
(** Forcibly recall every grant [client] holds across all files — the lock
    manager's response to a dead client (rank crash) or a storage-target
    failure that invalidated the client's cached state.  Each recalled
    grant is counted as a revocation (the server must message the client,
    or fence it, exactly as for a conflict recall).  Returns the number of
    grants recalled. *)

val counters : t -> counters
