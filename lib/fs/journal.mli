(** Per-client operation journal: a write-ahead log of issued but not yet
    settled data operations, the client side of the PFS failure domain.

    Lustre-like file systems keep exactly this: a client retains each RPC
    in memory until the server confirms it reached stable storage, so a
    target failure (which discards volatile server state) can be repaired
    by {e replaying} the unconfirmed operations against the recovered
    target or its failover replica.  Here "confirmed" is the consistency
    engine's durability rule, asked of the PFS ({!Pfs.settled}): strong
    settles a write on arrival, commit once the writer fsyncs or closes
    after it, session once it closes after it, eventual once the
    propagation delay elapses.

    A policy over the {!Staging} core, like the burst buffer and the WAL,
    and the degenerate client-side one: nothing is staged ahead of the PFS,
    only retained behind it.  Each journaled write is a {!Staging.record}:
    - an accepted write is recorded [Applied];
    - a write refused by a down target is parked [Pending];
    - when a target fails, an [Applied] record on it that the PFS had
      already persisted ({!Pfs.settled}) is settled and [Dropped]; any
      other goes back to [Pending], its volatile copy gone;
    - {!replay} moves [Pending] records into the PFS, back to [Applied];
    - a truncate clips [Pending] and [Applied] records alike
      ({!Staging.truncate});
    - the fsck ({!check}) gives up on what is still [Pending]: it is
      [Dropped] and tallied lost in the core's ledger ({!Staging.lose}). *)

type t

val create : ?retry:Hpcfs_util.Backoff.policy -> prng:Hpcfs_util.Prng.t -> Pfs.t -> t
(** A journal for clients of [pfs].  [retry] (default {!Hpcfs_util.Backoff.default})
    caps the per-operation retry loop; [prng] drives its backoff jitter
    (pass a dedicated split so journaling never perturbs other seeded
    streams). *)

val pfs : t -> Pfs.t

val core : t -> Staging.t
(** The staging core holding the journaled writes, for inspection. *)

val wrap : t -> Backend.t -> Backend.t
(** Interpose the journal on a backend: successful writes are recorded as
    [Applied]; operations refused by a down target or MDS are retried
    under the capped-backoff policy (retries are accounted, not slept —
    target state cannot change within one operation, so the budget
    deterministically exhausts) and then fall back — writes park in the
    journal for later replay, reads degrade to {!Pfs.read_degraded},
    metadata operations re-raise to the caller.  Truncate clips the
    journaled writes. *)

val on_target_fail : t -> time:int -> target:int -> unit
(** Reclassify after target [target] failed at [time]: every [Applied]
    record with a stripe chunk on it either settles (it was durable before
    the failure) or returns to [Pending] for replay.  Call before any
    replay, right after {!Pfs.fail_target}. *)

val replay : t -> int
(** Re-issue every [Pending] record, oldest first, against the PFS at the
    record's {e original} rank and timestamp ({!Staging.replay}) — replay
    restores the history the failure erased, it does not rewrite it.
    Records whose target is still down stay pending; the rest return to
    [Applied], and their bytes are tallied recovered.  Returns the bytes
    successfully replayed. *)

val check : t -> Staging.check
(** The journal's fsck: one final {!replay}, then every record still
    pending is given up on — dropped and tallied lost — and
    {!Staging.check} classifies every file (files never journaled are
    [Clean]). *)

val outstanding : t -> int * int
(** Writes, and their bytes, not in the PFS: still pending, or given up
    on by {!check}. *)

type stats = {
  recorded : int;  (** Writes journaled (every successful or parked write). *)
  recorded_bytes : int;
  retries : int;  (** Retry attempts against down targets. *)
  giveups : int;  (** Operations that exhausted the retry budget. *)
  backoff_ticks : int;  (** Logical ticks of backoff accounted. *)
  parked_writes : int;  (** Writes refused and parked for replay. *)
  replayed_writes : int;
  replayed_bytes : int;
  outstanding_writes : int;  (** Still pending, or lost. *)
  outstanding_bytes : int;
}

val stats : t -> stats
