(** The runtime fault injector: turns a {!Plan.t} into hooks the
    simulation layers consult, plus the record of what actually fired.

    One injector instance covers one job execution {e including} its
    restarts — crash events fire at most once, I/O counters keep counting
    across attempts, and drain-failure budgets deplete monotonically.
    All nondeterminism (stripe tearing, backoff jitter) comes from PRNG
    streams split off the plan's seed, so a given (app, plan) pair always
    produces the same outcome. *)

exception Crashed of { rank : int; time : int; io_index : int }
(** Raised out of a backend call or scheduler step when a planned rank
    crash fires.  The whole MPI job aborts with the victim (fail-stop). *)

type t

val create : Plan.t -> t

val wrap_backend : t -> Hpcfs_fs.Backend.t -> Hpcfs_fs.Backend.t
(** Interpose on the data-plane calls (open/close/read/write/fsync):
    each call executes first, then is counted against the caller's
    [At_io] triggers — so the triggering operation itself is the
    in-flight write the crash model tears.  [At_time] triggers also fire
    here, at the victim's first I/O at/after the deadline. *)

val before_step : t -> now:int -> int -> unit
(** Scheduler hook ({!Hpcfs_sim.Sched.run}'s [?before_step]): fires
    [At_time] crashes of the rank about to be stepped, even when it is
    blocked in a barrier or computing between I/O calls. *)

val drain_fault : t -> node:int -> time:int -> bool
(** Burst-buffer hook ({!Hpcfs_bb.Tier.set_fault}): [true] when a
    planned transient drain failure should hit this attempt; each [true]
    consumes one unit of a matching [Drain_fault] budget. *)

val drain_prng : t -> Hpcfs_util.Prng.t
(** The stream backoff jitter must be drawn from (pass to
    {!Hpcfs_bb.Tier.set_fault}). *)

val retry_prng : t -> Hpcfs_util.Prng.t
(** The stream client-journal retry jitter is drawn from (pass to
    {!Hpcfs_fs.Journal.create}).  A separate split, so journaling never
    perturbs tear or drain decisions. *)

val log_prng : t -> Hpcfs_util.Prng.t
(** The stream WAL append-retry jitter is drawn from (pass to
    {!Hpcfs_wal.Wal.set_fault}); again a separate split. *)

val log_fault : t -> node:int -> time:int -> bool
(** WAL hook ({!Hpcfs_wal.Wal.set_fault}): [true] when a planned log-device
    failure should hit this append attempt; each [true] consumes one unit
    of a matching [Log_fail] budget. *)

val has_log_events : t -> bool
(** Does the plan schedule any [Log_fail]/[Log_cap]?  Gates installing the
    WAL fault hook, so plans without them leave WAL runs untouched. *)

val log_cap : t -> int option
(** The tightest planned [logcap=] capacity, to pass to
    {!Hpcfs_wal.Wal.set_cap_override}. *)

val keep_stripes : t -> total:int -> int
(** Deterministic tear decision for one in-flight write: how many of its
    [total] stripe-aligned pieces survive (0..[total], inclusive). *)

val restart_delay_of : t -> rank:int -> int option
(** Restart delay of the most recently fired crash of [rank]; [None]
    when the plan leaves the job down. *)

val injected_drain_faults : t -> int
val injected_log_faults : t -> int

(** {1 Storage failures} *)

type storage_action =
  | Fail_ost of { target : int; failover : bool }
  | Recover_ost of int
  | Fail_mds of { shard : int option }
      (** [shard = None]: the whole metadata service (legacy). *)
  | Recover_mds of { shard : int option }

val has_target_events : t -> bool
(** Does the plan schedule any OST/MDS failure?  Gates the creation of the
    client journal: without one, runs are byte-identical to a build
    without the failure domain. *)

val set_storage_hook : t -> (time:int -> storage_action -> unit) -> unit
(** Install the callback that applies storage transitions (the runner
    wires it to {!Hpcfs_fs.Pfs.fail_target} and friends plus the journal).
    Without a hook, scheduled events stay armed. *)

val advance_targets : t -> time:int -> unit
(** Fire every storage transition due at/before [time], in plan order,
    each at its {e scheduled} time.  Called automatically before every
    wrapped backend operation and from {!before_step}; callers only need
    it directly to flush transitions at end of run (e.g. a recovery
    scheduled after the last I/O). *)

val mds_restart_time : t -> int option
(** When the job can restart after an MDS failure: the earliest scheduled
    MDS recovery time, [None] when the plan never recovers it. *)

(** {1 Outcome} *)

type crash_record = {
  cr_rank : int;
  cr_time : int;
  cr_io_index : int;  (** Victim's I/O calls completed before dying. *)
  cr_stats : Hpcfs_fs.Fdata.crash_stats;  (** PFS-wide pending-data loss. *)
  cr_per_file : (string * Hpcfs_fs.Fdata.crash_stats) list;
      (** Per-file breakdown, sorted by path. *)
  cr_bb_lost_bytes : int;  (** Undrained burst-buffer bytes lost. *)
  cr_wal_lost_bytes : int;
      (** Un-flushed WAL log-tail bytes destroyed with the victim node. *)
  cr_wal_torn_bytes : int;  (** The WAL's torn in-flight append. *)
}

type target_record = {
  tr_kind : [ `Ost | `Mds ];
  tr_target : int;  (** -1 for the MDS. *)
  tr_time : int;
  tr_failover : bool;
  tr_recover : int option;
  tr_stats : Hpcfs_fs.Fdata.crash_stats;
      (** Volatile bytes the failure dropped (before any replay). *)
  tr_per_file : (string * Hpcfs_fs.Fdata.crash_stats) list;
      (** Affected files only, sorted by path. *)
  tr_evicted_locks : int;  (** Lock grants recalled from affected clients. *)
}

type outcome = {
  o_plan : Plan.t;
  o_crashes : crash_record list;  (** In firing order. *)
  o_restarts : int;  (** Restarts actually performed. *)
  o_drain_faults : int;  (** Transient drain failures injected. *)
  o_log_faults : int;  (** Transient WAL append failures injected. *)
  o_target_failures : target_record list;  (** In firing order. *)
  o_journal : Hpcfs_fs.Journal.stats option;
      (** Client journal counters; [None] when the plan scheduled no
          storage failure (no journal interposed). *)
  o_wal : Hpcfs_wal.Wal.stats option;
      (** WAL-tier counters; [None] when the run was not WAL-tiered. *)
  o_check : Hpcfs_fs.Staging.check option;
      (** The post-run fsck ({!Hpcfs_fs.Staging.check}) after the final
          replay: the client journal's when one exists, else the WAL's,
          else the burst buffer's; [None] for a direct run without a
          journal. *)
}

val crash_stats : outcome -> Hpcfs_fs.Fdata.crash_stats
(** Net data loss: whole-job crashes plus target-failure drops minus the
    bytes the journal replayed back (clamped at zero). *)

val bb_lost_bytes : outcome -> int
val target_failure_count : outcome -> int
val replayed_bytes : outcome -> int
val wal_recovered_bytes : outcome -> int
