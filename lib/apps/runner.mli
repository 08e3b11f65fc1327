(** Harness that executes an application model under the simulator and
    captures everything the analysis needs: the multi-level trace, the MPI
    event log, and the PFS statistics. *)

type result = {
  records : Hpcfs_trace.Record.t list;  (** The trace, in time order. *)
  events : Hpcfs_mpi.Mpi.event list Lazy.t;
      (** Communication log in time order (all attempts concatenated, in
          attempt order, under faults), forced on demand: sorting it costs
          O(n log n) in the run's MPI events, so a run whose caller never
          forces it never sorts it. *)
  stats : Hpcfs_fs.Pfs.stats;
  md : Hpcfs_md.Service.stats;
      (** Metadata-path statistics: per-shard load, cache hit/staleness
          counters (see {!Hpcfs_md.Service}). *)
  pfs : Hpcfs_fs.Pfs.t;  (** The file system after the run. *)
  tier : Hpcfs_bb.Tier.t option;
      (** The burst-buffer tier the run went through, if any. *)
  wal : Hpcfs_wal.Wal.t option;
      (** The write-ahead-logging tier the run went through, if any. *)
  nprocs : int;
  faults : Hpcfs_fault.Injector.outcome option;
      (** What the injector did; [None] when no plan was given. *)
}

type env = {
  comm : Hpcfs_mpi.Mpi.comm;
  posix : Hpcfs_posix.Posix.ctx;
  mpiio : Hpcfs_mpiio.Mpiio.ctx;
  tier : Hpcfs_bb.Tier.t option;
      (** Set when the run is tiered; app models that stage files
          explicitly (stage_in/stage_out) reach the tier through this. *)
  nprocs : int;
  seed : int;
  attempt : int;
      (** 0 on the first launch, incremented per crash restart — the
          recovery path branches on this (restart reads the checkpoint). *)
  payloads : (int, bytes) Hashtbl.t;
      (** The run's synthetic write payloads, shared across ranks and
          restart attempts and filled by {!App_common.payload}.  Its
          buffers are read-only: the storage stack keeps them as written. *)
}
(** Shared by all ranks of a run; rank identity comes from the scheduler. *)

val run :
  ?obs:Hpcfs_obs.Obs.sink ->
  ?semantics:Hpcfs_fs.Consistency.t ->
  ?local_order:bool ->
  ?nprocs:int ->
  ?seed:int ->
  ?mds_shards:int ->
  ?tier:Hpcfs_bb.Tier.config ->
  ?wal:Hpcfs_wal.Wal.config ->
  ?faults:Hpcfs_fault.Plan.t ->
  (env -> unit) ->
  result
(** [run body] executes [body] on every rank (default 64 ranks, strong
    semantics, seed 42, 6 collective-buffering aggregators).  A barrier is
    executed before and after the body, mirroring the paper's
    clock-alignment barrier.  The ranks run on {!Hpcfs_sim.Sched}'s one
    logical clock, so trace timestamp order is execution order.

    [mds_shards] (default 1) sets the number of directory-partitioned
    metadata shards; all POSIX metadata calls route through one shared
    {!Hpcfs_md.Service} whose client caches are reset on every restart
    attempt (caches die with the clients).

    With [?tier], all POSIX-level data operations route through a
    burst-buffer {!Hpcfs_bb.Tier.t} staged over the PFS instead of hitting
    the PFS directly; any backlog left at the end of the job is drained
    before the result is returned.

    With [?wal], they route through a host-side write-ahead logging
    {!Hpcfs_wal.Wal.t} instead: writes ack at log-append time and a
    background replayer drains them into the PFS, preserving the
    consistency engine's publication rule.  The remaining backlog is
    likewise replayed before the result is returned.  At most one of
    [?tier] and [?wal] may be given (raises [Invalid_argument]).  Under
    [?faults], a crash destroys only the victim node's un-flushed log
    tail, [logfail:]/[logcap=] events exercise the log's failure modes,
    and the outcome carries the WAL's statistics and post-run fsck.

    With [?faults], the plan's faults are injected: a planned rank crash
    aborts the whole job (fail-stop), pending data is reconciled on the
    PFS per its consistency model (unpublished writes dropped, the
    in-flight write torn at stripe boundaries), the victim node's
    burst-buffer backlog is lost, and — if the plan schedules a restart —
    the body re-runs with [env.attempt] incremented and the logical clock
    continued past the crash.  Without a plan this parameter costs
    nothing: the execution path and all output are identical to a run
    built before the fault subsystem existed.  A plan naming a storage
    target or MDS shard the PFS lacks raises {!Hpcfs_fault.Plan.Invalid}
    before the simulation starts.

    With [?obs], the given telemetry sink is installed for the duration of
    the run (and restored afterwards), so every instrumented layer records
    into it; without it, whatever sink is already installed — usually none —
    stays in effect. *)

val stale_reads : result -> int
(** Application reads that observed at least one stale byte: the tier's
    composite reads in a tiered run ([?tier] or [?wal]), else the PFS
    reads. *)

val rank_prng : env -> Hpcfs_util.Prng.t
(** Deterministic per-rank generator (distinct stream per rank and seed). *)
