(** End-to-end validation of the trace-based predictions (Section 3 / 6.3).

    The paper predicts from traces which applications run correctly under
    which consistency semantics.  Because our substrate is a PFS simulator
    with pluggable semantics, the prediction can be checked directly: run
    the same application model under each model and compare what is read —
    both the reads the application itself performed (stale bytes) and the
    final contents of every file as seen by a fresh observer, against the
    strong-consistency ground truth.  Every check here and in
    {!Hpcfs_wl.Sweep} compares with one {!reference_run} through one
    {!outcome_of}. *)

type outcome = {
  semantics : Hpcfs_fs.Consistency.t;
  stale_reads : int;
      (** Application reads that observed at least one stale byte. *)
  corrupted_files : int;
      (** Reference files missing from this run or whose final contents
          differ. *)
  files : int;  (** The reference's file count. *)
}

val correct : outcome -> bool
(** No stale reads and no corrupted files. *)

val sem_name : Hpcfs_fs.Consistency.t -> string
(** {!Hpcfs_fs.Consistency.to_string}: ["strong"], ["commit"], ["session"]
    or ["eventual:<delay>"].  Kept under this name for the e2ebench
    harness. *)

val final_digests : Runner.result -> (string * Digest.t) list
(** Digest of the final contents of every regular file, read back as a
    fresh post-run observer — the comparison basis used by {!validate}
    and by the sweep engine. *)

val reference_run :
  ?seed:int -> nprocs:int -> (Runner.env -> unit) -> Runner.result
(** The reference: [body] fault-free and direct under strong semantics,
    with single-process write order kept. *)

val engines : Hpcfs_fs.Consistency.t list
(** The engines {!validate} and {!crash_report} run by default: strong,
    commit and session. *)

val is_reference :
  ?tier:Hpcfs_bb.Tier.config ->
  ?wal:Hpcfs_wal.Wal.config ->
  ?faults:Hpcfs_fault.Plan.t ->
  Hpcfs_fs.Consistency.t ->
  bool
(** Whether a run of this engine with these options is the reference run
    itself: direct, unfaulted and strong. *)

val outcome_of :
  reference:(string * Digest.t) list -> Hpcfs_fs.Consistency.t ->
  Runner.result -> outcome
(** Compare a run under the given semantics with the reference's
    {!final_digests}, by path: a reference file the run lacks (a crash
    without restart) or holds with another digest is corrupted. *)

val validate :
  ?obs:Hpcfs_obs.Obs.sink ->
  ?nprocs:int ->
  ?semantics:Hpcfs_fs.Consistency.t list ->
  ?tier:Hpcfs_bb.Tier.config ->
  ?wal:Hpcfs_wal.Wal.config ->
  ?faults:Hpcfs_fault.Plan.t ->
  (Runner.env -> unit) ->
  outcome list
(** Run the body once per semantics model (default: strong, commit,
    session) and compare against the strong run.  The body must be
    deterministic and must not branch on data read back from files.

    With [?tier], the candidate runs route their data operations through a
    burst-buffer tier over a PFS with the given semantics; the reference
    run stays a direct strong run, so the comparison shows whether the
    tier preserves correctness end to end.  [stale_reads] then counts the
    tier's composite reads that disagreed with the strong ground truth.
    [?wal] does the same for the write-ahead-logging tier (at most one of
    the two, as in {!Runner.run}).

    Without [?tier], [?wal] and [?faults], the [Strong] candidate is the
    reference run itself (its stale reads, nothing corrupted): no
    simulation is repeated.

    With [?obs], the sink is installed for the whole validation: the
    reference is a [validate.reference] span, each candidate run a
    [validate.<semantics>] span (none for a strong one so reused).

    With [?faults], the fault plan is injected into every candidate run
    (the strong reference stays fault-free), so the outcomes measure what
    each semantics loses to the planned crashes. *)

val crash_report :
  ?obs:Hpcfs_obs.Obs.sink ->
  ?nprocs:int ->
  ?semantics:Hpcfs_fs.Consistency.t list ->
  ?tier:Hpcfs_bb.Tier.config ->
  ?wal:Hpcfs_wal.Wal.config ->
  app:string ->
  plan:Hpcfs_fault.Plan.t ->
  (Runner.env -> unit) ->
  Hpcfs_fault.Report.row list
(** The crash-consistency report: run [body] once per consistency engine
    (default: strong, commit, session) with [plan] injected, and compare
    the post-recovery file contents against a fault-free strong reference.
    One {!Hpcfs_fault.Report.row} per engine, in the order given — fully
    deterministic for a fixed (app, nprocs, plan) triple. *)

val validate_burstfs :
  ?nprocs:int -> (Runner.env -> unit) -> outcome * outcome
(** The BurstFS exception of Section 6.3: run under commit semantics with
    and {e without} the single-process write-ordering guarantee, and
    compare both against one strong reference run.  Returns the (commit
    PFS, BurstFS-like) outcomes. *)
