(** End-to-end validation of the trace-based predictions (Section 3 / 6.3).

    The paper predicts from traces which applications run correctly under
    which consistency semantics.  Because our substrate is a PFS simulator
    with pluggable semantics, the prediction can be checked directly: run
    the same application model under each model and compare what is read —
    both the reads the application itself performed (stale bytes) and the
    final contents of every file as seen by a fresh observer, against the
    strong-consistency ground truth. *)

type outcome = {
  semantics : Hpcfs_fs.Consistency.t;
  stale_reads : int;
      (** Application reads that observed at least one stale byte. *)
  corrupted_files : int;
      (** Files whose final contents differ from the strong-semantics run. *)
  files : int;  (** Total files compared. *)
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

    With [?obs], the sink is installed for the whole validation and each
    per-semantics run appears as a [validate.<semantics>] span.

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

val validate_burstfs : ?nprocs:int -> (Runner.env -> unit) -> outcome
(** Run under commit semantics {e without} the single-process
    write-ordering guarantee — the BurstFS exception of Section 6.3 — and
    compare against the strong run. *)
