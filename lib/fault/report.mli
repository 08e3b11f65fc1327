(** The crash-consistency report: one row per (application, consistency
    engine, fault plan) run, answering the question the checkpoint/restart
    survey poses — did the checkpoint survive the crash, and if not, how
    much data went missing under each semantics?

    Everything here is deterministic: no wall clock, rows render in the
    order given, and the CSV round-trips byte-identically for the same
    (seed, plan) inputs. *)

type row = {
  r_app : string;
  r_semantics : string;  (** e.g. ["strong"], ["session"], ["eventual:8"]. *)
  r_plan : string;  (** {!Plan.to_string} of the injected plan. *)
  r_crashed : bool;
  r_crash_rank : int;  (** -1 when no crash fired. *)
  r_crash_time : int;  (** -1 when no crash fired. *)
  r_restarts : int;
  r_lost_writes : int;  (** Pending writes dropped outright at crash. *)
  r_lost_bytes : int;
  r_torn_writes : int;  (** In-flight writes cut at stripe boundaries. *)
  r_torn_bytes : int;  (** Bytes that survived from torn writes. *)
  r_bb_lost_bytes : int;  (** Undrained burst-buffer bytes lost. *)
  r_drain_faults : int;  (** Transient drain failures injected. *)
  r_post_files : int;  (** Files compared after restart/recovery. *)
  r_post_corrupted : int;
      (** Files whose final content diverges from the fault-free strong
          reference — data loss the recovery did not repair. *)
  r_target_failures : int;  (** OST/MDS failures injected. *)
  r_replayed_bytes : int;  (** Bytes the client journal replayed back. *)
  r_journal_lost_bytes : int;  (** Journaled bytes that stayed unreplayable. *)
  r_fsck_clean : int;
      (** Verdict counts of the run's {!Hpcfs_fs.Staging.check}: the
          client journal's, else the WAL's, else the burst buffer's. *)
  r_fsck_recovered : int;
  r_fsck_corrupted : int;
  r_wal : bool;  (** Did the run go through the WAL tier? *)
  r_log_faults : int;  (** Transient WAL append failures injected. *)
  r_wal_recovered_bytes : int;  (** Bytes the durable log re-replayed. *)
  r_wal_lost_bytes : int;  (** Log-tail bytes the crash destroyed. *)
  r_wal_torn_bytes : int;  (** The torn in-flight log append. *)
}

val verdict : row -> string
(** ["no-crash"], ["survives"], ["recovered"], or ["corrupted"].
    ["no-crash"] requires that no rank crashed {e and} no storage target
    failed.  ["survives"]: the fault cost nothing — no pending data was
    lost or torn, no burst-buffer bytes vanished, the client journal
    replayed everything it parked, and fsck plus the post-run comparison
    found no corruption.  ["recovered"]: the final file contents match
    the fault-free reference (the restart re-wrote whatever the crash
    destroyed). *)

val row_of_outcome :
  app:string -> semantics:string -> post_files:int -> post_corrupted:int ->
  Injector.outcome -> row

val csv_header : string
(** The historical (no storage failures) column set. *)

val csv_header_extended : string
(** With the target-failure/journal/fsck columns. *)

val to_csv : row list -> string
(** Header plus one line per row, ["\n"]-terminated.  The extended columns
    appear only when some row saw a storage failure, and the WAL columns
    only when some row ran WAL-tiered, so legacy inputs produce the
    historical CSV byte for byte. *)

val pp : Format.formatter -> row list -> unit
(** Fixed-width human-readable table; same conditional column rule as
    {!to_csv} (the WAL layout wins when both apply). *)
