(** One-stop analysis of a traced run: everything the paper reports per
    application configuration, folded from the trace one record at a
    time.

    {!feed} streams each record through offset resolution and the
    metadata inventory; {!finish} seals the event tables and folds the
    buffered data accesses file by file through the sharing, pattern, and
    conflict accumulators — overlap pairs go straight into conflict
    summaries via {!Overlap.iter_file_pairs}, never materializing a pair
    list.  Memory is proportional to the resolved data accesses (and
    event tables), not to the record count, so a trace too large to hold
    as a record list streams from its file (the Recorder-at-scale mode).

    Callers that need the per-access data (the conflict pairs of a file,
    an offset series) compose Algorithm 1's building blocks themselves:
    {!Offsets.resolve}, {!Overlap.detect}, {!Conflict.of_pairs}. *)

type t = {
  nprocs : int;
  record_count : int;
  access_count : int;
  skipped : int;
  sharing : Sharing.t;
  local_mix : Pattern.mix;
  global_mix : Pattern.mix;
  session : Conflict.summary;
  commit : Conflict.summary;
  metadata : Metadata_report.usage;
  meta_counts : Metadata_report.counts;
      (** Per-operation call counts behind {!field-metadata}. *)
  verdict : Recommend.verdict;
}

type stream

val stream : ?nprocs:int -> unit -> stream
(** Without [nprocs], the rank count is inferred at {!finish} as the
    largest rank seen plus one (at least 1). *)

val feed : stream -> Hpcfs_trace.Record.t -> unit

val check_ranks : stream -> (unit, string) result
(** [Error] naming both counts when a given [nprocs] is below the rank
    count of the records fed so far (largest rank + 1): {!finish} would
    analyze the trace as if it had fewer ranks than it has. *)

val finish : stream -> t

val analyze : nprocs:int -> Hpcfs_trace.Record.t list -> t
(** {!stream}, {!feed} each record, {!finish}. *)

val pp_digest : Format.formatter -> t -> unit
(** Multi-line human-readable digest (used by the CLI and quickstart). *)
