(** Per-run I/O profile: the "detailed report for each application run"
    the paper publishes alongside its traces — function counters per layer,
    transfer volumes, access-size distribution, per-file activity and
    per-file conflict counts. *)

type file_stats = {
  f_path : string;
  f_reads : int;
  f_writes : int;
  f_bytes_read : int;
  f_bytes_written : int;
  f_ranks : int;  (** Distinct ranks that accessed the file. *)
  f_session_conflicts : int;
  f_commit_conflicts : int;
}

type t = {
  total_records : int;
  calls_per_layer : (string * int) list;
      (** Records per API layer ("POSIX", "MPI-IO", "HDF5"). *)
  calls_per_function : (string * int) list;
      (** POSIX-layer call counters, descending by count. *)
  bytes_read : int;
  bytes_written : int;
  size_histogram : (int * int * int) list;
      (** Power-of-two buckets [(lo, hi, count)] over data-access sizes;
          the last bucket's [hi] is [max_int]. *)
  files : file_stats list;  (** Sorted by path. *)
}

val build : Hpcfs_trace.Record.t list -> t
(** Assemble the profile from the raw records: their resolved accesses
    and the conflicts among them ({!Offsets.resolve}, {!Overlap.detect},
    {!Conflict.of_pairs}). *)

val pp : Format.formatter -> t -> unit
(** Render the profile as the multi-section text report. *)
