(** Resolved I/O accesses: the tuples of Section 5.

    The conflict-detection algorithm works on tuples
    [(t, r, os, oe, type)] extended with the session/commit bookkeeping
    fields of Section 5.2: the last preceding [open] and the first
    succeeding [close] / commit by the same process on the same file.

    One deliberate refinement over the paper's prose: the paper folds
    "close or commit" into a single [tc] field, but its condition (3) needs
    commits and its condition (4) needs closes specifically (an [fsync]
    must not create close-to-open visibility).  We therefore carry both
    [t_commit] and [t_close]. *)

type op = Read | Write

type t = {
  time : int;  (** Entry timestamp [t]. *)
  rank : int;  (** Process rank [r]. *)
  file : string;
  iv : Hpcfs_util.Interval.t;  (** Byte range [\[os, oe)]. *)
  op : op;
  func : string;  (** Originating POSIX function (for reports). *)
  t_open : int;
      (** Time of the last [open] of [file] by [rank] at or before [time];
          [min_int] if the access somehow precedes any open. *)
  t_commit : int;
      (** Time of the first commit (fsync/fdatasync/fflush/close/fclose) of
          [file] by [rank] after [time]; [max_int] if none follows. *)
  t_close : int;
      (** Time of the first [close] of [file] by [rank] after [time];
          [max_int] if none follows. *)
}

val is_write : t -> bool

val compare_start : t -> t -> int
(** Order by interval start then time — the sort of Algorithm 1. *)
