(** Journaled recovery: an fsck-style pass that replays a client journal
    against the (recovered or failed-over) PFS and classifies every file.

    Verdicts per file, per the active consistency engine:
    - [Clean]: nothing was pending — every journaled write had settled
      before any failure (or no failure touched it).
    - [Recovered]: unsettled bytes were lost by a target failure but the
      journal replayed all of them; contents match the no-failure run.
    - [Corrupted]: some journaled writes could not be replayed (their
      target never came back); their bytes are permanently lost. *)

type verdict = Clean | Recovered | Corrupted

val verdict_name : verdict -> string
(** ["clean"], ["recovered"], ["corrupted"]. *)

val classify : lost:int -> recovered:int -> verdict
(** Anything still lost corrupts the file; otherwise anything replayed
    makes it recovered. *)

type file_report = {
  f_path : string;
  f_verdict : verdict;
  f_replayed_bytes : int;  (** Bytes replayed into this file (all passes). *)
  f_outstanding_writes : int;  (** Journal entries permanently lost. *)
  f_outstanding_bytes : int;
}

type report = {
  files : file_report list;  (** Every file, sorted by path. *)
  replayed_bytes : int;
  lost_writes : int;
  lost_bytes : int;
  clean : int;
  recovered : int;
  corrupted : int;
}

val check : Journal.t -> time:int -> report
(** [check journal ~time] runs one final {!Journal.replay} at [time],
    gives up on what still cannot land ({!Journal.mark_lost}), and
    classifies every file in the namespace (files never journaled are
    [Clean]). *)
