(** Reference overlap detection for property tests of {!Hpcfs_core.Overlap}. *)

val detect_naive : Hpcfs_core.Access.t list -> Hpcfs_core.Overlap.pair list
(** All overlapping pairs, each ordered by time, found by comparing every
    two accesses of a file: O(n^2) per file. *)
