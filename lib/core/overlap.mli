(** Overlap detection — Algorithm 1 of the paper.

    Accesses to one file are sorted by starting offset; for each tuple the
    scan extends only while subsequent tuples can still intersect it, so the
    running time is near-linear for the non-pathological traces of real
    applications (quadratic in the worst case).  The paper's footnote that
    sorting could be replaced by merging per-rank (already sorted) streams
    is implemented as {!detect_merge} and compared in the benchmarks. *)

type pair = Access.t * Access.t
(** An overlapping pair, ordered by time (first component earlier). *)

val detect : Access.t list -> pair list
(** All overlapping pairs, grouped internally per file.  Pairs are returned
    in no particular order. *)

val detect_merge : Access.t list -> pair list
(** Same result, but the per-file offset order is obtained by k-way merging
    the per-rank streams sorted once each (the paper's suggested
    optimization) rather than sorting the combined list.  The merge runs
    through a binary min-heap of stream heads, so each element costs
    O(log ranks) rather than O(ranks). *)

val iter_file_pairs : Access.t list -> f:(pair -> unit) -> unit
(** Stream the overlapping pairs of {e one} file's accesses to [f]
    without building the pair list — Algorithm 1's scan over the
    per-rank k-way merge of {!detect_merge}.  The bounded-memory analysis
    path feeds each pair straight into the conflict summaries. *)

val rank_matrix : nprocs:int -> pair list -> int array array
(** [rank_matrix ~nprocs pairs] is the table [P] of Algorithm 1:
    entry [(i, j)] counts overlaps between accesses of ranks [i] and [j]
    (symmetric; diagonal counts same-rank overlaps).

    @raise Invalid_argument if any pair's rank falls outside
    [0 .. nprocs-1] — a mis-sized matrix would silently under-count
    conflicts. *)
