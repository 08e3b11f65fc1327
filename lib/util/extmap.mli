(** Extent map: disjoint half-open byte ranges to values.

    The segment index underlying the PFS simulator's extent store (and the
    shape UnifyFS/BurstFS use server-side for write segments).  All
    operations split segments straddling the request's boundaries, so each
    costs O(log n + segments touched). *)

type 'a t

val empty : 'a t

val set : Interval.t -> 'a -> 'a t -> 'a t
(** Overwrite the range with one value, splitting any overlapped
    segments.  Empty intervals are a no-op. *)

val set_max : wins:('a -> 'a -> bool) -> Interval.t -> 'a -> 'a t -> 'a t
(** Like {!set}, but an existing segment keeps its value wherever
    [wins old new_] holds.  With [wins] comparing write keys this yields a
    per-byte maximum-key index that is independent of insertion order. *)

val query : Interval.t -> 'a t -> (Interval.t * 'a) list
(** Segments intersecting the range, clipped to it, in ascending offset
    order.  Uncovered gaps are absent. *)
