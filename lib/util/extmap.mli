(** Extent map: disjoint half-open byte ranges to values.

    The segment index underlying the PFS simulator's extent store (and the
    shape UnifyFS/BurstFS use server-side for write segments).  All
    operations split segments straddling the request's boundaries, so each
    costs O(log n + segments touched).  A range that starts at or past the
    last segment's end (an append) touches no segment at all. *)

type 'a t

val empty : 'a t

val set : Interval.t -> 'a -> 'a t -> 'a t
(** Overwrite the range with one value, splitting any overlapped
    segments.  Empty intervals are a no-op. *)

val update : Interval.t -> ('a option -> 'a) -> 'a t -> 'a t
(** [update iv f m] replaces every byte of [iv]: a clipped existing
    segment holding [old] gets [f (Some old)], an uncovered gap gets
    [f None].  Neighbouring pieces whose new values are physically equal
    become one segment.  Empty intervals are a no-op. *)

val query : Interval.t -> 'a t -> (Interval.t * 'a) list
(** Segments intersecting the range, clipped to it, in ascending offset
    order.  Uncovered gaps are absent. *)
