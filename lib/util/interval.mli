(** Closed-open byte intervals [\[lo, hi)] used for file extents.

    The analysis algorithms of the paper reason about byte ranges
    [(offset_start, offset_end)]; this module centralizes the interval
    arithmetic so that off-by-one conventions live in one place. *)

type t = { lo : int; hi : int }
(** Invariant: [lo <= hi]. The interval covers bytes [lo .. hi - 1];
    it is empty iff [lo = hi]. *)

val make : int -> int -> t
(** [make lo hi] builds an interval. Raises [Invalid_argument] if [hi < lo]. *)

val of_len : int -> int -> t
(** [of_len off len] is the interval of [len] bytes starting at [off]. *)

val length : t -> int

val is_empty : t -> bool

val overlaps : t -> t -> bool
(** Non-empty intersection of the two byte ranges. *)

val contains : t -> int -> bool
(** [contains i x] tests whether byte [x] lies in [i]. *)

val intersect : t -> t -> t option
(** Intersection, or [None] when disjoint (touching intervals are disjoint). *)

val union_hull : t -> t -> t
(** Smallest interval covering both arguments. *)

val subtract : t -> t -> t list
(** [subtract a b] is the (0, 1 or 2 piece) set difference [a \ b],
    in increasing order. *)

val compare_lo : t -> t -> int
(** Order by lower endpoint, then upper. *)

val merge_runs : t list -> t list
(** Sort by [lo] and fuse intervals that overlap or touch: the runs come
    back sorted, pairwise disjoint and not touching, and cover exactly
    the bytes of the (non-empty) inputs. *)

val pp : Format.formatter -> t -> unit
