(** Deterministic pseudo-random number generation.

    All stochastic choices in the simulator flow through this module so that
    every run of an application model is reproducible bit-for-bit.  The
    generator is SplitMix64, which has a single 64-bit word of state, passes
    BigCrush, and supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. *)

val split : t -> t
(** [split g] derives an independent generator from [g], advancing [g]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
