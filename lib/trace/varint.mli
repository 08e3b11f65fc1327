(** LEB128 variable-length integers, the primitive of the binary trace
    codec.

    Unsigned encoding emits the native int's 63-bit two's-complement
    pattern seven bits at a time, low bits first, so any OCaml int —
    including negative ones — round-trips in at most 9 bytes; small
    non-negative values take one byte.  Signed values that are usually
    near zero (deltas) should go through the zigzag mapping first, which
    folds the sign into the low bit so small magnitudes of either sign
    stay short. *)

val max_bytes : int
(** Longest legal encoding: ceil(63 / 7) bytes. *)

val write : Buffer.t -> int -> unit
(** Append the unsigned LEB128 encoding of the int's bit pattern. *)

val write_signed : Buffer.t -> int -> unit
(** [write] composed with {!zigzag}. *)

type reader = { data : string; mutable pos : int }
(** Cursor into an already-loaded byte string (one codec chunk). *)

exception Malformed of string
(** A truncated or over-long encoding; the message says which. *)

val read : reader -> int
(** Decode one unsigned varint, advancing the cursor.  Raises
    {!Malformed} ["truncated varint"] when the data ends inside the
    encoding and ["varint too long"] past {!max_bytes}; the binary trace
    decoder turns either into an [Error] naming the chunk.  Raising
    rather than returning a [result] keeps the per-field cost of a decode
    at zero allocations. *)

val read_signed : reader -> int
(** [read] composed with {!unzigzag}. *)

val zigzag : int -> int
(** Map signed to unsigned: 0, -1, 1, -2, ... become 0, 1, 2, 3, ... *)

val unzigzag : int -> int
