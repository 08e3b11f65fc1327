(* The data surface a staging tier exposes, shared by {!Staging}'s
   signature and implementation and by the tiers' own interfaces. *)

(** A tier's data operations over its staging core. *)
module type TIER = sig
  type core
  type tier

  val core : tier -> core

  val open_file :
    tier -> time:int -> rank:int -> create:bool -> trunc:bool -> string -> int

  val close_file : tier -> time:int -> rank:int -> string -> unit

  val read :
    tier -> time:int -> rank:int -> string -> off:int -> len:int ->
    Fdata.read_result

  val write : tier -> time:int -> rank:int -> string -> off:int -> bytes -> unit
  val fsync : tier -> time:int -> rank:int -> string -> unit
  val truncate : tier -> time:int -> string -> int -> unit
end

(** The PFS-shaped surface of a tier: the same contracts as the
    corresponding {!Pfs} operations. *)
module type SURFACE = sig
  type tier

  val open_file :
    tier -> time:int -> rank:int -> ?create:bool -> ?trunc:bool -> string -> int

  val close_file : tier -> time:int -> rank:int -> string -> unit

  val read :
    tier -> time:int -> rank:int -> string -> off:int -> len:int ->
    Fdata.read_result
  (** [stale_bytes] counts bytes that differ from the strong ground truth:
      the PFS oracle plus every still-staged write. *)

  val write : tier -> time:int -> rank:int -> string -> off:int -> bytes -> unit
  (** Raises [Invalid_argument] if the file is laminated, like
      {!Fdata.write}.  The tier keeps the buffer as written, staged and
      later replayed into the PFS without a copy: the caller must not
      mutate it afterwards.  Reads return fresh buffers. *)

  val fsync : tier -> time:int -> rank:int -> string -> unit
  val truncate : tier -> time:int -> string -> int -> unit

  val file_size : tier -> string -> int
  (** Size including staged writes not yet in the PFS. *)

  val backend : tier -> Backend.t
  (** The tier as a POSIX-layer backend: lib/posix routes through this
      record exactly as it would through a bare PFS. *)
end
