(** Reference namespace: the executable specification the indexed
    {!Hpcfs_fs.Namespace} is differentially tested against.

    Entries live in one association list keyed by component list, and
    every operation resolves its path top-down, one component at a
    time: the first missing component makes the path absent, a file
    before the last component makes it {!Hpcfs_fs.Namespace.Not_a_directory}.
    Slow (every step scans the list) and obviously so.  Raises the same
    exceptions as the real namespace, with the same path strings, so a
    test compares the two by printing results and exceptions alike.

    Files carry an identity (a creation serial) instead of a payload:
    a test maps each real [Fdata.t] to the serial it was created under. *)

module Namespace = Hpcfs_fs.Namespace

type t

val create : unit -> t

val lookup_file : t -> string -> int
val lookup_opt : t -> string -> int option
val create_file : t -> time:int -> string -> int
(** The serial of the new file, or of the existing one. *)

val exists : t -> string -> bool
val is_dir : t -> string -> bool
val mkdir : t -> time:int -> string -> unit
val rmdir : t -> string -> unit
val unlink : t -> string -> unit
val rename : t -> time:int -> string -> string -> unit
val readdir : t -> string -> string list

val stat : t -> string -> Namespace.stat
(** [st_size] is 0: the reference stores no payload. *)

val touch_mtime : t -> time:int -> string -> unit
(** {!lookup_file}'s errors, then a file's mtime bump. *)

val touch_atime : t -> time:int -> string -> unit
val all_files : t -> string list

val parent : string -> string
(** What {!Hpcfs_fs.Shardmap.parent} answers, from the component list. *)

val shard : shards:int -> string -> int
(** What {!Hpcfs_fs.Shardmap.shard} answers: FNV-1a of {!parent}. *)
