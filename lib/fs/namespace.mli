(** Hierarchical namespace of the simulated PFS.

    Paths are absolute, '/'-separated.  This single tree is the
    {e authoritative server-side} metadata state; what clients of a
    relaxed engine actually observe is decided above it, by the sharded
    metadata service and its per-client caches in [lib/md] (the
    ground-truth oracle those caches are compared against is exactly
    this tree). *)

type t

type kind = Regular | Directory

type stat = {
  st_kind : kind;
  st_size : int;
  st_mtime : int;
  st_ctime : int;
  st_atime : int;
}

exception Not_found_path of string
exception Exists of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Not_empty of string
exception Invalid_rename of string
(** Raised by {!rename} when the destination lies inside the source's
    own subtree (POSIX [EINVAL]). *)

val create : Consistency.t -> t
(** A namespace containing only the root directory; its files are created
    under the given consistency engine. *)

val lookup_file : t -> string -> Fdata.t
(** File payload at a path. Raises {!Not_found_path} / {!Is_a_directory}. *)

val create_file : t -> time:int -> string -> Fdata.t
(** Create a regular file; parent directories must exist.  Raises
    {!Exists} if the path already names a directory; returns the existing
    payload when it names a file (open with O_CREAT on an existing file). *)

val exists : t -> string -> bool
val is_dir : t -> string -> bool

val mkdir : t -> time:int -> string -> unit
(** Raises {!Exists} if the path already exists. *)

val rmdir : t -> string -> unit
(** Raises {!Not_empty} unless the directory is empty. *)

val unlink : t -> string -> unit
(** Remove a regular file. *)

val rename : t -> time:int -> string -> string -> unit
(** Move a file or directory, with POSIX rename(2) semantics: an
    existing destination is atomically replaced when the kinds agree —
    a regular file replaces a regular file, a directory replaces an
    {e empty} directory ({!Not_empty} otherwise).  Renaming a file onto
    a directory raises {!Is_a_directory}; a directory onto a file,
    {!Not_a_directory}.  Renaming a path to itself is a no-op; moving a
    directory into its own subtree raises {!Invalid_rename}. *)

val readdir : t -> string -> string list
(** Entry names of a directory, sorted. *)

val stat : t -> string -> stat

val touch_mtime : t -> time:int -> string -> unit
(** Bump a path's modification time (called on data writes). *)

val touch_atime : t -> time:int -> string -> unit
(** Bump a path's access time (called on data reads). *)

val all_files : t -> string list
(** Paths of every regular file, sorted — used by validation sweeps. *)
