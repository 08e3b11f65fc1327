(** Hierarchical namespace of the simulated PFS.

    Paths are absolute, '/'-separated.  This single tree is the
    {e authoritative server-side} metadata state; what clients of a
    relaxed engine actually observe is decided above it, by the sharded
    metadata service and its per-client caches in [lib/md] (the
    ground-truth oracle those caches are compared against is exactly
    this tree).

    {b Canonical form.}  Empty components are ignored and a missing
    leading ['/'] is implied, so ["//a/b/"], ["a/b"] and ["/a/b"] name
    one path, whose canonical spelling is ["/a/b"] (["/"] for the root).
    Other components, ["."] and [".."] included, are plain names.

    {b Index.}  Next to the directory tables (the tree [readdir] and
    emptiness checks read), a flat hash index maps the canonical path of
    every entry but the root to the same node the tree holds.  Every
    mutation keeps the two in step; a directory rename re-keys its whole
    subtree, and only after all of its checks have passed, so a raising
    operation leaves both unchanged.

    {b Cost.}  A lookup on a canonical path is a scan that allocates
    nothing and one hash probe; a hit allocates nothing.  Other
    spellings are canonicalized first.  A miss probes the ancestors
    upward: if the deepest existing one is a file the path raises
    {!Not_a_directory}, if it is a directory the path is absent — the
    answer a top-down component walk gives.  Exceptions carry the path
    as the caller spelled it. *)

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

val canonical : string -> string
(** The canonical spelling of a path; the argument itself when it is
    already canonical. *)

type file
(** A regular file's entry: its payload and its timestamps.  Callers
    that resolve a path once per operation hold on to it. *)

val lookup : t -> string -> file
(** Raises {!Not_found_path}, {!Not_a_directory} (a component before the
    last is a file) or {!Is_a_directory}. *)

val lookup_opt : t -> string -> file option
(** [None] wherever {!exists} is false; raises {!Is_a_directory} on a
    directory, like {!lookup}. *)

val data : file -> Fdata.t

val touch_mtime : file -> time:int -> unit
(** Bump a file's modification time (called on data writes). *)

val touch_atime : file -> time:int -> unit
(** Bump a file's access time (called on data reads). *)

val lookup_file : t -> string -> Fdata.t
(** [data (lookup t path)]. *)

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

val all_files : t -> string list
(** Paths of every regular file, sorted — used by validation sweeps. *)
