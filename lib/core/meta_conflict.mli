(** Metadata-operation conflict detection — the paper's Section 7 future
    work ("we plan to expand our conflicts detection algorithm to support
    metadata operations"), implemented here as an extension.

    Data conflicts concern overlapping byte ranges; metadata conflicts
    concern the namespace: two processes operating on the same {e path}
    where at least one operation mutates it (create, unlink, rename,
    mkdir, rmdir, truncate).  Under a PFS with relaxed metadata semantics
    (BatchFS, GekkoFS's deferred namespace merging), a lookup may not yet
    observe another process's mutation, exactly as a relaxed data read may
    miss a write.

    The analysis mirrors Section 5.2's structure: a pair of metadata
    operations on the same path, the earlier one a mutation, issued by
    different processes, is a {e potential metadata conflict}; it is
    discharged under commit-style metadata semantics when the mutator
    executed a commit (or closed the file) on that path in between.  Since
    metadata operations carry no byte ranges, there is no session-style
    discharge: the pair remains flagged so the user can check their
    synchronization. *)

type kind =
  | Mutate_mutate  (** Both operations change the namespace entry. *)
  | Mutate_observe  (** A mutation followed by a lookup (stat, access, open...). *)

type t = {
  path : string;
  first : Hpcfs_trace.Record.t;  (** The earlier, mutating operation. *)
  second : Hpcfs_trace.Record.t;
  kind : kind;
}

val detect : Hpcfs_trace.Record.t list -> t list
(** Cross-process potential metadata conflicts, in timestamp order of the
    earlier operation. Same-process pairs are not reported (every PFS
    orders a single process's metadata operations). *)

type summary = { mutate_mutate : int; mutate_observe : int; paths : int }

val summarize : t list -> summary
