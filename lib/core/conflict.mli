(** Conflict detection under relaxed consistency semantics (Section 5.2).

    An overlapping pair whose earlier operation is a write is a {e potential
    conflict}; whether it is an actual conflict depends on the semantics
    model being tested:

    - {b commit semantics} (condition 3): conflicting unless the writer
      executed a commit operation between the two accesses;
    - {b session semantics} (condition 4): conflicting unless the writer
      closed the file and the second process subsequently (re-)opened it,
      both strictly between the two accesses.

    Conflicts are classified RAW / WAW and same-process (S) /
    different-process (D), producing the cells of the paper's Table 4. *)

type kind = RAW | WAW
type scope = Same | Diff

type t = {
  first : Access.t;  (** The earlier operation (always a write). *)
  second : Access.t;
  kind : kind;
  scope : scope;
}

type semantics = Commit_semantics | Session_semantics

type mode =
  | Annotated
      (** Test the conditions with the per-record [t_open]/[t_commit]/
          [t_close] annotations (the paper's expanded-record method). *)
  | Tables of Eventtab.t
      (** Binary-search the open/close/commit tables per pair (the paper's
          alternative method). Both must agree; benches compare them. *)

val classify : ?mode:mode -> semantics -> Overlap.pair -> t option
(** The conflict a time-ordered overlapping pair induces under
    [semantics], if any.  Default mode is [Annotated]. *)

val of_pairs : ?mode:mode -> semantics -> Overlap.pair list -> t list
(** Filter and classify overlapping pairs into conflicts.  Default mode is
    [Annotated]. *)

type summary = { waw_s : int; waw_d : int; raw_s : int; raw_d : int }

val empty_summary : summary

val count : summary -> t -> summary
(** Add one conflict to a summary — the streaming accumulator behind
    {!summarize}. *)

val summarize : t list -> summary

val no_conflicts : summary -> bool

val only_same_process : summary -> bool
(** True when every conflict involves a single process — the situation all
    surveyed PFSs except BurstFS handle correctly (Section 6.3). *)

val kind_name : kind -> string
val scope_name : scope -> string
