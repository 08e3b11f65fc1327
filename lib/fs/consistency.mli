(** The four PFS consistency-semantics categories of Section 3.

    The categorization orders models by when a write becomes visible to a
    subsequent read:

    - {b Strong}: immediately upon completion (POSIX sequential consistency).
    - {b Commit}: upon an explicit commit operation ([fsync], [fdatasync],
      lamination, or [close]) by the writing process.
    - {b Session}: upon a [close] by the writer followed by an [open] by the
      reader (close-to-open, as in NFS).
    - {b Eventual}: after an unspecified propagation delay, with no
      application action required.

    The module also carries the paper's Table 1 knowledge base mapping
    production PFSs to categories. *)

type t =
  | Strong
  | Commit
  | Session
  | Eventual of { delay : int }
      (** [delay] is the propagation delay in logical clock ticks. *)

val strength : t -> int
(** Total order of strictness: [Strong] is 4, down to [Eventual _] at 1. *)

val compare_strength : t -> t -> int
(** Compare by {!strength} (eventual delays are ignored). *)

val name : t -> string
(** Human-readable category name, e.g. ["session consistency"]. *)

val pp : Format.formatter -> t -> unit

val key : t -> string
(** The engine's short name: ["strong"], ["commit"], ["session"] or
    ["eventual"] (any delay).  Metric and span names are built from it. *)

val to_string : t -> string
(** {!key}, with the delay for eventual (["eventual:N"]); {!of_string}
    parses it back. *)

val default_eventual_delay : int
(** Propagation delay assumed when an eventual spec gives none (16). *)

val of_string : string -> (t, string) result
(** Parse an engine spec: [strong], [commit], [session], [eventual]
    (default delay), [eventual:N] or [eventual:delay=N].  Errors name the
    offending token, e.g. ["eventual: delay: not an integer: \"x\""]. *)

val list_of_string : string -> (t list, string) result
(** Parse a comma-separated list of engine specs (as the [--semantics]
    CLI flags accept); rejects an empty list. *)

val table1 : (string * string list) list
(** The paper's Table 1: category name paired with the production file
    systems in that category. *)

val category_of_pfs : string -> t option
(** Look a file system up in {!table1} (case-insensitive); the eventual
    category is returned with a zero delay. *)
