(** Recommending the weakest sufficient consistency semantics.

    The decision procedure follows Section 6.3: session semantics suffice
    when the application has no cross-process conflicts under the session
    model (same-process conflicts are handled correctly by every surveyed
    PFS except BurstFS); otherwise commit semantics are tested; strong
    semantics remain the fallback. *)

type verdict = {
  semantics : Hpcfs_fs.Consistency.t;
  session_summary : Conflict.summary;
  commit_summary : Conflict.summary;
  needs_local_order : bool;
      (** Same-process conflicts exist, so the PFS must preserve
          single-process write order (BurstFS does not). *)
}

val of_summaries :
  session:Conflict.summary -> commit:Conflict.summary -> verdict
(** The decision procedure on the session and commit conflict summaries
    of one trace. *)

val describe : verdict -> string
