module Consistency = Hpcfs_fs.Consistency

type verdict = {
  semantics : Consistency.t;
  session_summary : Conflict.summary;
  commit_summary : Conflict.summary;
  needs_local_order : bool;
}

let of_summaries ~session:session_summary ~commit:commit_summary =
  (* Same-process ordering is judged on the summary of the chosen engine:
     session's own, or commit's for commit and strong. *)
  let semantics, judged =
    if Conflict.only_same_process session_summary then
      (Consistency.Session, session_summary)
    else if Conflict.only_same_process commit_summary then
      (Consistency.Commit, commit_summary)
    else (Consistency.Strong, commit_summary)
  in
  let needs_local_order = not (Conflict.no_conflicts judged) in
  { semantics; session_summary; commit_summary; needs_local_order }

let describe v =
  Printf.sprintf "%s%s" (Consistency.name v.semantics)
    (if v.needs_local_order then
       " (requires same-process ordering, i.e. not BurstFS)"
     else "")
