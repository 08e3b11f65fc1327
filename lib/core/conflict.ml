type kind = RAW | WAW
type scope = Same | Diff

type t = {
  first : Access.t;
  second : Access.t;
  kind : kind;
  scope : scope;
}

type semantics = Commit_semantics | Session_semantics

type mode = Annotated | Tables of Eventtab.t

(* Condition 3: no commit by the writer strictly between the accesses. *)
let commit_conflict mode (w : Access.t) (second : Access.t) =
  match mode with
  | Annotated -> w.Access.t_commit >= second.Access.time
  | Tables tab ->
    not
      (Eventtab.exists_commit_between tab ~rank:w.Access.rank
         ~file:w.Access.file w.Access.time second.Access.time)

(* Condition 4: no close-by-writer / open-by-second pair strictly between
   the accesses. *)
let session_conflict mode (w : Access.t) (second : Access.t) =
  match mode with
  | Annotated ->
    not
      (w.Access.t_close < second.Access.t_open
      && second.Access.t_open <= second.Access.time)
  | Tables tab ->
    not
      (Eventtab.exists_close_open_between tab ~writer:w.Access.rank
         ~reader:second.Access.rank ~file:w.Access.file w.Access.time
         second.Access.time)

let classify ?(mode = Annotated) semantics (first, second) =
  if not (Access.is_write first) then None
  else begin
    let conflicting =
      match semantics with
      | Commit_semantics -> commit_conflict mode first second
      | Session_semantics -> session_conflict mode first second
    in
    if not conflicting then None
    else
      Some
        {
          first;
          second;
          kind = (if Access.is_write second then WAW else RAW);
          scope =
            (if first.Access.rank = second.Access.rank then Same else Diff);
        }
  end

let of_pairs ?mode semantics pairs =
  List.filter_map (classify ?mode semantics) pairs

type summary = { waw_s : int; waw_d : int; raw_s : int; raw_d : int }

let empty_summary = { waw_s = 0; waw_d = 0; raw_s = 0; raw_d = 0 }

let count s c =
  match (c.kind, c.scope) with
  | WAW, Same -> { s with waw_s = s.waw_s + 1 }
  | WAW, Diff -> { s with waw_d = s.waw_d + 1 }
  | RAW, Same -> { s with raw_s = s.raw_s + 1 }
  | RAW, Diff -> { s with raw_d = s.raw_d + 1 }

let summarize conflicts = List.fold_left count empty_summary conflicts

let no_conflicts s = s.waw_s = 0 && s.waw_d = 0 && s.raw_s = 0 && s.raw_d = 0

let only_same_process s = s.waw_d = 0 && s.raw_d = 0

let kind_name = function RAW -> "RAW" | WAW -> "WAW"
let scope_name = function Same -> "S" | Diff -> "D"
