type t = Strong | Commit | Session | Eventual of { delay : int }

let strength = function
  | Strong -> 4
  | Commit -> 3
  | Session -> 2
  | Eventual _ -> 1

let compare_strength a b = compare (strength a) (strength b)

let name = function
  | Strong -> "strong consistency"
  | Commit -> "commit consistency"
  | Session -> "session consistency"
  | Eventual _ -> "eventual consistency"

let pp ppf t = Format.pp_print_string ppf (name t)

let key = function
  | Strong -> "strong"
  | Commit -> "commit"
  | Session -> "session"
  | Eventual _ -> "eventual"

let to_string = function
  | Eventual { delay } -> Printf.sprintf "eventual:%d" delay
  | t -> key t

let default_eventual_delay = 16

(* Engine specs as they appear on CLIs and in sweep grids: [strong],
   [commit], [session], [eventual] (default delay), [eventual:N] or
   [eventual:delay=N].  Errors name the offending token. *)
let of_string s =
  let s = String.trim s in
  match String.lowercase_ascii s with
  | "strong" -> Ok Strong
  | "commit" -> Ok Commit
  | "session" -> Ok Session
  | "eventual" -> Ok (Eventual { delay = default_eventual_delay })
  | low -> (
    match String.index_opt low ':' with
    | Some i when String.sub low 0 i = "eventual" ->
      let rest = String.sub low (i + 1) (String.length low - i - 1) in
      let v =
        match String.index_opt rest '=' with
        | None -> Ok rest
        | Some j ->
          let key = String.sub rest 0 j in
          if key = "delay" then
            Ok (String.sub rest (j + 1) (String.length rest - j - 1))
          else
            Error
              (Printf.sprintf "eventual: unknown key %S (accepted: delay)" key)
      in
      Result.bind v (fun v ->
          match int_of_string_opt v with
          | Some delay when delay >= 0 -> Ok (Eventual { delay })
          | Some delay ->
            Error
              (Printf.sprintf "eventual: delay must be >= 0, got %d" delay)
          | None ->
            Error (Printf.sprintf "eventual: delay: not an integer: %S" v))
    | _ ->
      Error
        (Printf.sprintf
           "unknown consistency engine %S (expected strong, commit, session \
            or eventual[:delay=N])"
           s))

let list_of_string spec =
  let specs =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  if specs = [] then Error "empty consistency-engine list"
  else
    List.fold_right
      (fun s acc ->
        Result.bind acc (fun tl ->
            Result.map (fun h -> h :: tl) (of_string s)))
      specs (Ok [])

let table1 =
  [
    ( "Strong Consistency",
      [ "GPFS"; "Lustre"; "GekkoFS"; "BeeGFS"; "BatchFS"; "OrangeFS" ] );
    ("Commit Consistency", [ "BSCFS"; "UnifyFS"; "SymphonyFS"; "BurstFS" ]);
    ("Session Consistency", [ "NFS"; "AFS"; "DDN IME"; "Gfarm/BB" ]);
    ("Eventual Consistency", [ "PLFS"; "echofs"; "MarFS" ]);
  ]

let category_of_pfs fs =
  let fs = String.lowercase_ascii fs in
  let matches (_, systems) =
    List.exists (fun s -> String.lowercase_ascii s = fs) systems
  in
  match List.find_opt matches table1 with
  | Some ("Strong Consistency", _) -> Some Strong
  | Some ("Commit Consistency", _) -> Some Commit
  | Some ("Session Consistency", _) -> Some Session
  | Some ("Eventual Consistency", _) -> Some (Eventual { delay = 0 })
  | Some _ | None -> None
