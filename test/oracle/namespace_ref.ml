module Namespace = Hpcfs_fs.Namespace
open Namespace

type meta = { mutable mtime : int; mutable ctime : int; mutable atime : int }
type kind = F of int | D
type entry = { kind : kind; meta : meta }

(* Every entry but the root, keyed by its component list. *)
type t = { mutable entries : (string list * entry) list; mutable serial : int }

let create () = { entries = []; serial = 0 }

let components p = String.split_on_char '/' p |> List.filter (fun c -> c <> "")
let find t cs = List.assoc_opt cs t.entries

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | x :: p', y :: q' -> x = y && is_prefix p' q'
  | _ :: _, [] -> false

let children t cs =
  let n = List.length cs + 1 in
  List.filter (fun (k, _) -> List.length k = n && is_prefix cs k) t.entries

(* Walk [dirs] from the root: each must be an existing directory. *)
let walk_dirs t path dirs =
  let rec go prefix = function
    | [] -> ()
    | c :: rest -> (
      let here = prefix @ [ c ] in
      match find t here with
      | None -> raise (Not_found_path path)
      | Some { kind = F _; _ } -> raise (Not_a_directory path)
      | Some { kind = D; _ } -> go here rest)
  in
  go [] dirs

(* The entry at [path]: absent at the first missing component, and a
   file before the last one is an error.  The root is no entry. *)
let resolve t path =
  let rec go prefix = function
    | [] -> None
    | [ c ] -> find t (prefix @ [ c ])
    | c :: rest -> (
      let here = prefix @ [ c ] in
      match find t here with
      | None -> None
      | Some { kind = F _; _ } -> raise (Not_a_directory path)
      | Some { kind = D; _ } -> go here rest)
  in
  go [] (components path)

let leaf_of t path =
  match List.rev (components path) with
  | [] -> invalid_arg "Namespace: root has no parent"
  | _ :: rev_dirs as rev ->
    walk_dirs t path (List.rev rev_dirs);
    List.rev rev

let fresh time = { mtime = time; ctime = time; atime = time }
let add t cs kind time =
  t.entries <- (cs, { kind; meta = fresh time }) :: t.entries
let remove t cs = t.entries <- List.remove_assoc cs t.entries

let lookup_file t path =
  match resolve t path with
  | Some { kind = F id; _ } -> id
  | Some { kind = D; _ } -> raise (Is_a_directory path)
  | None -> raise (Not_found_path path)

let lookup_opt t path =
  match resolve t path with
  | Some { kind = F id; _ } -> Some id
  | Some { kind = D; _ } -> raise (Is_a_directory path)
  | None | (exception Not_a_directory _) -> None

let create_file t ~time path =
  let cs = leaf_of t path in
  match find t cs with
  | Some { kind = F id; _ } -> id
  | Some { kind = D; _ } -> raise (Exists path)
  | None ->
    t.serial <- t.serial + 1;
    add t cs (F t.serial) time;
    t.serial

let exists t path =
  match resolve t path with
  | Some _ -> true
  | None | (exception Not_a_directory _) -> false

let is_dir t path =
  match resolve t path with
  | Some { kind = D; _ } -> true
  | Some { kind = F _; _ } | None | (exception Not_a_directory _) -> false

let mkdir t ~time path =
  let cs = leaf_of t path in
  if find t cs <> None then raise (Exists path);
  add t cs D time

let rmdir t path =
  let cs = leaf_of t path in
  match find t cs with
  | Some { kind = D; _ } ->
    if children t cs <> [] then raise (Not_empty path);
    remove t cs
  | Some { kind = F _; _ } -> raise (Not_a_directory path)
  | None -> raise (Not_found_path path)

let unlink t path =
  let cs = leaf_of t path in
  match find t cs with
  | Some { kind = F _; _ } -> remove t cs
  | Some { kind = D; _ } -> raise (Is_a_directory path)
  | None -> raise (Not_found_path path)

let rename t ~time src dst =
  let sc = components src and dc = components dst in
  if sc = [] then invalid_arg "Namespace.rename: cannot rename the root";
  if dc = [] then raise (Invalid_rename dst);
  if sc = dc then ()
  else if is_prefix sc dc then raise (Invalid_rename dst)
  else begin
    ignore (leaf_of t src);
    match find t sc with
    | None -> raise (Not_found_path src)
    | Some e ->
      ignore (leaf_of t dst);
      (match (e.kind, find t dc) with
      | _, None | F _, Some { kind = F _; _ } -> ()
      | F _, Some { kind = D; _ } -> raise (Is_a_directory dst)
      | D, Some { kind = F _; _ } -> raise (Not_a_directory dst)
      | D, Some { kind = D; _ } ->
        if children t dc <> [] then raise (Not_empty dst));
      e.meta.ctime <- max e.meta.ctime time;
      remove t dc;
      let n = List.length sc in
      t.entries <-
        List.map
          (fun (k, v) ->
            if is_prefix sc k then (dc @ List.filteri (fun i _ -> i >= n) k, v)
            else (k, v))
          t.entries
  end

let readdir t path =
  let cs = components path in
  walk_dirs t path cs;
  children t cs
  |> List.map (fun (k, _) -> List.nth k (List.length cs))
  |> List.sort String.compare

let stat t path =
  match resolve t path with
  | Some { kind; meta = m } ->
    {
      st_kind = (match kind with F _ -> Regular | D -> Directory);
      st_size = 0;
      st_mtime = m.mtime;
      st_ctime = m.ctime;
      st_atime = m.atime;
    }
  | None -> raise (Not_found_path path)

let with_meta t path f =
  match resolve t path with
  | Some { kind = F _; meta } -> f meta
  | Some { kind = D; _ } -> raise (Is_a_directory path)
  | None -> raise (Not_found_path path)

let touch_mtime t ~time path =
  with_meta t path (fun m -> m.mtime <- max m.mtime time)

let touch_atime t ~time path =
  with_meta t path (fun m -> m.atime <- max m.atime time)

let all_files t =
  List.filter_map
    (fun (k, e) ->
      match e.kind with F _ -> Some ("/" ^ String.concat "/" k) | D -> None)
    t.entries
  |> List.sort String.compare

let parent path =
  match List.rev (components path) with
  | [] | [ _ ] -> "/"
  | _leaf :: rev_dirs -> "/" ^ String.concat "/" (List.rev rev_dirs)

let shard ~shards path =
  if shards <= 1 then 0
  else begin
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
      (parent path);
    !h mod shards
  end
