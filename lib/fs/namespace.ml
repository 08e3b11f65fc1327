type kind = Regular | Directory

type stat = {
  st_kind : kind;
  st_size : int;
  st_mtime : int;
  st_ctime : int;
  st_atime : int;
}

type meta = { mutable mtime : int; mutable ctime : int; mutable atime : int }

type node =
  | File of Fdata.t * meta
  | Dir of (string, node) Hashtbl.t * meta

(* [sem]: the consistency engine every file is created with. *)
type t = { sem : Consistency.t; root : (string, node) Hashtbl.t }

exception Not_found_path of string
exception Exists of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Not_empty of string
exception Invalid_rename of string

let create sem = { sem; root = Hashtbl.create 16 }

let fresh_meta time = { mtime = time; ctime = time; atime = time }

let split_path path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

(* Walk to the directory table containing the final component. *)
let rec walk_dir tbl path components =
  match components with
  | [] -> tbl
  | c :: rest -> (
    match Hashtbl.find_opt tbl c with
    | Some (Dir (sub, _)) -> walk_dir sub path rest
    | Some (File _) -> raise (Not_a_directory path)
    | None -> raise (Not_found_path path))

let parent_and_leaf t path =
  match List.rev (split_path path) with
  | [] -> invalid_arg "Namespace: root has no parent"
  | leaf :: rev_dirs -> (walk_dir t.root path (List.rev rev_dirs), leaf)

let find_node t path =
  match split_path path with
  | [] -> None
  | components ->
    let rec go tbl = function
      | [ leaf ] -> Hashtbl.find_opt tbl leaf
      | c :: rest -> (
        match Hashtbl.find_opt tbl c with
        | Some (Dir (sub, _)) -> go sub rest
        | Some (File _) -> raise (Not_a_directory path)
        | None -> None)
      | [] -> None
    in
    go t.root components

let lookup_file t path =
  match find_node t path with
  | Some (File (fd, _)) -> fd
  | Some (Dir _) -> raise (Is_a_directory path)
  | None -> raise (Not_found_path path)

let exists t path =
  match find_node t path with
  | Some _ -> true
  | None -> false
  | exception Not_a_directory _ -> false

let is_dir t path =
  match find_node t path with
  | Some (Dir _) -> true
  | Some (File _) | None -> false
  | exception Not_a_directory _ -> false

let create_file t ~time path =
  let tbl, leaf = parent_and_leaf t path in
  match Hashtbl.find_opt tbl leaf with
  | Some (File (fd, _)) -> fd
  | Some (Dir _) -> raise (Exists path)
  | None ->
    let fd = Fdata.create t.sem in
    Hashtbl.replace tbl leaf (File (fd, fresh_meta time));
    fd

let mkdir t ~time path =
  let tbl, leaf = parent_and_leaf t path in
  if Hashtbl.mem tbl leaf then raise (Exists path);
  Hashtbl.replace tbl leaf (Dir (Hashtbl.create 8, fresh_meta time))

let rmdir t path =
  let tbl, leaf = parent_and_leaf t path in
  match Hashtbl.find_opt tbl leaf with
  | Some (Dir (sub, _)) ->
    if Hashtbl.length sub > 0 then raise (Not_empty path);
    Hashtbl.remove tbl leaf
  | Some (File _) -> raise (Not_a_directory path)
  | None -> raise (Not_found_path path)

let unlink t path =
  let tbl, leaf = parent_and_leaf t path in
  match Hashtbl.find_opt tbl leaf with
  | Some (File _) -> Hashtbl.remove tbl leaf
  | Some (Dir _) -> raise (Is_a_directory path)
  | None -> raise (Not_found_path path)

(* POSIX rename(2) semantics: an existing destination is atomically
   replaced when the kinds agree (file onto file; directory onto *empty*
   directory), renaming to the same path is a no-op, and moving a
   directory into its own subtree is rejected ([EINVAL]). *)
let rename t ~time src dst =
  let src_c = split_path src and dst_c = split_path dst in
  if src_c = [] then invalid_arg "Namespace.rename: cannot rename the root";
  if dst_c = [] then raise (Invalid_rename dst);
  let rec is_prefix p q =
    match (p, q) with
    | [], _ -> true
    | x :: p', y :: q' -> x = y && is_prefix p' q'
    | _ :: _, [] -> false
  in
  if src_c = dst_c then ()
  else if is_prefix src_c dst_c then
    (* dst strictly inside src's subtree: the move would orphan it. *)
    raise (Invalid_rename dst)
  else begin
    let stbl, sleaf = parent_and_leaf t src in
    match Hashtbl.find_opt stbl sleaf with
    | None -> raise (Not_found_path src)
    | Some node ->
      let dtbl, dleaf = parent_and_leaf t dst in
      (match (node, Hashtbl.find_opt dtbl dleaf) with
      | _, None -> ()
      | File _, Some (File _) -> () (* replace the destination file *)
      | File _, Some (Dir _) -> raise (Is_a_directory dst)
      | Dir _, Some (File _) -> raise (Not_a_directory dst)
      | Dir _, Some (Dir (sub, _)) ->
        if Hashtbl.length sub > 0 then raise (Not_empty dst));
      Hashtbl.remove stbl sleaf;
      (match node with
      | File (_, m) | Dir (_, m) -> m.ctime <- max m.ctime time);
      Hashtbl.replace dtbl dleaf node
  end

let readdir t path =
  let components = split_path path in
  let tbl = walk_dir t.root path components in
  Hashtbl.fold (fun name _ acc -> name :: acc) tbl []
  |> List.sort String.compare

let stat t path =
  match find_node t path with
  | Some (File (fd, m)) ->
    { st_kind = Regular; st_size = Fdata.size fd; st_mtime = m.mtime;
      st_ctime = m.ctime; st_atime = m.atime }
  | Some (Dir (_, m)) ->
    { st_kind = Directory; st_size = 0; st_mtime = m.mtime;
      st_ctime = m.ctime; st_atime = m.atime }
  | None -> raise (Not_found_path path)

let with_meta t path f =
  match find_node t path with
  | Some (File (_, m)) | Some (Dir (_, m)) -> f m
  | None -> raise (Not_found_path path)

(* Timestamps advance by max, not assignment: a run's touches are already
   time-monotone, so this is the same store, and no touch moves a time
   backwards. *)
let touch_mtime t ~time path =
  with_meta t path (fun m -> m.mtime <- max m.mtime time)

let touch_atime t ~time path =
  with_meta t path (fun m -> m.atime <- max m.atime time)

let all_files t =
  let acc = ref [] in
  let rec go prefix tbl =
    Hashtbl.iter
      (fun name node ->
        let path = prefix ^ "/" ^ name in
        match node with
        | File _ -> acc := path :: !acc
        | Dir (sub, _) -> go path sub)
      tbl
  in
  go "" t.root;
  List.sort String.compare !acc
