type kind = Regular | Directory

type stat = {
  st_kind : kind;
  st_size : int;
  st_mtime : int;
  st_ctime : int;
  st_atime : int;
}

type meta = { mutable mtime : int; mutable ctime : int; mutable atime : int }

type file = { data : Fdata.t; meta : meta }

type node =
  | File of file
  | Dir of (string, node) Hashtbl.t * meta

module Index = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* [sem]: the consistency engine every file is created with.  [root]: the
   root directory's entries; each directory node holds its own, so the
   tables form the tree that readdir and emptiness checks read.  [index]:
   every node but the root, by canonical path — the same node values the
   tables hold. *)
type t = {
  sem : Consistency.t;
  root : (string, node) Hashtbl.t;
  index : node Index.t;
}

exception Not_found_path of string
exception Exists of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Not_empty of string
exception Invalid_rename of string

let create sem = { sem; root = Hashtbl.create 16; index = Index.create 64 }

let fresh_meta time = { mtime = time; ctime = time; atime = time }

(* Canonical form: "/" for the root, otherwise "/c1/.../cn" with no empty
   component.  Checking it is one scan that allocates nothing. *)
let rec canonical_from p n i =
  i >= n
  || (p.[i] <> '/' || (p.[i - 1] <> '/' && i < n - 1))
     && canonical_from p n (i + 1)

let is_canonical p =
  let n = String.length p in
  n > 0 && p.[0] = '/' && canonical_from p n 1

let canonical p =
  if is_canonical p then p
  else
    match String.split_on_char '/' p |> List.filter (fun c -> c <> "") with
    | [] -> "/"
    | components -> "/" ^ String.concat "/" components

let is_root key = String.length key = 1

(* A canonical [key] the index misses: its deepest existing ancestor
   decides, as the first component a top-down walk fails on would — a
   file there makes [path] Not_a_directory, a directory leaves it absent.
   Every ancestor of an indexed node is an indexed directory, so probing
   upward from the parent finds that ancestor. *)
let rec miss t key path =
  match String.rindex key '/' with
  | 0 -> raise (Not_found_path path)
  | i -> (
    let parent = String.sub key 0 i in
    match Index.find t.index parent with
    | File _ -> raise (Not_a_directory path)
    | Dir _ -> raise (Not_found_path path)
    | exception Not_found -> miss t parent path)

let find_key t key path =
  match Index.find t.index key with
  | node -> node
  | exception Not_found -> miss t key path

(* The node at [path] (the root is no entry of its own); raises
   Not_found_path or Not_a_directory, carrying [path] as given. *)
let find t path = find_key t (canonical path) path

let dir_entries t key path =
  if is_root key then t.root
  else
    match find_key t key path with
    | Dir (tbl, _) -> tbl
    | File _ -> raise (Not_a_directory path)

(* The table holding [key]'s final component, and that component. *)
let parent_and_leaf t key path =
  if is_root key then invalid_arg "Namespace: root has no parent";
  let i = String.rindex key '/' in
  let leaf = String.sub key (i + 1) (String.length key - i - 1) in
  if i = 0 then (t.root, leaf)
  else (dir_entries t (String.sub key 0 i) path, leaf)

let lookup t path =
  match find t path with
  | File f -> f
  | Dir _ -> raise (Is_a_directory path)

let lookup_opt t path =
  match find t path with
  | File f -> Some f
  | Dir _ -> raise (Is_a_directory path)
  | exception (Not_found_path _ | Not_a_directory _) -> None

let data f = f.data
let lookup_file t path = (lookup t path).data

let exists t path =
  match find t path with
  | _ -> true
  | exception (Not_found_path _ | Not_a_directory _) -> false

let is_dir t path =
  match find t path with
  | Dir _ -> true
  | File _ -> false
  | exception (Not_found_path _ | Not_a_directory _) -> false

(* Every insertion puts one node value into its parent's table and the
   index together. *)
let insert t tbl leaf key node =
  Hashtbl.replace tbl leaf node;
  Index.replace t.index key node

let create_file t ~time path =
  let key = canonical path in
  match Index.find t.index key with
  | File f -> f.data
  | Dir _ -> raise (Exists path)
  | exception Not_found ->
    let tbl, leaf = parent_and_leaf t key path in
    let f = { data = Fdata.create t.sem; meta = fresh_meta time } in
    insert t tbl leaf key (File f);
    f.data

let mkdir t ~time path =
  let key = canonical path in
  let tbl, leaf = parent_and_leaf t key path in
  if Index.mem t.index key then raise (Exists path);
  insert t tbl leaf key (Dir (Hashtbl.create 8, fresh_meta time))

let rmdir t path =
  let key = canonical path in
  let tbl, leaf = parent_and_leaf t key path in
  match Index.find t.index key with
  | Dir (sub, _) ->
    if Hashtbl.length sub > 0 then raise (Not_empty path);
    Hashtbl.remove tbl leaf;
    Index.remove t.index key
  | File _ -> raise (Not_a_directory path)
  | exception Not_found -> raise (Not_found_path path)

let unlink t path =
  let key = canonical path in
  let tbl, leaf = parent_and_leaf t key path in
  match Index.find t.index key with
  | File _ ->
    Hashtbl.remove tbl leaf;
    Index.remove t.index key
  | Dir _ -> raise (Is_a_directory path)
  | exception Not_found -> raise (Not_found_path path)

(* Move the index entries of a renamed directory's descendants from under
   [src] to under [dst].  The two subtrees are disjoint by the time this
   runs: [dst] is neither inside [src] nor, being empty or absent, an
   ancestor of it. *)
let rec rekey t tbl ~src ~dst =
  Hashtbl.iter
    (fun name node ->
      let src = src ^ "/" ^ name and dst = dst ^ "/" ^ name in
      Index.remove t.index src;
      Index.replace t.index dst node;
      match node with
      | Dir (sub, _) -> rekey t sub ~src ~dst
      | File _ -> ())
    tbl

(* POSIX rename(2) semantics: an existing destination is atomically
   replaced when the kinds agree (file onto file; directory onto *empty*
   directory), renaming to the same path is a no-op, and moving a
   directory into its own subtree is rejected ([EINVAL]).  Every check
   runs before the first mutation, so a raising rename changes nothing. *)
let rename t ~time src dst =
  let skey = canonical src and dkey = canonical dst in
  if is_root skey then invalid_arg "Namespace.rename: cannot rename the root";
  if is_root dkey then raise (Invalid_rename dst);
  if String.equal skey dkey then ()
  else if String.starts_with ~prefix:(skey ^ "/") dkey then
    (* dst strictly inside src's subtree: the move would orphan it. *)
    raise (Invalid_rename dst)
  else begin
    let stbl, sleaf = parent_and_leaf t skey src in
    match Hashtbl.find_opt stbl sleaf with
    | None -> raise (Not_found_path src)
    | Some node ->
      let dtbl, dleaf = parent_and_leaf t dkey dst in
      (match (node, Hashtbl.find_opt dtbl dleaf) with
      | _, None -> ()
      | File _, Some (File _) -> () (* replace the destination file *)
      | File _, Some (Dir _) -> raise (Is_a_directory dst)
      | Dir _, Some (File _) -> raise (Not_a_directory dst)
      | Dir _, Some (Dir (sub, _)) ->
        if Hashtbl.length sub > 0 then raise (Not_empty dst));
      Hashtbl.remove stbl sleaf;
      Index.remove t.index skey;
      (match node with
      | File { meta = m; _ } | Dir (_, m) -> m.ctime <- max m.ctime time);
      insert t dtbl dleaf dkey node;
      match node with
      | Dir (sub, _) -> rekey t sub ~src:skey ~dst:dkey
      | File _ -> ()
  end

let readdir t path =
  let tbl = dir_entries t (canonical path) path in
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) tbl [])

let stat t path =
  match find t path with
  | File { data; meta = m } ->
    { st_kind = Regular; st_size = Fdata.size data; st_mtime = m.mtime;
      st_ctime = m.ctime; st_atime = m.atime }
  | Dir (_, m) ->
    { st_kind = Directory; st_size = 0; st_mtime = m.mtime;
      st_ctime = m.ctime; st_atime = m.atime }

(* Timestamps advance by max, not assignment: a run's touches are already
   time-monotone, so this is the same store, and no touch moves a time
   backwards. *)
let touch_mtime f ~time = f.meta.mtime <- max f.meta.mtime time
let touch_atime f ~time = f.meta.atime <- max f.meta.atime time

let all_files t =
  Index.fold
    (fun key node acc -> match node with File _ -> key :: acc | Dir _ -> acc)
    t.index []
  |> List.sort String.compare
