(* The workload value, its combinators, and the compact text syntax.  The
   tokenizer and error style are shared with the fault-plan language via
   Hpcfs_util.Spec. *)

module Spec = Hpcfs_util.Spec

type layout = Shared | File_per_process

type order = Consecutive | Strided | Segmented | Random

type sync = Sync_none | Fsync | Close

type io = {
  layout : layout;
  order : order;
  block : int;
  count : int;
  ranks : int option;
  file : string;
  sync : sync;
}

type meta_op = Mcreate | Mstat | Mreaddir | Munlink | Mmkdir | Mrename

type meta = {
  m_op : meta_op;
  m_files : int;
  m_layout : layout;
  m_dir : string;
  m_ranks : int option;
}

type phase =
  | Write of io
  | Read of io
  | Checkpoint of { io : io; steps : int; every : int }
  | Meta of meta
  | Barrier
  | Compute of int
  | Mix of { draws : int; branches : (int * phase) list }

type t = { name : string; phases : phase list }

let layout_name = function Shared -> "shared" | File_per_process -> "fpp"

(* In a metadata phase the layout names the directory shape, not a file
   striping: every participant in one directory vs one directory per
   rank. *)
let meta_layout_name = function
  | Shared -> "shared-dir"
  | File_per_process -> "fpp"

let meta_op_name = function
  | Mcreate -> "create"
  | Mstat -> "stat"
  | Mreaddir -> "readdir"
  | Munlink -> "unlink"
  | Mmkdir -> "mkdir"
  | Mrename -> "rename"

let order_name = function
  | Consecutive -> "consecutive"
  | Strided -> "strided"
  | Segmented -> "segmented"
  | Random -> "random"

let sync_name = function Sync_none -> "none" | Fsync -> "fsync" | Close -> "close"

(* Combinators -------------------------------------------------------------- *)

let io ?(layout = Shared) ?(order = Consecutive) ?(block = 512) ?(count = 1)
    ?ranks ?(file = "data") ?(sync = Close) () =
  { layout; order; block; count; ranks; file; sync }

let write ?layout ?order ?block ?count ?ranks ?file ?sync () =
  Write (io ?layout ?order ?block ?count ?ranks ?file ?sync ())

let read ?layout ?order ?block ?count ?ranks ?file ?sync () =
  Read (io ?layout ?order ?block ?count ?ranks ?file ?sync ())

let checkpoint ?layout ?order ?block ?count ?ranks ?(file = "ckpt") ?sync
    ?(steps = 20) ?(every = 10) () =
  Checkpoint
    { io = io ?layout ?order ?block ?count ?ranks ~file ?sync (); steps; every }

let meta ?(op = Mcreate) ?(files = 16) ?(layout = Shared) ?(dir = "meta")
    ?ranks () =
  Meta { m_op = op; m_files = files; m_layout = layout; m_dir = dir;
         m_ranks = ranks }

let barrier = Barrier
let compute n = Compute n
let mix ?(draws = 8) branches = Mix { draws; branches }

let make ?(name = "workload") phases = { name; phases }

(* Printing ----------------------------------------------------------------- *)

let default_io = io ()
let default_ckpt_io = io ~file:"ckpt" ()

let io_fields ~default i =
  List.concat
    [
      (if i.layout <> default.layout then
         [ "layout=" ^ layout_name i.layout ]
       else []);
      (if i.order <> default.order then
         [ "pattern=" ^ order_name i.order ]
       else []);
      (if i.block <> default.block then
         [ Printf.sprintf "block=%d" i.block ]
       else []);
      (if i.count <> default.count then
         [ Printf.sprintf "count=%d" i.count ]
       else []);
      (match i.ranks with
      | Some k -> [ Printf.sprintf "ranks=%d" k ]
      | None -> []);
      (if i.file <> default.file then [ "file=" ^ i.file ] else []);
      (if i.sync <> default.sync then [ "sync=" ^ sync_name i.sync ] else []);
    ]

let rec phase_to_string = function
  | Write i ->
    let fields = io_fields ~default:default_io i in
    if fields = [] then "write" else "write:" ^ String.concat "," fields
  | Read i ->
    let fields = io_fields ~default:default_io i in
    if fields = [] then "read" else "read:" ^ String.concat "," fields
  | Checkpoint { io = i; steps; every } ->
    let fields =
      [ Printf.sprintf "steps=%d" steps; Printf.sprintf "every=%d" every ]
      @ io_fields ~default:default_ckpt_io i
    in
    "checkpoint:" ^ String.concat "," fields
  | Meta m ->
    let fields =
      List.concat
        [
          [ "op=" ^ meta_op_name m.m_op ];
          (if m.m_files <> 16 then [ Printf.sprintf "files=%d" m.m_files ]
           else []);
          (if m.m_layout <> Shared then
             [ "layout=" ^ meta_layout_name m.m_layout ]
           else []);
          (if m.m_dir <> "meta" then [ "dir=" ^ m.m_dir ] else []);
          (match m.m_ranks with
          | Some k -> [ Printf.sprintf "ranks=%d" k ]
          | None -> []);
        ]
    in
    "meta:" ^ String.concat "," fields
  | Barrier -> "barrier"
  | Compute 1 -> "compute"
  | Compute n -> Printf.sprintf "compute:n=%d" n
  | Mix { draws; branches } ->
    (* Weights and the draw count are always printed, so the canonical
       form round-trips regardless of which defaults the builder used. *)
    Printf.sprintf "mix:n=%d|%s" draws
      (String.concat "|"
         (List.map
            (fun (w, p) -> Printf.sprintf "%d*%s" w (phase_to_string p))
            branches))

let to_string t = String.concat ";" (List.map phase_to_string t.phases)

(* Validation --------------------------------------------------------------- *)

let ( let* ) = Result.bind

let check_io head i =
  if i.block <= 0 then
    Error (Printf.sprintf "%s: block must be positive, got %d" head i.block)
  else if i.count <= 0 then
    Error (Printf.sprintf "%s: count must be positive, got %d" head i.count)
  else if (match i.ranks with Some k -> k <= 0 | None -> false) then
    Error
      (Printf.sprintf "%s: ranks must be positive, got %d" head
         (Option.get i.ranks))
  else if i.file = "" || String.contains i.file '/' then
    Error (Printf.sprintf "%s: file must be a plain name, got %S" head i.file)
  else Ok ()

let rec check_phase = function
  | Write i -> check_io "write" i
  | Read i -> check_io "read" i
  | Checkpoint { io = i; steps; every } ->
    let* () = check_io "checkpoint" i in
    if steps <= 0 then
      Error (Printf.sprintf "checkpoint: steps must be positive, got %d" steps)
    else if every <= 0 then
      Error (Printf.sprintf "checkpoint: every must be positive, got %d" every)
    else Ok ()
  | Meta m ->
    if m.m_files <= 0 then
      Error
        (Printf.sprintf "meta: files must be positive, got %d" m.m_files)
    else if (match m.m_ranks with Some k -> k <= 0 | None -> false) then
      Error
        (Printf.sprintf "meta: ranks must be positive, got %d"
           (Option.get m.m_ranks))
    else if m.m_dir = "" || String.contains m.m_dir '/' then
      Error
        (Printf.sprintf "meta: dir must be a plain name, got %S" m.m_dir)
    else Ok ()
  | Barrier -> Ok ()
  | Compute n ->
    if n <= 0 then
      Error (Printf.sprintf "compute: n must be positive, got %d" n)
    else Ok ()
  | Mix { draws; branches } ->
    if draws <= 0 then
      Error (Printf.sprintf "mix: n must be positive, got %d" draws)
    else if branches = [] then Error "mix: needs at least one branch"
    else
      List.fold_left
        (fun acc (w, p) ->
          let* () = acc in
          if w <= 0 then
            Error (Printf.sprintf "mix: weight must be positive, got %d" w)
          else
            match p with
            | Mix _ -> Error "mix: branches cannot nest mix"
            | p -> check_phase p)
        (Ok ()) branches

let validate t =
  if t.phases = [] then Error "empty workload"
  else
    let* () =
      List.fold_left
        (fun acc p ->
          let* () = acc in
          check_phase p)
        (Ok ()) t.phases
    in
    Ok t

(* Parsing ------------------------------------------------------------------ *)

let layouts = [ ("shared", Shared); ("fpp", File_per_process) ]

let orders =
  [
    ("consecutive", Consecutive);
    ("strided", Strided);
    ("segmented", Segmented);
    ("random", Random);
  ]

let syncs = [ ("none", Sync_none); ("fsync", Fsync); ("close", Close) ]

let io_keys = [ "layout"; "pattern"; "block"; "count"; "ranks"; "file"; "sync" ]

let parse_io head ~default kvs =
  let get k = List.assoc_opt k kvs in
  let* layout =
    match get "layout" with
    | None -> Ok default.layout
    | Some v -> Spec.enum_field head "layout" ~accepted:layouts v
  in
  let* order =
    match get "pattern" with
    | None -> Ok default.order
    | Some v -> Spec.enum_field head "pattern" ~accepted:orders v
  in
  let* block =
    match get "block" with
    | None -> Ok default.block
    | Some v -> Spec.parse_int head "block" v
  in
  let* count =
    match get "count" with
    | None -> Ok default.count
    | Some v -> Spec.parse_int head "count" v
  in
  let* ranks =
    match get "ranks" with
    | None -> Ok None
    | Some v -> Result.map Option.some (Spec.parse_int head "ranks" v)
  in
  let file = Option.value ~default:default.file (get "file") in
  let* sync =
    match get "sync" with
    | None -> Ok default.sync
    | Some v -> Spec.enum_field head "sync" ~accepted:syncs v
  in
  Ok { layout; order; block; count; ranks; file; sync }

(* A mix branch is [W*phase-spec] ([W*] optional, weight 1 when absent):
   the prefix before the first ['*'] is a weight only when it is all
   digits, so a ['*'] inside a field value never splits a branch. *)
let split_branch seg =
  match String.index_opt seg '*' with
  | Some i
    when i > 0
         && String.for_all
              (function '0' .. '9' -> true | _ -> false)
              (String.sub seg 0 i) ->
    let* w = Spec.parse_int "mix" "weight" (String.sub seg 0 i) in
    Ok (w, String.sub seg (i + 1) (String.length seg - i - 1))
  | _ -> Ok (1, seg)

let rec parse_phase spec =
  let head, rest = Spec.split_head spec in
  let fields = Spec.fields_of rest in
  match head with
  | "write" | "read" ->
    let* kvs = Spec.parse_fields head fields in
    let* () = Spec.check_keys head ~accepted:io_keys kvs in
    let* i = parse_io head ~default:default_io kvs in
    Ok (if head = "write" then Write i else Read i)
  | "checkpoint" | "ckpt" ->
    let head = "checkpoint" in
    let* kvs = Spec.parse_fields head fields in
    let* () =
      Spec.check_keys head ~accepted:([ "steps"; "every" ] @ io_keys) kvs
    in
    let* i = parse_io head ~default:default_ckpt_io kvs in
    let* steps =
      match List.assoc_opt "steps" kvs with
      | None -> Ok 20
      | Some v -> Spec.parse_int head "steps" v
    in
    let* every =
      match List.assoc_opt "every" kvs with
      | None -> Ok 10
      | Some v -> Spec.parse_int head "every" v
    in
    Ok (Checkpoint { io = i; steps; every })
  | "meta" ->
    let* kvs = Spec.parse_fields head fields in
    let* () =
      Spec.check_keys head
        ~accepted:[ "op"; "files"; "layout"; "dir"; "ranks" ]
        kvs
    in
    let* op =
      match List.assoc_opt "op" kvs with
      | None -> Ok Mcreate
      | Some v ->
        Spec.enum_field head "op"
          ~accepted:
            [
              ("create", Mcreate); ("stat", Mstat); ("readdir", Mreaddir);
              ("unlink", Munlink); ("mkdir", Mmkdir); ("rename", Mrename);
            ]
          v
    in
    let* files =
      match List.assoc_opt "files" kvs with
      | None -> Ok 16
      | Some v -> Spec.parse_int head "files" v
    in
    let* layout =
      match List.assoc_opt "layout" kvs with
      | None -> Ok Shared
      | Some v ->
        Spec.enum_field head "layout"
          ~accepted:[ ("shared-dir", Shared); ("fpp", File_per_process) ]
          v
    in
    let dir = Option.value ~default:"meta" (List.assoc_opt "dir" kvs) in
    let* ranks =
      match List.assoc_opt "ranks" kvs with
      | None -> Ok None
      | Some v -> Result.map Option.some (Spec.parse_int head "ranks" v)
    in
    Ok (Meta { m_op = op; m_files = files; m_layout = layout; m_dir = dir;
               m_ranks = ranks })
  | "barrier" ->
    if fields = [] then Ok Barrier
    else Error (Printf.sprintf "barrier: takes no keys, got %S" rest)
  | "compute" ->
    let* kvs = Spec.parse_fields head fields in
    let* () = Spec.check_keys head ~accepted:[ "n" ] kvs in
    let* n =
      match List.assoc_opt "n" kvs with
      | None -> Ok 1
      | Some v -> Spec.parse_int head "n" v
    in
    Ok (Compute n)
  | "mix" ->
    (* [mix:n=K|W*branch|W*branch...]: ['|'] separates the branches; an
       [n=K] first segment sets the draw count (default 8). *)
    let segments = String.split_on_char '|' rest in
    let* draws, segments =
      match segments with
      | first :: tail
        when String.length first >= 2 && String.sub first 0 2 = "n=" ->
        let* kvs = Spec.parse_fields head (Spec.fields_of first) in
        let* () = Spec.check_keys head ~accepted:[ "n" ] kvs in
        let* n = Spec.parse_int head "n" (List.assoc "n" kvs) in
        Ok (n, tail)
      | segments -> Ok (8, segments)
    in
    let segments = List.filter (fun s -> String.trim s <> "") segments in
    if segments = [] then Error "mix: needs at least one branch"
    else
      let* branches =
        List.fold_left
          (fun acc seg ->
            let* acc = acc in
            let* w, spec = split_branch seg in
            let* p = parse_phase (String.trim spec) in
            match p with
            | Mix _ -> Error "mix: branches cannot nest mix"
            | p -> Ok ((w, p) :: acc))
          (Ok []) segments
      in
      Ok (Mix { draws; branches = List.rev branches })
  | other ->
    Error
      (Printf.sprintf
         "unknown workload phase %S; expected write, read, checkpoint, \
          meta, barrier, compute or mix"
         other)

let of_string ?(name = "workload") s =
  let specs =
    List.filter (fun f -> String.trim f <> "") (String.split_on_char ';' s)
  in
  if specs = [] then Error "empty workload spec"
  else
    let* phases =
      List.fold_left
        (fun acc spec ->
          let* acc = acc in
          let* p = parse_phase (String.trim spec) in
          Ok (p :: acc))
        (Ok []) specs
    in
    validate { name; phases = List.rev phases }
