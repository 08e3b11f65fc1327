module Record = Hpcfs_trace.Record
module Opclass = Hpcfs_trace.Opclass
module Interval = Hpcfs_util.Interval

type file_stats = {
  f_path : string;
  f_reads : int;
  f_writes : int;
  f_bytes_read : int;
  f_bytes_written : int;
  f_ranks : int;
  f_session_conflicts : int;
  f_commit_conflicts : int;
}

type t = {
  total_records : int;
  calls_per_layer : (string * int) list;
  calls_per_function : (string * int) list;
  bytes_read : int;
  bytes_written : int;
  size_histogram : (int * int * int) list;
  files : file_stats list;
}

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Power-of-two bucket index for an access size. *)
let bucket_of_size size =
  let rec go b lo = if size < lo * 2 || b >= 24 then b else go (b + 1) (lo * 2) in
  if size <= 0 then 0 else go 0 1

let bucket_bounds b =
  let lo = 1 lsl b in
  if b >= 24 then (lo, max_int) else (lo, (lo * 2) - 1)

let build records =
  let accesses = (Offsets.resolve records).Offsets.accesses in
  let layer_counts = Hashtbl.create 4 in
  let func_counts = Hashtbl.create 32 in
  List.iter
    (fun r ->
      bump layer_counts (Record.layer_name r.Record.layer) 1;
      if r.Record.layer = Record.L_posix then bump func_counts r.Record.func 1)
    records;
  let size_counts = Hashtbl.create 16 in
  let per_file : (string, file_stats ref) Hashtbl.t = Hashtbl.create 16 in
  let ranks_per_file : (string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let file_entry path =
    match Hashtbl.find_opt per_file path with
    | Some f -> f
    | None ->
      let f =
        ref
          { f_path = path; f_reads = 0; f_writes = 0; f_bytes_read = 0;
            f_bytes_written = 0; f_ranks = 0; f_session_conflicts = 0;
            f_commit_conflicts = 0 }
      in
      Hashtbl.add per_file path f;
      f
  in
  let bytes_read = ref 0 and bytes_written = ref 0 in
  List.iter
    (fun a ->
      let len = Interval.length a.Access.iv in
      bump size_counts (bucket_of_size len) 1;
      Hashtbl.replace ranks_per_file (a.Access.file, a.Access.rank) ();
      let f = file_entry a.Access.file in
      match a.Access.op with
      | Access.Read ->
        bytes_read := !bytes_read + len;
        f := { !f with f_reads = !f.f_reads + 1; f_bytes_read = !f.f_bytes_read + len }
      | Access.Write ->
        bytes_written := !bytes_written + len;
        f :=
          { !f with f_writes = !f.f_writes + 1;
            f_bytes_written = !f.f_bytes_written + len })
    accesses;
  Hashtbl.iter
    (fun (path, _) () ->
      let f = file_entry path in
      f := { !f with f_ranks = !f.f_ranks + 1 })
    ranks_per_file;
  let count_conflicts which conflicts =
    List.iter
      (fun c ->
        let f = file_entry c.Conflict.first.Access.file in
        f :=
          (match which with
          | `Session -> { !f with f_session_conflicts = !f.f_session_conflicts + 1 }
          | `Commit -> { !f with f_commit_conflicts = !f.f_commit_conflicts + 1 }))
      conflicts
  in
  let pairs = Overlap.detect accesses in
  count_conflicts `Session (Conflict.of_pairs Conflict.Session_semantics pairs);
  count_conflicts `Commit (Conflict.of_pairs Conflict.Commit_semantics pairs);
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    total_records = List.length records;
    calls_per_layer =
      sorted layer_counts |> List.sort (fun (a, _) (b, _) -> compare a b);
    calls_per_function = sorted func_counts;
    bytes_read = !bytes_read;
    bytes_written = !bytes_written;
    size_histogram =
      Hashtbl.fold (fun b n acc -> (b, n) :: acc) size_counts []
      |> List.sort compare
      |> List.map (fun (b, n) ->
             let lo, hi = bucket_bounds b in
             (lo, hi, n));
    files =
      Hashtbl.fold (fun _ f acc -> !f :: acc) per_file []
      |> List.sort (fun a b -> compare a.f_path b.f_path);
  }

let pp_size ppf n =
  if n >= 1 lsl 20 then Format.fprintf ppf "%.1f MiB" (float_of_int n /. 1048576.0)
  else if n >= 1 lsl 10 then Format.fprintf ppf "%.1f KiB" (float_of_int n /. 1024.0)
  else Format.fprintf ppf "%d B" n

let pp ppf t =
  Format.fprintf ppf "trace records      : %d@." t.total_records;
  Format.fprintf ppf "records per layer  : %s@."
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) t.calls_per_layer));
  Format.fprintf ppf "bytes read/written : %a / %a@." pp_size t.bytes_read
    pp_size t.bytes_written;
  Format.fprintf ppf "POSIX call counters:@.";
  List.iter
    (fun (f, n) -> Format.fprintf ppf "  %-12s %d@." f n)
    t.calls_per_function;
  Format.fprintf ppf "access-size histogram:@.";
  List.iter
    (fun (lo, hi, n) ->
      if hi = max_int then Format.fprintf ppf "  >= %-10d %d@." lo n
      else Format.fprintf ppf "  %d..%-8d %d@." lo hi n)
    t.size_histogram;
  Format.fprintf ppf "per-file activity:@.";
  List.iter
    (fun f ->
      Format.fprintf ppf
        "  %-44s r:%-4d w:%-4d ranks:%-3d conflicts session:%d commit:%d@."
        f.f_path f.f_reads f.f_writes f.f_ranks f.f_session_conflicts
        f.f_commit_conflicts)
    t.files
