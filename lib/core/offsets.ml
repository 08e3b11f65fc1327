module Record = Hpcfs_trace.Record
module Interval = Hpcfs_util.Interval

type result = {
  accesses : Access.t list;
  events : Eventtab.t;
  skipped : int;
}

type fd_state = { file : string; mutable pos : int; append : bool }

(* Unannotated access, before the event tables are sealed. *)
type raw = {
  r_time : int;
  r_rank : int;
  r_file : string;
  r_iv : Interval.t;
  r_op : Access.op;
  r_func : string;
}

(* Keyed by (rank, fd). *)
module Fds = Hashtbl.Make (struct
  type t = int * int

  let equal ((r1 : int), (f1 : int)) (r2, f2) = r1 = r2 && f1 = f2
  let hash = Hashtbl.hash
end)

type stream = {
  events : Eventtab.t;
  fds : fd_state Fds.t;
  sizes : (string, int) Hashtbl.t;
  mutable skipped : int;
  emit : raw -> unit;
}

let stream ~emit =
  {
    events = Eventtab.create ();
    fds = Fds.create 64;
    sizes = Hashtbl.create 64;
    skipped = 0;
    emit;
  }

let has_flag record flag =
  match Record.arg record "flags" with
  | Some flags ->
    List.exists (fun f -> f = flag) (String.split_on_char '|' flags)
  | None -> false

let mode_is record prefix =
  match Record.arg record "mode" with
  | Some m -> String.length m > 0 && m.[0] = prefix
  | None -> false

let size s file = Option.value ~default:0 (Hashtbl.find_opt s.sizes file)

let grow s file hi = if hi > size s file then Hashtbl.replace s.sizes file hi

let push s raw = if not (Interval.is_empty raw.r_iv) then s.emit raw

(* An implicit-offset access at the descriptor's position: a position
   seeked so far that the extent would end past [max_int] is unresolvable
   (the record itself passed {!Record.check_extent}), so it is skipped. *)
let data s r op state count =
  let off = if state.append then size s state.file else state.pos in
  if off > max_int - count then s.skipped <- s.skipped + 1
  else begin
    (match op with
    | Access.Write -> grow s state.file (off + count)
    | Access.Read -> ());
    state.pos <- off + count;
    push s
      { r_time = r.Record.time; r_rank = r.Record.rank; r_file = state.file;
        r_iv = Interval.of_len off count; r_op = op; r_func = r.Record.func }
  end

let explicit s r op file off count =
  (match op with
  | Access.Write -> grow s file (off + count)
  | Access.Read -> ());
  push s
    { r_time = r.Record.time; r_rank = r.Record.rank; r_file = file;
      r_iv = Interval.of_len off count; r_op = op; r_func = r.Record.func }

let handle s r =
  let rank = r.Record.rank in
  let with_fd k =
    match r.Record.fd with
    | Some fd -> (
      match Fds.find s.fds (rank, fd) with
      | state -> k state
      | exception Not_found -> s.skipped <- s.skipped + 1)
    | None -> s.skipped <- s.skipped + 1
  in
  match r.Record.func with
  | "open" | "fopen" -> (
    match (r.Record.file, r.Record.fd) with
    | Some file, Some fd ->
      let append = has_flag r "O_APPEND" || mode_is r 'a' in
      let trunc = has_flag r "O_TRUNC" || mode_is r 'w' in
      if trunc then Hashtbl.replace s.sizes file 0;
      let pos = if append then size s file else 0 in
      Fds.replace s.fds (rank, fd) { file; pos; append };
      Eventtab.add_open s.events ~rank ~file r.Record.time
    | _ -> s.skipped <- s.skipped + 1)
  | "close" | "fclose" ->
    with_fd (fun state ->
        Eventtab.add_close s.events ~rank ~file:state.file r.Record.time;
        Eventtab.add_commit s.events ~rank ~file:state.file r.Record.time;
        match r.Record.fd with
        | Some fd -> Fds.remove s.fds (rank, fd)
        | None -> ())
  | "fsync" | "fdatasync" | "fflush" | "msync" ->
    with_fd (fun state ->
        Eventtab.add_commit s.events ~rank ~file:state.file r.Record.time)
  | "lseek" | "fseek" ->
    with_fd (fun state ->
        let off = Option.value ~default:0 r.Record.offset in
        let base =
          match Record.arg r "whence" with
          | Some "SEEK_SET" | None -> 0
          | Some "SEEK_CUR" -> state.pos
          | Some "SEEK_END" -> size s state.file
          | Some _ -> 0
        in
        state.pos <- max 0 (base + off))
  | "read" | "fread" ->
    with_fd (fun state ->
        data s r Access.Read state (Option.value ~default:0 r.Record.count))
  | "write" | "fwrite" ->
    with_fd (fun state ->
        data s r Access.Write state (Option.value ~default:0 r.Record.count))
  | "pread" ->
    with_fd (fun state ->
        explicit s r Access.Read state.file
          (Option.value ~default:0 r.Record.offset)
          (Option.value ~default:0 r.Record.count))
  | "pwrite" ->
    with_fd (fun state ->
        explicit s r Access.Write state.file
          (Option.value ~default:0 r.Record.offset)
          (Option.value ~default:0 r.Record.count))
  | "truncate" -> (
    match r.Record.file with
    | Some file ->
      Hashtbl.replace s.sizes file (Option.value ~default:0 r.Record.count)
    | None -> s.skipped <- s.skipped + 1)
  | "ftruncate" ->
    with_fd (fun state ->
        Hashtbl.replace s.sizes state.file
          (Option.value ~default:0 r.Record.count))
  | _ -> ()

let feed s r = if r.Record.layer = Record.L_posix then handle s r

let skipped s = s.skipped

let seal s =
  Eventtab.seal s.events;
  s.events

let annotate events raw =
  {
    Access.time = raw.r_time;
    rank = raw.r_rank;
    file = raw.r_file;
    iv = raw.r_iv;
    op = raw.r_op;
    func = raw.r_func;
    t_open =
      Eventtab.last_open_before events ~rank:raw.r_rank ~file:raw.r_file
        raw.r_time;
    t_commit =
      Eventtab.first_commit_after events ~rank:raw.r_rank ~file:raw.r_file
        raw.r_time;
    t_close =
      Eventtab.first_close_after events ~rank:raw.r_rank ~file:raw.r_file
        raw.r_time;
  }

let resolve records =
  let out = ref [] in
  let s = stream ~emit:(fun raw -> out := raw :: !out) in
  List.iter (feed s) records;
  let events = seal s in
  let accesses = List.rev_map (annotate events) !out in
  { accesses; events; skipped = skipped s }
