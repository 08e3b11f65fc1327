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

(* Open descriptors, per rank then per fd: two int lookups build no key. *)
module Itbl = Hashtbl.Make (Int)

type stream = {
  events : Eventtab.t;
  fds : fd_state Itbl.t Itbl.t;
  sizes : (string, int) Hashtbl.t;
  mutable skipped : int;
  emit : raw -> unit;
}

let stream ~emit =
  {
    events = Eventtab.create ();
    fds = Itbl.create 64;
    sizes = Hashtbl.create 64;
    skipped = 0;
    emit;
  }

let rank_fds s rank =
  match Itbl.find s.fds rank with
  | fds -> fds
  | exception Not_found ->
    let fds = Itbl.create 8 in
    Itbl.add s.fds rank fds;
    fds

(* Is [tok] one of the '|'-separated names in [s] from [i] on?  Scans
   in place, where splitting would build a list of strings per open. *)
let rec token_end s j =
  if j < String.length s && s.[j] <> '|' then token_end s (j + 1) else j

let rec same_at s i tok c =
  c = String.length tok || (s.[i + c] = tok.[c] && same_at s i tok (c + 1))

let rec has_token s tok i =
  let j = token_end s i in
  (j - i = String.length tok && same_at s i tok 0)
  || (j < String.length s && has_token s tok (j + 1))

let has_flag record flag =
  match Record.arg record "flags" with
  | Some flags -> has_token flags flag 0
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

(* What a POSIX call does to the replay state. *)
type call =
  | Open
  | Close
  | Sync
  | Seek
  | Read
  | Write
  | Pread
  | Pwrite
  | Truncate
  | Ftruncate
  | Other

let call_of = function
  | "open" | "fopen" -> Open
  | "close" | "fclose" -> Close
  | "fsync" | "fdatasync" | "fflush" | "msync" -> Sync
  | "lseek" | "fseek" -> Seek
  | "read" | "fread" -> Read
  | "write" | "fwrite" -> Write
  | "pread" -> Pread
  | "pwrite" -> Pwrite
  | "truncate" -> Truncate
  | "ftruncate" -> Ftruncate
  | _ -> Other

let count r = Option.value ~default:0 r.Record.count

let offset r = Option.value ~default:0 r.Record.offset

(* A call on the open descriptor [fd] of [state]. *)
let on_fd s r call fd state =
  let rank = r.Record.rank and time = r.Record.time in
  match call with
  | Close ->
    Eventtab.add_close s.events ~rank ~file:state.file time;
    Eventtab.add_commit s.events ~rank ~file:state.file time;
    Itbl.remove (rank_fds s rank) fd
  | Sync -> Eventtab.add_commit s.events ~rank ~file:state.file time
  | Seek ->
    let base =
      match Record.arg r "whence" with
      | Some "SEEK_SET" | None -> 0
      | Some "SEEK_CUR" -> state.pos
      | Some "SEEK_END" -> size s state.file
      | Some _ -> 0
    in
    state.pos <- max 0 (base + offset r)
  | Read -> data s r Access.Read state (count r)
  | Write -> data s r Access.Write state (count r)
  | Pread -> explicit s r Access.Read state.file (offset r) (count r)
  | Pwrite -> explicit s r Access.Write state.file (offset r) (count r)
  | Ftruncate -> Hashtbl.replace s.sizes state.file (count r)
  | Open | Truncate | Other -> ()

let handle s r =
  let rank = r.Record.rank in
  match call_of r.Record.func with
  | Other -> ()
  | Open -> (
    match (r.Record.file, r.Record.fd) with
    | Some file, Some fd ->
      let append = has_flag r "O_APPEND" || mode_is r 'a' in
      let trunc = has_flag r "O_TRUNC" || mode_is r 'w' in
      if trunc then Hashtbl.replace s.sizes file 0;
      let pos = if append then size s file else 0 in
      Itbl.replace (rank_fds s rank) fd { file; pos; append };
      Eventtab.add_open s.events ~rank ~file r.Record.time
    | _ -> s.skipped <- s.skipped + 1)
  | Truncate -> (
    match r.Record.file with
    | Some file -> Hashtbl.replace s.sizes file (count r)
    | None -> s.skipped <- s.skipped + 1)
  | call -> (
    match r.Record.fd with
    | None -> s.skipped <- s.skipped + 1
    | Some fd -> (
      match Itbl.find (Itbl.find s.fds rank) fd with
      | state -> on_fd s r call fd state
      | exception Not_found -> s.skipped <- s.skipped + 1))

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
