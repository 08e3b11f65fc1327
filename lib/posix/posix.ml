module Sched = Hpcfs_sim.Sched
module Pfs = Hpcfs_fs.Pfs
module Backend = Hpcfs_fs.Backend
module Namespace = Hpcfs_fs.Namespace
module Md = Hpcfs_md.Service
module Record = Hpcfs_trace.Record
module Collector = Hpcfs_trace.Collector

exception Posix_error of { func : string; path : string; msg : string }

type flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND

type whence = SEEK_SET | SEEK_CUR | SEEK_END

type origin = Record.origin

type open_file = {
  path : string;
  mutable pos : int;
  append : bool;
  writable : bool;
  readable : bool;
}

type rank_state = {
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  mutable cwd : string;
  mutable umask : int;
}

type ctx = {
  backend : Backend.t;
  collector : Collector.t;
  mds : Md.t;
  ranks : (int, rank_state) Hashtbl.t;
}

let make_ctx_backend ?mds backend collector =
  let mds =
    match mds with Some m -> m | None -> Md.create backend.Backend.pfs
  in
  { backend; collector; mds; ranks = Hashtbl.create 16 }

let make_ctx ?mds pfs collector =
  make_ctx_backend ?mds (Backend.of_pfs pfs) collector

let pfs ctx = ctx.backend.Backend.pfs
let backend ctx = ctx.backend
let collector ctx = ctx.collector
let mds ctx = ctx.mds

let rank_state ctx =
  let r = Sched.self () in
  match Hashtbl.find_opt ctx.ranks r with
  | Some s -> s
  | None ->
    let s = { fds = Hashtbl.create 16; next_fd = 3; cwd = "/"; umask = 0o022 } in
    Hashtbl.add ctx.ranks r s;
    s

let err func path msg = raise (Posix_error { func; path; msg })

(* Descriptor operations resolve their path against the namespace on every
   call, so a descriptor whose file another process unlinked behaves like
   an NFS stale file handle ([ESTALE]) rather than the Unix
   keep-until-last-close rule — the documented deviation of this
   simulator (see DESIGN.md, "Metadata path").  [with_handle] turns the
   raw namespace miss into that typed error. *)
let with_handle func path f =
  try f () with Namespace.Not_found_path _ -> err func path "stale file handle"

let lookup_fd ctx func fd =
  let s = rank_state ctx in
  match Hashtbl.find_opt s.fds fd with
  | Some f -> f
  | None -> err func (string_of_int fd) "bad file descriptor"

let emit ctx ~origin ~func ?file ?fd ?offset ?count ?args () =
  let time = Sched.tick () in
  Collector.emit ctx.collector
    (Record.make ~time ~rank:(Sched.self ()) ~layer:Record.L_posix ~origin
       ~func ?file ?fd ?offset ?count ?args ());
  time

let flag_name = function
  | O_RDONLY -> "O_RDONLY"
  | O_WRONLY -> "O_WRONLY"
  | O_RDWR -> "O_RDWR"
  | O_CREAT -> "O_CREAT"
  | O_TRUNC -> "O_TRUNC"
  | O_APPEND -> "O_APPEND"

let flags_arg flags = String.concat "|" (List.map flag_name flags)

let resolve ctx path =
  if String.length path > 0 && path.[0] = '/' then path
  else begin
    let s = rank_state ctx in
    if s.cwd = "/" then "/" ^ path else s.cwd ^ "/" ^ path
  end

(* Data operations ------------------------------------------------------- *)

let openf ctx ?(origin = Record.O_app) path flags =
  let abs = resolve ctx path in
  let s = rank_state ctx in
  let fd = s.next_fd in
  s.next_fd <- s.next_fd + 1;
  let time =
    emit ctx ~origin ~func:"open" ~file:abs ~fd
      ~args:[ ("flags", flags_arg flags) ] ()
  in
  let create = List.mem O_CREAT flags in
  let trunc = List.mem O_TRUNC flags in
  let append = List.mem O_APPEND flags in
  Md.note_open ctx.mds ~time ~client:(Sched.self ()) ~create abs;
  let size =
    try
      ctx.backend.Backend.open_file ~time ~rank:(Sched.self ()) ~create
        ~trunc abs
    with Namespace.Not_found_path _ ->
      err "open" abs "no such file or directory"
  in
  if trunc then Md.note_local_write ctx.mds ~client:(Sched.self ()) abs;
  let writable = List.mem O_WRONLY flags || List.mem O_RDWR flags in
  let readable = not (List.mem O_WRONLY flags) in
  let pos = if append then size else 0 in
  Hashtbl.replace s.fds fd { path = abs; pos; append; writable; readable };
  fd

let close_named ctx ~origin ~func fd =
  let f = lookup_fd ctx func fd in
  let time = emit ctx ~origin ~func ~file:f.path ~fd () in
  with_handle func f.path (fun () ->
      ctx.backend.Backend.close_file ~time ~rank:(Sched.self ()) f.path);
  Hashtbl.remove (rank_state ctx).fds fd

let close ctx ?(origin = Record.O_app) fd = close_named ctx ~origin ~func:"close" fd

(* The emitted count is the number of bytes actually transferred (Recorder
   records return values), so short reads at end-of-file reconstruct to the
   true extent. *)
let read_named ctx ~origin ~func fd len =
  let f = lookup_fd ctx func fd in
  if not f.readable then err func f.path "not open for reading";
  let time = Sched.tick () in
  let result =
    with_handle func f.path (fun () ->
        ctx.backend.Backend.read ~time ~rank:(Sched.self ()) f.path ~off:f.pos
          ~len)
  in
  let transferred = Bytes.length result.Hpcfs_fs.Fdata.data in
  Collector.emit ctx.collector
    (Record.make ~time ~rank:(Sched.self ()) ~layer:Record.L_posix ~origin
       ~func ~file:f.path ~fd ~count:transferred ());
  f.pos <- f.pos + transferred;
  result.Hpcfs_fs.Fdata.data

let read ctx ?(origin = Record.O_app) fd len =
  read_named ctx ~origin ~func:"read" fd len

let write_named ctx ~origin ~func fd data =
  let f = lookup_fd ctx func fd in
  if not f.writable then err func f.path "not open for writing";
  if f.append then
    f.pos <-
      with_handle func f.path (fun () ->
          ctx.backend.Backend.file_size f.path);
  let len = Bytes.length data in
  let time = emit ctx ~origin ~func ~file:f.path ~fd ~count:len () in
  with_handle func f.path (fun () ->
      ctx.backend.Backend.write ~time ~rank:(Sched.self ()) f.path ~off:f.pos
        data);
  Md.note_local_write ctx.mds ~client:(Sched.self ()) f.path;
  f.pos <- f.pos + len;
  len

let write ctx ?(origin = Record.O_app) fd data =
  write_named ctx ~origin ~func:"write" fd data

let pread ctx ?(origin = Record.O_app) fd ~off len =
  let f = lookup_fd ctx "pread" fd in
  if not f.readable then err "pread" f.path "not open for reading";
  let time = Sched.tick () in
  let result =
    with_handle "pread" f.path (fun () ->
        ctx.backend.Backend.read ~time ~rank:(Sched.self ()) f.path ~off ~len)
  in
  let transferred = Bytes.length result.Hpcfs_fs.Fdata.data in
  Collector.emit ctx.collector
    (Record.make ~time ~rank:(Sched.self ()) ~layer:Record.L_posix ~origin
       ~func:"pread" ~file:f.path ~fd ~offset:off ~count:transferred ());
  result.Hpcfs_fs.Fdata.data

let pwrite ctx ?(origin = Record.O_app) fd ~off data =
  let f = lookup_fd ctx "pwrite" fd in
  if not f.writable then err "pwrite" f.path "not open for writing";
  let len = Bytes.length data in
  let time =
    emit ctx ~origin ~func:"pwrite" ~file:f.path ~fd ~offset:off ~count:len ()
  in
  with_handle "pwrite" f.path (fun () ->
      ctx.backend.Backend.write ~time ~rank:(Sched.self ()) f.path ~off data);
  Md.note_local_write ctx.mds ~client:(Sched.self ()) f.path;
  len

let whence_name = function
  | SEEK_SET -> "SEEK_SET"
  | SEEK_CUR -> "SEEK_CUR"
  | SEEK_END -> "SEEK_END"

let seek_named ctx ~origin ~func fd offset whence =
  let f = lookup_fd ctx func fd in
  ignore
    (emit ctx ~origin ~func ~file:f.path ~fd ~offset
       ~args:[ ("whence", whence_name whence) ] ());
  let base =
    match whence with
    | SEEK_SET -> 0
    | SEEK_CUR -> f.pos
    | SEEK_END ->
      with_handle func f.path (fun () -> ctx.backend.Backend.file_size f.path)
  in
  let target = base + offset in
  if target < 0 then err func f.path "negative seek";
  f.pos <- target;
  target

let lseek ctx ?(origin = Record.O_app) fd offset whence =
  seek_named ctx ~origin ~func:"lseek" fd offset whence

let sync_named ctx ~origin ~func fd =
  let f = lookup_fd ctx func fd in
  let time = emit ctx ~origin ~func ~file:f.path ~fd () in
  with_handle func f.path (fun () ->
      ctx.backend.Backend.fsync ~time ~rank:(Sched.self ()) f.path);
  Md.note_commit ctx.mds ~time ~client:(Sched.self ())

let fsync ctx ?(origin = Record.O_app) fd = sync_named ctx ~origin ~func:"fsync" fd

(* stdio variants --------------------------------------------------------- *)

let fopen ctx ?(origin = Record.O_app) path mode =
  let abs = resolve ctx path in
  let s = rank_state ctx in
  let fd = s.next_fd in
  s.next_fd <- s.next_fd + 1;
  let time =
    emit ctx ~origin ~func:"fopen" ~file:abs ~fd ~args:[ ("mode", mode) ] ()
  in
  let create, trunc, append, readable, writable =
    match mode with
    | "r" -> (false, false, false, true, false)
    | "r+" -> (false, false, false, true, true)
    | "w" -> (true, true, false, false, true)
    | "w+" -> (true, true, false, true, true)
    | "a" -> (true, false, true, false, true)
    | "a+" -> (true, false, true, true, true)
    | m -> err "fopen" abs ("bad mode " ^ m)
  in
  Md.note_open ctx.mds ~time ~client:(Sched.self ()) ~create abs;
  let size =
    try
      ctx.backend.Backend.open_file ~time ~rank:(Sched.self ()) ~create
        ~trunc abs
    with Namespace.Not_found_path _ ->
      err "fopen" abs "no such file or directory"
  in
  if trunc then Md.note_local_write ctx.mds ~client:(Sched.self ()) abs;
  let pos = if append then size else 0 in
  Hashtbl.replace s.fds fd { path = abs; pos; append; writable; readable };
  fd

let fclose ctx ?(origin = Record.O_app) fd =
  close_named ctx ~origin ~func:"fclose" fd

let fread ctx ?(origin = Record.O_app) fd len =
  read_named ctx ~origin ~func:"fread" fd len

let fwrite ctx ?(origin = Record.O_app) fd data =
  write_named ctx ~origin ~func:"fwrite" fd data

let fseek ctx ?(origin = Record.O_app) fd offset whence =
  ignore (seek_named ctx ~origin ~func:"fseek" fd offset whence)

let fflush ctx ?(origin = Record.O_app) fd =
  sync_named ctx ~origin ~func:"fflush" fd

(* Metadata and utility operations ---------------------------------------- *)

let stat_named ctx ~origin ~func path =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func ~file:abs () in
  try Md.stat ctx.mds ~time ~client:(Sched.self ()) abs
  with Namespace.Not_found_path _ -> err func abs "no such file or directory"

let stat ctx ?(origin = Record.O_app) path = stat_named ctx ~origin ~func:"stat" path

let lstat ctx ?(origin = Record.O_app) path =
  stat_named ctx ~origin ~func:"lstat" path

let fstat ctx ?(origin = Record.O_app) fd =
  let f = lookup_fd ctx "fstat" fd in
  let time = emit ctx ~origin ~func:"fstat" ~file:f.path ~fd () in
  with_handle "fstat" f.path (fun () ->
      Md.stat ctx.mds ~time ~client:(Sched.self ()) f.path)

let access ctx ?(origin = Record.O_app) path =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func:"access" ~file:abs () in
  Md.exists ctx.mds ~time ~client:(Sched.self ()) abs

let mkdir ctx ?(origin = Record.O_app) path =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func:"mkdir" ~file:abs () in
  try Md.mkdir ctx.mds ~time ~client:(Sched.self ()) abs
  with Namespace.Exists _ -> err "mkdir" abs "file exists"

let rmdir ctx ?(origin = Record.O_app) path =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func:"rmdir" ~file:abs () in
  try Md.rmdir ctx.mds ~time ~client:(Sched.self ()) abs with
  | Namespace.Not_found_path _ -> err "rmdir" abs "no such file or directory"
  | Namespace.Not_empty _ -> err "rmdir" abs "directory not empty"

let unlink ctx ?(origin = Record.O_app) path =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func:"unlink" ~file:abs () in
  try Md.unlink ctx.mds ~time ~client:(Sched.self ()) abs
  with Namespace.Not_found_path _ ->
    err "unlink" abs "no such file or directory"

let rename ctx ?(origin = Record.O_app) src dst =
  let src = resolve ctx src and dst = resolve ctx dst in
  let time =
    emit ctx ~origin ~func:"rename" ~file:src ~args:[ ("dst", dst) ] ()
  in
  try Md.rename ctx.mds ~time ~client:(Sched.self ()) src dst with
  | Namespace.Not_found_path _ -> err "rename" src "no such file or directory"
  | Namespace.Is_a_directory _ -> err "rename" dst "is a directory"
  | Namespace.Not_a_directory _ -> err "rename" dst "not a directory"
  | Namespace.Not_empty _ -> err "rename" dst "directory not empty"
  | Namespace.Invalid_rename _ -> err "rename" dst "invalid argument"

let getcwd ctx ?(origin = Record.O_app) () =
  let s = rank_state ctx in
  ignore (emit ctx ~origin ~func:"getcwd" ());
  s.cwd

let chdir ctx ?(origin = Record.O_app) path =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func:"chdir" ~file:abs () in
  if not (Md.is_dir ctx.mds ~time ~client:(Sched.self ()) abs) then
    err "chdir" abs "not a directory";
  (rank_state ctx).cwd <- abs

let truncate ctx ?(origin = Record.O_app) path len =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func:"truncate" ~file:abs ~count:len () in
  (try ctx.backend.Backend.truncate ~time abs len
   with Namespace.Not_found_path _ ->
     err "truncate" abs "no such file or directory");
  Md.note_local_write ctx.mds ~client:(Sched.self ()) abs

let ftruncate ctx ?(origin = Record.O_app) fd len =
  let f = lookup_fd ctx "ftruncate" fd in
  let time = emit ctx ~origin ~func:"ftruncate" ~file:f.path ~fd ~count:len () in
  with_handle "ftruncate" f.path (fun () ->
      ctx.backend.Backend.truncate ~time f.path len);
  Md.note_local_write ctx.mds ~client:(Sched.self ()) f.path

let dup ctx ?(origin = Record.O_app) fd =
  let f = lookup_fd ctx "dup" fd in
  let s = rank_state ctx in
  ignore (emit ctx ~origin ~func:"dup" ~file:f.path ~fd ());
  let nfd = s.next_fd in
  s.next_fd <- s.next_fd + 1;
  Hashtbl.replace s.fds nfd { f with path = f.path };
  nfd

let fcntl ctx ?(origin = Record.O_app) fd cmd =
  let f = lookup_fd ctx "fcntl" fd in
  ignore (emit ctx ~origin ~func:"fcntl" ~file:f.path ~fd ~args:[ ("cmd", cmd) ] ());
  0

let umask ctx ?(origin = Record.O_app) mask =
  let s = rank_state ctx in
  ignore (emit ctx ~origin ~func:"umask" ~args:[ ("mask", string_of_int mask) ] ());
  let old = s.umask in
  s.umask <- mask;
  old

let fileno ctx ?(origin = Record.O_app) fd =
  let f = lookup_fd ctx "fileno" fd in
  ignore (emit ctx ~origin ~func:"fileno" ~file:f.path ~fd ());
  fd

let opendir ctx ?(origin = Record.O_app) path =
  let abs = resolve ctx path in
  let time = emit ctx ~origin ~func:"opendir" ~file:abs () in
  let entries =
    try Md.readdir ctx.mds ~time ~client:(Sched.self ()) abs
    with Namespace.Not_found_path _ ->
      err "opendir" abs "no such file or directory"
  in
  List.iter
    (fun entry ->
      ignore (emit ctx ~origin ~func:"readdir" ~file:abs ~args:[ ("entry", entry) ] ()))
    entries;
  ignore (emit ctx ~origin ~func:"closedir" ~file:abs ());
  entries

let mmap ctx ?(origin = Record.O_app) fd ~len =
  let f = lookup_fd ctx "mmap" fd in
  ignore (emit ctx ~origin ~func:"mmap" ~file:f.path ~fd ~count:len ())

let msync ctx ?(origin = Record.O_app) fd =
  let f = lookup_fd ctx "msync" fd in
  let time = emit ctx ~origin ~func:"msync" ~file:f.path ~fd () in
  with_handle "msync" f.path (fun () ->
      ctx.backend.Backend.fsync ~time ~rank:(Sched.self ()) f.path);
  Md.note_commit ctx.mds ~time ~client:(Sched.self ())

(* Introspection ----------------------------------------------------------- *)

let fd_path ctx fd = (lookup_fd ctx "fd_path" fd).path
let fd_pos ctx fd = (lookup_fd ctx "fd_pos" fd).pos
