module Posix = Hpcfs_posix.Posix
module Mpi = Hpcfs_mpi.Mpi
module Record = Hpcfs_trace.Record

type t = {
  posix : Posix.ctx;
  comm : Mpi.comm;
  nfiles : int;
  basename : string;
}

let origin = Record.O_silo
let baton_tag = 3_000_001
let toc_bytes = 256

let create posix comm ~nfiles ~basename =
  if nfiles <= 0 then invalid_arg "Silo.create: nfiles";
  if Mpi.rank comm = 0 then begin
    (* Silo reuses the directory a restarted run already created. *)
    (try Posix.mkdir posix ~origin basename
     with Posix.Posix_error { msg = "file exists"; _ } -> ());
    ignore (Posix.opendir posix ~origin basename)
  end;
  Mpi.barrier comm;
  { posix; comm; nfiles = min nfiles (Mpi.size comm); basename }

let group_of_rank t rank = rank * t.nfiles / Mpi.size t.comm

let group_members t g =
  List.init (Mpi.size t.comm) Fun.id
  |> List.filter (fun r -> group_of_rank t r = g)

let file_of_group t g = Printf.sprintf "%s/part.%d.silo" t.basename g

(* One rank's turn with the baton: open the group file, append the block,
   rewrite the table of contents twice (entry, then count) and close.  The
   double TOC rewrite is MACSio's same-process WAW; the close before the
   baton handoff is why no cross-process conflict survives session
   semantics. *)
let my_turn t ~first ~block =
  let path = file_of_group t (group_of_rank t (Mpi.rank t.comm)) in
  let flags =
    if first then [ Posix.O_RDWR; Posix.O_CREAT; Posix.O_TRUNC ]
    else [ Posix.O_RDWR ]
  in
  let fd = Posix.openf t.posix ~origin path flags in
  ignore (Posix.fstat t.posix ~origin fd);
  let pos = Posix.lseek t.posix ~origin fd 0 Posix.SEEK_END in
  let pos = if first then toc_bytes else pos in
  ignore (Posix.pwrite t.posix ~origin fd ~off:pos block);
  ignore (Posix.pwrite t.posix ~origin fd ~off:0 (Bytes.make toc_bytes 't'));
  ignore (Posix.pwrite t.posix ~origin fd ~off:0 (Bytes.make 8 'c'));
  Posix.close t.posix ~origin fd

let write_blocks t ~block =
  let me = Mpi.rank t.comm in
  let g = group_of_rank t me in
  let members = group_members t g in
  let rec position = function
    | [] -> invalid_arg "Silo: rank not in its own group"
    | r :: rest -> if r = me then 0 else 1 + position rest
  in
  let idx = position members in
  if idx > 0 then
    ignore (Mpi.recv t.comm ~src:(List.nth members (idx - 1)) ~tag:baton_tag);
  my_turn t ~first:(idx = 0) ~block;
  (match List.nth_opt members (idx + 1) with
  | Some next -> Mpi.send t.comm ~dst:next ~tag:baton_tag (Mpi.P_int idx)
  | None -> ());
  Mpi.barrier t.comm
