module Sched = Hpcfs_sim.Sched
module Mpi = Hpcfs_mpi.Mpi
module Posix = Hpcfs_posix.Posix
module Mpiio = Hpcfs_mpiio.Mpiio
module Record = Hpcfs_trace.Record
module Collector = Hpcfs_trace.Collector

type backend = B_posix of Posix.ctx | B_mpiio of Mpiio.ctx

type handle = H_posix of int | H_mpiio of Mpiio.fh

(* File layout: a reserved metadata region at the start of the file, raw
   dataset data above it.  Offsets chosen to mimic the paper's Figure 2
   ("small I/O accesses at the beginning of the file are HDF5 metadata"). *)
let superblock_off = 0
let superblock_len = 96
let heap_off = 96
let heap_len = 512
let attr_base = heap_off + heap_len
let attr_slot = 64
let header_base = 2048
let header_len = 256
let metadata_region_size = 65536
let data_align = 512

type entry = { e_off : int; e_len : int; e_owner : int }

type dataset_info = { data_off : int; nbytes : int; index : int }

(* Dataset layouts and attribute slots survive the writer's file instance so
   a later reader (possibly another rank or run phase) can locate them. *)
let dataset_registry : (string * string, dataset_info) Hashtbl.t =
  Hashtbl.create 64

let attr_registry : (string * string, int) Hashtbl.t = Hashtbl.create 64

type file = {
  backend : backend;
  name : string;
  handle : handle;
  collective_metadata : bool;
  mutable eoa : int;
  mutable next_header : int;
  mutable next_attr : int;
  mutable dataset_count : int;
  mutable dirty : (string * entry) list; (* newest first; flushed in order *)
  mutable flush_count : int;
}

type dataset = { file : file; ds_name : string; info : dataset_info }

let posix_of file =
  match file.backend with
  | B_posix p -> p
  | B_mpiio m -> Mpiio.posix_ctx m

let comm_opt file =
  match file.backend with B_posix _ -> None | B_mpiio m -> Some (Mpiio.comm m)

let my_rank file =
  match comm_opt file with Some c -> Mpi.rank c | None -> Sched.self ()

let emit file ~func ?offset ?count () =
  let time = Sched.tick () in
  Collector.emit
    (Posix.collector (posix_of file))
    (Record.make ~time ~rank:(Sched.self ()) ~layer:Record.L_hdf5
       ~origin:Record.O_app ~func ~file:file.name ?offset ?count ())

(* Ranks that participate in independent metadata writes: HDF5's distributed
   metadata cache spreads dirty entries over roughly half the ranks in the
   paper's runs (~30 of 64). *)
let meta_participants file =
  if file.collective_metadata then [| 0 |]
  else
    match comm_opt file with
    | None -> [| Sched.self () |]
    | Some c ->
      let n = Mpi.size c in
      Array.init ((n + 1) / 2) (fun i -> 2 * i)

let filler name len =
  Bytes.init len (fun i -> Char.chr ((Hashtbl.hash (name, i) land 0x3f) + 32))

let meta_pwrite file ~off data =
  match file.handle with
  | H_posix fd ->
    ignore (Posix.pwrite (posix_of file) ~origin:Record.O_hdf5 fd ~off data)
  | H_mpiio fh -> (
    match file.backend with
    | B_mpiio m -> Mpiio.write_at m ~origin:Record.O_hdf5 fh ~off data
    | B_posix _ -> assert false)

let meta_pread file ~off len =
  match file.handle with
  | H_posix fd -> Posix.pread (posix_of file) ~origin:Record.O_hdf5 fd ~off len
  | H_mpiio fh -> (
    match file.backend with
    | B_mpiio m -> Mpiio.read_at m ~origin:Record.O_hdf5 fh ~off len
    | B_posix _ -> assert false)

let dirty_entry file key entry =
  (* Re-dirtying replaces the stale record so each entry is flushed once. *)
  file.dirty <- (key, entry) :: List.remove_assoc key file.dirty

(* The superblock is owned by rank 0 (its repeated flushes are FLASH's WAW-S
   conflicts); the heap entry's owner rotates per flush across the metadata
   participants (its repeated flushes are the WAW-D conflicts). *)
let dirty_superblock file =
  let owner = (meta_participants file).(0) in
  dirty_entry file "superblock"
    { e_off = superblock_off; e_len = superblock_len; e_owner = owner }

let dirty_heap file =
  let participants = meta_participants file in
  (* Non-monotone rotation: successive flushes are owned by ranks that do
     not close in the same order they wrote, so the write-after-write
     overlap is observable as reordering under close-to-open semantics. *)
  let k = Array.length participants in
  let owner = participants.(((file.flush_count * 7) + 3) mod k) in
  dirty_entry file "heap" { e_off = heap_off; e_len = heap_len; e_owner = owner }

let dirty_header file name info =
  let participants = meta_participants file in
  let owner = participants.(info.index mod Array.length participants) in
  dirty_entry file ("header:" ^ name)
    { e_off = header_base + (info.index * header_len); e_len = header_len;
      e_owner = owner }

(* POSIX metadata probes HDF5 issues around open/create (Figure 3: HDF5
   introduces getcwd, lstat, fstat, ...). *)
let probe_on_open file ~existing =
  let p = posix_of file in
  ignore (Posix.getcwd p ~origin:Record.O_hdf5 ());
  (* The VFD stats the path on both create and open. *)
  ignore (Posix.lstat p ~origin:Record.O_hdf5 file.name);
  if not existing then ignore (Posix.access p ~origin:Record.O_hdf5 file.name)

let open_backend backend name ~create =
  match backend with
  | B_posix p ->
    let flags =
      if create then [ Posix.O_RDWR; Posix.O_CREAT; Posix.O_TRUNC ]
      else [ Posix.O_RDWR ]
    in
    H_posix (Posix.openf p ~origin:Record.O_hdf5 name flags)
  | B_mpiio m ->
    let mode = if create then Mpiio.mode_rdwr_create else Mpiio.mode_rdonly in
    H_mpiio (Mpiio.file_open m ~origin:Record.O_hdf5 name mode)

let make_file ?(collective_metadata = false) backend name handle =
  {
    backend;
    name;
    handle;
    collective_metadata;
    eoa = metadata_region_size;
    next_header = 0;
    next_attr = 0;
    dataset_count = 0;
    dirty = [];
    flush_count = 0;
  }

let create ?(collective_metadata = false) backend name =
  let handle = open_backend backend name ~create:true in
  let file = make_file ~collective_metadata backend name handle in
  emit file ~func:"H5Fcreate" ();
  probe_on_open file ~existing:false;
  dirty_superblock file;
  file

let open_ ?(collective_metadata = false) backend name =
  let handle = open_backend backend name ~create:false in
  let file = make_file ~collective_metadata backend name handle in
  emit file ~func:"H5Fopen" ();
  probe_on_open file ~existing:true;
  (* Reading the superblock is the first access of every HDF5 open. *)
  ignore (meta_pread file ~off:superblock_off superblock_len);
  file

(* Flush dirty metadata: each entry is written by its owner rank only (never
   through the aggregators), after which every writer fsyncs — the fsync is
   the commit that makes FLASH correct under commit semantics. *)
let flush_metadata file =
  let me = my_rank file in
  let serial = comm_opt file = None in
  let wrote = ref false in
  List.iter
    (fun (key, e) ->
      if serial || e.e_owner = me then begin
        (* Contents carry the flush generation so that out-of-order
           application of overlapping metadata writes is detectable. *)
        let versioned = Printf.sprintf "%s#%d" key file.flush_count in
        meta_pwrite file ~off:e.e_off (filler versioned e.e_len);
        wrote := true
      end)
    (List.rev file.dirty);
  file.dirty <- [];
  file.flush_count <- file.flush_count + 1;
  !wrote

let do_fsync file =
  match file.handle with
  | H_posix fd -> Posix.fsync (posix_of file) ~origin:Record.O_hdf5 fd
  | H_mpiio fh -> (
    match file.backend with
    | B_mpiio m -> Mpiio.file_sync m ~origin:Record.O_hdf5 fh
    | B_posix _ -> assert false)

let flush file =
  emit file ~func:"H5Fflush" ();
  ignore (flush_metadata file);
  do_fsync file

let close file =
  emit file ~func:"H5Fclose" ();
  ignore (flush_metadata file);
  let p = posix_of file in
  (match file.handle with
  | H_posix fd ->
    ignore (Posix.fstat p ~origin:Record.O_hdf5 fd);
    if file.dataset_count > 0 then
      Posix.ftruncate p ~origin:Record.O_hdf5 fd (max file.eoa (Posix.fd_pos p fd));
    Posix.close p ~origin:Record.O_hdf5 fd
  | H_mpiio fh ->
    (match file.backend with
    | B_mpiio m ->
      let fd = Mpiio.posix_fd m fh in
      ignore (Posix.fstat p ~origin:Record.O_hdf5 fd);
      if file.dataset_count > 0 && Mpi.rank (Mpiio.comm m) = 0 then
        Posix.ftruncate p ~origin:Record.O_hdf5 fd file.eoa;
      Mpiio.file_close m ~origin:Record.O_hdf5 fh
    | B_posix _ -> assert false))

let create_dataset file name ~nbytes =
  if nbytes < 0 then invalid_arg "Hdf5.create_dataset: negative size";
  emit file ~func:"H5Dcreate" ~count:nbytes ();
  let index = file.dataset_count in
  file.dataset_count <- index + 1;
  let aligned = (nbytes + data_align - 1) / data_align * data_align in
  let info = { data_off = file.eoa; nbytes; index } in
  file.eoa <- file.eoa + aligned;
  Hashtbl.replace dataset_registry (file.name, name) info;
  dirty_header file name info;
  dirty_heap file;
  dirty_superblock file;
  { file; ds_name = name; info }

let open_dataset file name =
  emit file ~func:"H5Dopen" ();
  match Hashtbl.find_opt dataset_registry (file.name, name) with
  | None -> invalid_arg ("Hdf5.open_dataset: unknown dataset " ^ name)
  | Some info ->
    (* Opening a dataset reads its object header — one of the small
       low-offset reads of Figure 2. *)
    ignore
      (meta_pread file ~off:(header_base + (info.index * header_len))
         header_len);
    { file; ds_name = name; info }

let check_bounds ds ~off len =
  if off < 0 || off + len > ds.info.nbytes then
    invalid_arg
      (Printf.sprintf "Hdf5: access [%d,%d) outside dataset %s of %d bytes"
         off (off + len) ds.ds_name ds.info.nbytes)

let write_independent ds ~off data =
  check_bounds ds ~off (Bytes.length data);
  emit ds.file ~func:"H5Dwrite" ~offset:off ~count:(Bytes.length data) ();
  (match ds.file.handle with
  | H_posix fd ->
    ignore
      (Posix.pwrite (posix_of ds.file) ~origin:Record.O_hdf5 fd
         ~off:(ds.info.data_off + off) data)
  | H_mpiio fh -> (
    match ds.file.backend with
    | B_mpiio m ->
      Mpiio.write_at m ~origin:Record.O_hdf5 fh ~off:(ds.info.data_off + off)
        data
    | B_posix _ -> assert false));
  dirty_header ds.file ds.ds_name ds.info

let write_collective ds ~off data =
  check_bounds ds ~off (Bytes.length data);
  emit ds.file ~func:"H5Dwrite" ~offset:off ~count:(Bytes.length data) ();
  (match (ds.file.handle, ds.file.backend) with
  | H_mpiio fh, B_mpiio m ->
    Mpiio.write_at_all m ~origin:Record.O_hdf5 fh ~off:(ds.info.data_off + off)
      data
  | _ -> invalid_arg "Hdf5.write_collective: requires the MPI-IO backend");
  dirty_header ds.file ds.ds_name ds.info

let read ds ~off len =
  check_bounds ds ~off len;
  emit ds.file ~func:"H5Dread" ~offset:off ~count:len ();
  match ds.file.handle with
  | H_posix fd ->
    Posix.pread (posix_of ds.file) ~origin:Record.O_hdf5 fd
      ~off:(ds.info.data_off + off) len
  | H_mpiio fh -> (
    match ds.file.backend with
    | B_mpiio m ->
      Mpiio.read_at m ~origin:Record.O_hdf5 fh ~off:(ds.info.data_off + off) len
    | B_posix _ -> assert false)

let attr_off file name =
  match Hashtbl.find_opt attr_registry (file.name, name) with
  | Some off -> off
  | None ->
    let off = attr_base + (file.next_attr * attr_slot) in
    if off + attr_slot > header_base then
      invalid_arg "Hdf5.write_attribute: attribute region full";
    file.next_attr <- file.next_attr + 1;
    Hashtbl.replace attr_registry (file.name, name) off;
    off

let write_attribute file name data =
  if Bytes.length data > attr_slot then
    invalid_arg "Hdf5.write_attribute: attribute too large";
  emit file ~func:"H5Awrite" ~count:(Bytes.length data) ();
  let off = attr_off file name in
  meta_pwrite file ~off data;
  dirty_heap file

let read_attribute file name len =
  emit file ~func:"H5Aread" ~count:len ();
  let off = attr_off file name in
  meta_pread file ~off len

let dataset_offset ds = ds.info.data_off

let reset_registries () =
  Hashtbl.reset dataset_registry;
  Hashtbl.reset attr_registry
