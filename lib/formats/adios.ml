module Posix = Hpcfs_posix.Posix
module Mpi = Hpcfs_mpi.Mpi
module Record = Hpcfs_trace.Record

type t = {
  posix : Posix.ctx;
  comm : Mpi.comm;
  dir : string;
  substreams : int;
  data_fd : int option; (* aggregators only *)
  md_fd : int option; (* rank 0 only *)
  idx_fd : int option; (* rank 0 only *)
  mutable step : int;
}

let origin = Record.O_adios
let data_tag = 2_000_001

let substream_of t rank = rank * t.substreams / Mpi.size t.comm

let substream_of_rank = substream_of

(* The lowest rank aggregating into a given substream. *)
let aggregator_of t sub =
  let n = Mpi.size t.comm in
  let rec go r =
    if r >= n then invalid_arg "Adios: empty substream"
    else if substream_of t r = sub then r
    else go (r + 1)
  in
  go 0

let open_write posix comm dir ~substreams =
  if substreams <= 0 then invalid_arg "Adios.open_write: substreams";
  let me = Mpi.rank comm in
  if me = 0 then begin
    (* BP4 resolves the target directory and marks the dataset as active
       with a sentinel that is unlinked at close (Figure 3: ADIOS
       introduces getcwd and unlink into the LAMMPS trace). *)
    ignore (Posix.getcwd posix ~origin ());
    (* A restarted writer finds the directory from its first attempt;
       BP4 reuses it. *)
    (try Posix.mkdir posix ~origin dir
     with Posix.Posix_error { msg = "file exists"; _ } -> ());
    Posix.close posix ~origin
      (Posix.openf posix ~origin (dir ^ "/active")
         [ Posix.O_WRONLY; Posix.O_CREAT ])
  end;
  Mpi.barrier comm;
  let t =
    {
      posix;
      comm;
      dir;
      substreams = min substreams (Mpi.size comm);
      data_fd = None;
      md_fd = None;
      idx_fd = None;
      step = 0;
    }
  in
  let my_sub = substream_of t me in
  let data_fd =
    if aggregator_of t my_sub = me then
      Some
        (Posix.openf posix ~origin
           (Printf.sprintf "%s/data.%d" dir my_sub)
           [ Posix.O_WRONLY; Posix.O_CREAT; Posix.O_APPEND ])
    else None
  in
  let md_fd, idx_fd =
    if me = 0 then begin
      let md =
        Posix.openf posix ~origin (dir ^ "/md.0")
          [ Posix.O_WRONLY; Posix.O_CREAT; Posix.O_APPEND ]
      in
      let idx =
        Posix.openf posix ~origin (dir ^ "/md.idx")
          [ Posix.O_RDWR; Posix.O_CREAT ]
      in
      (* Index header: 64 bytes, written once at open. *)
      ignore (Posix.pwrite posix ~origin idx ~off:0 (Bytes.make 64 'i'));
      (Some md, Some idx)
    end
    else (None, None)
  in
  { t with data_fd; md_fd; idx_fd }

let write_step t payload =
  let me = Mpi.rank t.comm in
  let my_sub = substream_of t me in
  let agg = aggregator_of t my_sub in
  (* Ship payloads to the substream aggregator. *)
  if agg <> me then Mpi.send t.comm ~dst:agg ~tag:data_tag (Mpi.P_bytes payload);
  (match t.data_fd with
  | Some fd ->
    let n = Mpi.size t.comm in
    for r = 0 to n - 1 do
      if substream_of t r = my_sub then begin
        let data =
          if r = me then payload
          else begin
            match Mpi.recv t.comm ~src:r ~tag:data_tag with
            | Mpi.P_bytes b -> b
            | _ -> invalid_arg "Adios: bad payload"
          end
        in
        ignore (Posix.write t.posix ~origin fd data)
      end
    done
  | None -> ());
  (* Rank 0 appends the per-step metadata and index record, then overwrites
     the single-byte step counter in the md.idx header: the WAW-S of
     LAMMPS-ADIOS. *)
  (match (t.md_fd, t.idx_fd) with
  | Some md, Some idx ->
    ignore (Posix.write t.posix ~origin md (Bytes.make 128 'm'));
    ignore
      (Posix.pwrite t.posix ~origin idx ~off:(64 + (t.step * 24))
         (Bytes.make 24 'x'));
    ignore
      (Posix.pwrite t.posix ~origin idx ~off:8
         (Bytes.make 1 (Char.chr (t.step land 0xff))))
  | _ -> ());
  t.step <- t.step + 1;
  Mpi.barrier t.comm

let close t =
  Option.iter (fun fd -> Posix.close t.posix ~origin fd) t.data_fd;
  Option.iter (fun fd -> Posix.close t.posix ~origin fd) t.md_fd;
  Option.iter (fun fd -> Posix.close t.posix ~origin fd) t.idx_fd;
  if Mpi.rank t.comm = 0 then Posix.unlink t.posix ~origin (t.dir ^ "/active");
  Mpi.barrier t.comm
