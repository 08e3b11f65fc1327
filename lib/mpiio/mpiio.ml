module Sched = Hpcfs_sim.Sched
module Mpi = Hpcfs_mpi.Mpi
module Posix = Hpcfs_posix.Posix
module Record = Hpcfs_trace.Record
module Collector = Hpcfs_trace.Collector
module Interval = Hpcfs_util.Interval

type ctx = {
  posix : Posix.ctx;
  comm : Mpi.comm;
  cb_nodes : int;
  mutable agg_ranks : int array; (* computed lazily once size is known *)
}

let make_ctx ?(cb_nodes = 6) posix comm =
  if cb_nodes <= 0 then invalid_arg "Mpiio.make_ctx: cb_nodes";
  { posix; comm; cb_nodes; agg_ranks = [||] }

let aggregators_arr ctx =
  if Array.length ctx.agg_ranks = 0 then begin
    let n = Mpi.size ctx.comm in
    let k = min ctx.cb_nodes n in
    ctx.agg_ranks <- Array.init k (fun i -> i * n / k)
  end;
  ctx.agg_ranks

let aggregators ctx = Array.to_list (aggregators_arr ctx)

let is_aggregator ctx =
  Array.exists (fun r -> r = Mpi.rank ctx.comm) (aggregators_arr ctx)

type amode = { rd : bool; wr : bool; create : bool }

let mode_rdonly = { rd = true; wr = false; create = false }
let mode_wronly_create = { rd = false; wr = true; create = true }
let mode_rdwr_create = { rd = true; wr = true; create = true }

type fh = { path : string; fds : (int, int) Hashtbl.t; solo : bool }

let emit ctx ~origin ~func ?file ?offset ?count () =
  let time = Sched.tick () in
  Collector.emit (Posix.collector ctx.posix)
    (Record.make ~time ~rank:(Mpi.rank ctx.comm) ~layer:Record.L_mpiio ~origin
       ~func ?file ?offset ?count ())

let my_fd fh ctx =
  match Hashtbl.find_opt fh.fds (Mpi.rank ctx.comm) with
  | Some fd -> fd
  | None -> invalid_arg "Mpiio: file handle not opened on this rank"

let file_open ctx ?(origin = Record.O_app) path amode =
  emit ctx ~origin ~func:"MPI_File_open" ~file:path ();
  (* ROMIO probes the file system before opening (cf. the access/stat
     metadata calls the paper attributes to the MPI library in Figure 3). *)
  ignore (Posix.access ctx.posix ~origin:Record.O_mpi path);
  if Mpi.rank ctx.comm = 0 && amode.create then
    ignore (Posix.umask ctx.posix ~origin:Record.O_mpi 0o022);
  let flags =
    (if amode.rd && amode.wr then [ Posix.O_RDWR ]
     else if amode.wr then [ Posix.O_WRONLY ]
     else [ Posix.O_RDONLY ])
    @ (if amode.create then [ Posix.O_CREAT ] else [])
  in
  (* Rank 0 creates the file first so that a create+open race cannot leave
     some ranks observing a missing file. *)
  let fh = { path; fds = Hashtbl.create 8; solo = false } in
  if Mpi.rank ctx.comm = 0 then begin
    let fd = Posix.openf ctx.posix ~origin:Record.O_mpi path flags in
    Hashtbl.replace fh.fds 0 fd
  end;
  Mpi.barrier ctx.comm;
  if Mpi.rank ctx.comm <> 0 then begin
    let flags = List.filter (fun f -> f <> Posix.O_CREAT) flags in
    let fd = Posix.openf ctx.posix ~origin:Record.O_mpi path flags in
    Hashtbl.replace fh.fds (Mpi.rank ctx.comm) fd
  end;
  Mpi.barrier ctx.comm;
  fh

let file_close ctx ?(origin = Record.O_app) fh =
  emit ctx ~origin ~func:"MPI_File_close" ~file:fh.path ();
  Posix.close ctx.posix ~origin:Record.O_mpi (my_fd fh ctx);
  Hashtbl.remove fh.fds (Mpi.rank ctx.comm);
  if not fh.solo then Mpi.barrier ctx.comm

(* MPI_File_open over MPI_COMM_SELF: no collectivity, one rank's handle. *)
let file_open_self ctx ?(origin = Record.O_app) path amode =
  emit ctx ~origin ~func:"MPI_File_open" ~file:path ();
  ignore (Posix.access ctx.posix ~origin:Record.O_mpi path);
  let flags =
    (if amode.rd && amode.wr then [ Posix.O_RDWR ]
     else if amode.wr then [ Posix.O_WRONLY ]
     else [ Posix.O_RDONLY ])
    @ (if amode.create then [ Posix.O_CREAT ] else [])
  in
  let fh = { path; fds = Hashtbl.create 1; solo = true } in
  let fd = Posix.openf ctx.posix ~origin:Record.O_mpi path flags in
  Hashtbl.replace fh.fds (Mpi.rank ctx.comm) fd;
  fh

let file_sync ctx ?(origin = Record.O_app) fh =
  emit ctx ~origin ~func:"MPI_File_sync" ~file:fh.path ();
  Posix.fsync ctx.posix ~origin:Record.O_mpi (my_fd fh ctx);
  if not fh.solo then Mpi.barrier ctx.comm

let read_at ctx ?(origin = Record.O_app) fh ~off len =
  emit ctx ~origin ~func:"MPI_File_read_at" ~file:fh.path ~offset:off
    ~count:len ();
  Posix.pread ctx.posix ~origin:Record.O_mpi (my_fd fh ctx) ~off len

let write_at ctx ?(origin = Record.O_app) fh ~off data =
  emit ctx ~origin ~func:"MPI_File_write_at" ~file:fh.path ~offset:off
    ~count:(Bytes.length data) ();
  ignore (Posix.pwrite ctx.posix ~origin:Record.O_mpi (my_fd fh ctx) ~off data)

(* Two-phase collective buffering ----------------------------------------- *)

let exch_tag = 1_000_001

(* Contiguous aggregator file domains covering [lo, hi). *)
let domains ctx ~lo ~hi =
  let aggs = aggregators_arr ctx in
  let k = Array.length aggs in
  let span = hi - lo in
  let chunk = (span + k - 1) / k in
  Array.init k (fun i ->
      let dlo = lo + (i * chunk) in
      let dhi = min hi (dlo + chunk) in
      if dlo >= hi then None else Some (aggs.(i), Interval.make dlo dhi))
  |> Array.to_list |> List.filter_map Fun.id

(* Pieces of [iv] falling in each aggregator domain, in offset order. *)
let pieces_of domains iv =
  List.filter_map
    (fun (agg, dom) ->
      Option.map (fun inter -> (agg, inter)) (Interval.intersect dom iv))
    domains

(* All ranks' extents, gathered; only non-empty ones are kept. *)
let gather_extents ctx ~off ~len =
  let all = Mpi.allgather ctx.comm (Mpi.P_ints [| off; len |]) in
  Array.to_list all
  |> List.mapi (fun r p ->
         match p with
         | Mpi.P_ints [| o; l |] when l > 0 -> Some (r, Interval.of_len o l)
         | _ -> None)
  |> List.filter_map Fun.id

let write_at_all ctx ?(origin = Record.O_app) fh ~off data =
  let len = Bytes.length data in
  emit ctx ~origin ~func:"MPI_File_write_at_all" ~file:fh.path ~offset:off
    ~count:len ();
  let extents = gather_extents ctx ~off ~len in
  (if extents <> [] then begin
     let me = Mpi.rank ctx.comm in
     let lo = List.fold_left (fun a (_, iv) -> min a iv.Interval.lo) max_int extents in
     let hi = List.fold_left (fun a (_, iv) -> max a iv.Interval.hi) 0 extents in
     let domains = domains ctx ~lo ~hi in
     (* Phase 1: ship my pieces to their aggregators. *)
     let local = ref [] in
     if len > 0 then
       List.iter
         (fun (agg, piece) ->
           let sub =
             Bytes.sub data (piece.Interval.lo - off) (Interval.length piece)
           in
           if agg = me then local := (piece, sub) :: !local
           else begin
             Mpi.send ctx.comm ~dst:agg ~tag:exch_tag
               (Mpi.P_ints [| piece.Interval.lo |]);
             Mpi.send ctx.comm ~dst:agg ~tag:exch_tag (Mpi.P_bytes sub)
           end)
         (pieces_of domains (Interval.of_len off len));
     (* Phase 2: aggregators assemble their domain and issue large writes. *)
     if List.exists (fun (agg, _) -> agg = me) domains then begin
       let collected = ref !local in
       List.iter
         (fun (r, iv) ->
           if r <> me then
             List.iter
               (fun (agg, piece) ->
                 if agg = me then begin
                   let o =
                     match Mpi.recv ctx.comm ~src:r ~tag:exch_tag with
                     | Mpi.P_ints [| o |] -> o
                     | _ -> invalid_arg "Mpiio: bad piece header"
                   in
                   let sub =
                     match Mpi.recv ctx.comm ~src:r ~tag:exch_tag with
                     | Mpi.P_bytes b -> b
                     | _ -> invalid_arg "Mpiio: bad piece body"
                   in
                   assert (o = piece.Interval.lo);
                   collected := (piece, sub) :: !collected
                 end)
               (pieces_of domains iv))
         extents;
       (* Write back merged contiguous runs covering the collected pieces. *)
       let runs = Interval.merge_runs (List.map fst !collected) in
       List.iter
         (fun run ->
           let buf = Bytes.make (Interval.length run) '\000' in
           List.iter
             (fun (piece, sub) ->
               if Interval.overlaps piece run then
                 Bytes.blit sub 0 buf (piece.Interval.lo - run.Interval.lo)
                   (Bytes.length sub))
             !collected;
           ignore
             (Posix.pwrite ctx.posix ~origin:Record.O_mpi (my_fd fh ctx)
                ~off:run.Interval.lo buf))
         runs
     end
   end);
  Mpi.barrier ctx.comm

let read_at_all ctx ?(origin = Record.O_app) fh ~off len =
  emit ctx ~origin ~func:"MPI_File_read_at_all" ~file:fh.path ~offset:off
    ~count:len ();
  let extents = gather_extents ctx ~off ~len in
  let result = Bytes.make len '\000' in
  (if extents <> [] then begin
     let me = Mpi.rank ctx.comm in
     let lo = List.fold_left (fun a (_, iv) -> min a iv.Interval.lo) max_int extents in
     let hi = List.fold_left (fun a (_, iv) -> max a iv.Interval.hi) 0 extents in
     let domains = domains ctx ~lo ~hi in
     (* Aggregators read their domain pieces in merged runs and serve them. *)
     if List.exists (fun (agg, _) -> agg = me) domains then begin
       let my_pieces =
         List.concat_map
           (fun (r, iv) ->
             List.filter_map
               (fun (agg, piece) -> if agg = me then Some (r, piece) else None)
               (pieces_of domains iv))
           extents
       in
       let runs = Interval.merge_runs (List.map snd my_pieces) in
       let buffers =
         List.map
           (fun run ->
             ( run,
               Posix.pread ctx.posix ~origin:Record.O_mpi (my_fd fh ctx)
                 ~off:run.Interval.lo (Interval.length run) ))
           runs
       in
       let serve (r, piece) =
         let run, buf =
           List.find (fun (run, _) -> Interval.overlaps run piece) buffers
         in
         let sub =
           Bytes.sub buf (piece.Interval.lo - run.Interval.lo)
             (Interval.length piece)
         in
         if r = me then
           Bytes.blit sub 0 result (piece.Interval.lo - off) (Bytes.length sub)
         else Mpi.send ctx.comm ~dst:r ~tag:exch_tag (Mpi.P_bytes sub)
       in
       List.iter serve my_pieces
     end;
     (* Every rank collects its pieces from the other aggregators. *)
     if len > 0 then
       List.iter
         (fun (agg, piece) ->
           if agg <> me then begin
             match Mpi.recv ctx.comm ~src:agg ~tag:exch_tag with
             | Mpi.P_bytes sub ->
               Bytes.blit sub 0 result (piece.Interval.lo - off)
                 (Bytes.length sub)
             | _ -> invalid_arg "Mpiio: bad read piece"
           end)
         (pieces_of domains (Interval.of_len off len))
   end);
  Mpi.barrier ctx.comm;
  result

let comm ctx = ctx.comm
let posix_ctx ctx = ctx.posix
let posix_fd ctx fh = my_fd fh ctx
