(* Shared helpers for the application models. *)

module Sched = Hpcfs_sim.Sched
module Mpi = Hpcfs_mpi.Mpi
module Posix = Hpcfs_posix.Posix
module Pfs = Hpcfs_fs.Pfs
module Prng = Hpcfs_util.Prng

(* Default per-rank payload of one write: real applications write MBs; the
   analysis only cares about extent shapes, so payloads are scaled down. *)
let block = 512

let rank env = Mpi.rank env.Runner.comm
let is_rank0 env = rank env = 0

(* Byte [i] of a payload is [(tag + rank + i) land 0xff]: a byte ramp
   starting at [(tag + rank) land 0xff].  Two periods of the ramp let any
   256-byte window of it be copied in one blit.

   A write hands its buffer over to the storage stack, which keeps it as
   written (see {!Posix.write}), so a payload is built once per (start,
   length) and shared through the run's [payloads] table: no caller may
   mutate one. *)
let ramp = Bytes.init 512 (fun i -> Char.chr (i land 0xff))

let make_payload start len =
  let b = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let n = min 256 (len - !pos) in
    Bytes.blit ramp start b !pos n;
    pos := !pos + n
  done;
  b

let payload ?(len = block) env tag =
  let start = (tag + rank env) land 0xff in
  let key = (len lsl 8) lor start in
  match Hashtbl.find_opt env.Runner.payloads key with
  | Some b -> b
  | None ->
    let b = make_payload start len in
    Hashtbl.add env.Runner.payloads key b;
    b

(* One synchronized computation step: the communication that (a) separates
   I/O phases and (b) provides the happens-before edges that make the
   detected conflicts race-free. *)
let compute env = Mpi.barrier env.Runner.comm

let compute_allreduce env =
  ignore (Mpi.allreduce env.Runner.comm Mpi.Sum (rank env))

(* Random scheduling jitter: desynchronizes ranks so that independent I/O
   interleaves out of rank order, producing the random global patterns the
   paper observes for FLASH-nofbs and LBANN. *)
let jitter env prng ~max_slots =
  ignore env;
  let n = Prng.int prng (max_slots + 1) in
  for _ = 1 to n do
    Sched.yield ()
  done

(* Create a directory tree (rank 0 only, traced), then synchronize. *)
let setup_dir env path =
  if is_rank0 env then begin
    let components = String.split_on_char '/' path in
    let _ =
      List.fold_left
        (fun prefix c ->
          if c = "" then prefix
          else begin
            let dir = prefix ^ "/" ^ c in
            if not (Posix.access env.Runner.posix dir) then
              Posix.mkdir env.Runner.posix dir;
            dir
          end)
        "" components
    in
    ()
  end;
  Mpi.barrier env.Runner.comm

(* Materialize an input file directly in the PFS, bypassing the tracer (the
   paper does not trace input staging either). *)
let prepare_input env path size =
  if is_rank0 env then begin
    let ns = Pfs.namespace (Posix.pfs env.Runner.posix) in
    let rec ensure_dirs prefix = function
      | [] | [ _ ] -> ()
      | c :: rest ->
        let dir = prefix ^ "/" ^ c in
        if not (Hpcfs_fs.Namespace.exists ns dir) then
          Hpcfs_fs.Namespace.mkdir ns ~time:(Sched.now ()) dir;
        ensure_dirs dir rest
    in
    ensure_dirs "" (List.filter (fun c -> c <> "") (String.split_on_char '/' path));
    let pfs = Posix.pfs env.Runner.posix in
    let time = Sched.tick () in
    ignore (Pfs.open_file pfs ~time ~rank:0 ~create:true path);
    let chunk = 4096 in
    let rec fill off =
      if off < size then begin
        let len = min chunk (size - off) in
        Pfs.write pfs ~time:(Sched.tick ()) ~rank:0 path ~off
          (Bytes.make len 'd');
        fill (off + len)
      end
    in
    fill 0;
    Pfs.close_file pfs ~time:(Sched.tick ()) ~rank:0 path
  end;
  Mpi.barrier env.Runner.comm
