module Interval = Hpcfs_util.Interval
module Obs = Hpcfs_obs.Obs

type mode = Read | Write

(* Ownership of one lock block: either shared by a set of readers or held
   exclusively by one writer. *)
type owner = Readers of (int, unit) Hashtbl.t | Writer of int

type counters = {
  acquisitions : int;
  revocations : int;
  messages : int;
  hits : int;
}

type t = {
  granularity : int;
  blocks : (string * int, owner) Hashtbl.t; (* (file, block index) -> owner *)
  mutable acquisitions : int;
  mutable revocations : int;
  mutable hits : int;
}

let create ~granularity =
  if granularity <= 0 then invalid_arg "Lockmgr.create: granularity";
  { granularity; blocks = Hashtbl.create 256; acquisitions = 0;
    revocations = 0; hits = 0 }

let blocks_of t iv =
  let first = iv.Interval.lo / t.granularity in
  let last = (iv.Interval.hi - 1) / t.granularity in
  List.init (last - first + 1) (fun i -> first + i)

let acquired t =
  t.acquisitions <- t.acquisitions + 1;
  Obs.incr "fs.lock.acquisitions"

let revoked t n =
  if n > 0 then begin
    t.revocations <- t.revocations + n;
    Obs.incr ~by:n "fs.lock.revocations"
  end

let hit t =
  t.hits <- t.hits + 1;
  Obs.incr "fs.lock.hits"

let access t ~file ~client mode iv =
  if not (Interval.is_empty iv) then
    List.iter
      (fun b ->
        let key = (file, b) in
        match (Hashtbl.find_opt t.blocks key, mode) with
        | None, Read ->
          let readers = Hashtbl.create 4 in
          Hashtbl.replace readers client ();
          Hashtbl.replace t.blocks key (Readers readers);
          acquired t
        | None, Write ->
          Hashtbl.replace t.blocks key (Writer client);
          acquired t
        | Some (Readers readers), Read ->
          if Hashtbl.mem readers client then hit t
          else begin
            Hashtbl.replace readers client ();
            acquired t
          end
        | Some (Readers readers), Write ->
          let others = Hashtbl.length readers - (if Hashtbl.mem readers client then 1 else 0) in
          revoked t others;
          Hashtbl.replace t.blocks key (Writer client);
          acquired t
        | Some (Writer w), Write ->
          if w = client then hit t
          else begin
            revoked t 1;
            Hashtbl.replace t.blocks key (Writer client);
            acquired t
          end
        | Some (Writer w), Read ->
          if w = client then hit t
          else begin
            revoked t 1;
            let readers = Hashtbl.create 4 in
            Hashtbl.replace readers client ();
            Hashtbl.replace t.blocks key (Readers readers);
            acquired t
          end)
      (blocks_of t iv)

let release_client t ~file ~client =
  let to_remove = ref [] in
  Hashtbl.iter
    (fun ((f, _) as key) owner ->
      if f = file then
        match owner with
        | Writer w when w = client -> to_remove := (key, None) :: !to_remove
        | Readers readers when Hashtbl.mem readers client ->
          Hashtbl.remove readers client;
          if Hashtbl.length readers = 0 then
            to_remove := (key, None) :: !to_remove
        | Writer _ | Readers _ -> ())
    t.blocks;
  List.iter (fun (key, _) -> Hashtbl.remove t.blocks key) !to_remove

let evict_client t ~client =
  let evicted = ref 0 in
  let to_remove = ref [] in
  Hashtbl.iter
    (fun key owner ->
      match owner with
      | Writer w when w = client ->
        incr evicted;
        to_remove := key :: !to_remove
      | Readers readers when Hashtbl.mem readers client ->
        incr evicted;
        Hashtbl.remove readers client;
        if Hashtbl.length readers = 0 then to_remove := key :: !to_remove
      | Writer _ | Readers _ -> ())
    t.blocks;
  List.iter (fun key -> Hashtbl.remove t.blocks key) !to_remove;
  revoked t !evicted;
  !evicted

let counters t =
  {
    acquisitions = t.acquisitions;
    revocations = t.revocations;
    messages = (2 * t.acquisitions) + (2 * t.revocations);
    hits = t.hits;
  }
