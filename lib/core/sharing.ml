module Interval = Hpcfs_util.Interval

type xy = { x : string; y : string }

type structure = Consecutive | Strided | Strided_cyclic

type t = {
  xy : xy;
  structure : structure;
  io_ranks : int;
  files : int;
}

let cyclic_runs_threshold = 8

let xy_name p = p.x ^ "-" ^ p.y

let structure_name = function
  | Consecutive -> "consecutive"
  | Strided -> "strided"
  | Strided_cyclic -> "strided cyclic"

(* Structure of one shared file: per-rank merged extent runs.  Repeated
   interleaved passes only count as cyclic when the file's writers are a
   proper subset of the ranks (aggregated I/O, as in collective buffering);
   when every rank touches the file directly, many runs per rank are the
   ordinary strided signature of a multi-dataset file. *)
let file_structure ~nprocs accesses =
  let per_rank : (int, Interval.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt per_rank a.Access.rank with
      | Some l -> l := a.Access.iv :: !l
      | None -> Hashtbl.add per_rank a.Access.rank (ref [ a.Access.iv ]))
    accesses;
  let runs_per_rank =
    Hashtbl.fold
      (fun rank l acc -> (rank, Interval.merge_runs !l) :: acc)
      per_rank []
  in
  let max_runs =
    List.fold_left (fun m (_, runs) -> max m (List.length runs)) 0
      runs_per_rank
  in
  let writers = Hashtbl.length per_rank in
  if max_runs >= cyclic_runs_threshold && writers < nprocs then Strided_cyclic
  else begin
    let single = List.for_all (fun (_, runs) -> List.length runs <= 1) runs_per_rank in
    if not single then Strided
    else begin
      let runs =
        List.filter_map (fun (_, runs) -> List.nth_opt runs 0) runs_per_rank
      in
      match runs with
      | [] -> Consecutive
      | first :: rest ->
        let identical = List.for_all (fun r -> r = first) rest in
        let sorted = List.sort Interval.compare_lo runs in
        let rec tiles = function
          | a :: (b :: _ as more) -> a.Interval.hi = b.Interval.lo && tiles more
          | [ _ ] | [] -> true
        in
        if identical || tiles sorted then Consecutive else Strided
    end
  end

let severity = function Consecutive -> 0 | Strided -> 1 | Strided_cyclic -> 2

(* One variant of the classification (writes-only and all-accesses run in
   parallel; which one counts is only known once the whole trace has been
   seen — Table 3 classifies output behaviour, but purely read-only
   applications (LBANN) are classified from their reads). *)
type variant = {
  ranks : (int, unit) Hashtbl.t;
  mutable vfiles : int;
  mutable max_ranks_per_file : int;
  mutable worst : structure;
}

type acc = {
  nprocs : int;
  w : variant;  (* writes only *)
  a : variant;  (* all accesses *)
  mutable any_writes : bool;
}

let variant () =
  {
    ranks = Hashtbl.create 16;
    vfiles = 0;
    max_ranks_per_file = 0;
    worst = Consecutive;
  }

let acc ~nprocs = { nprocs; w = variant (); a = variant (); any_writes = false }

let add_variant v ~nprocs accesses =
  match accesses with
  | [] -> ()
  | _ :: _ ->
    let file_ranks = Hashtbl.create 8 in
    List.iter
      (fun x ->
        Hashtbl.replace file_ranks x.Access.rank ();
        Hashtbl.replace v.ranks x.Access.rank ())
      accesses;
    let nr = Hashtbl.length file_ranks in
    v.vfiles <- v.vfiles + 1;
    if nr > v.max_ranks_per_file then v.max_ranks_per_file <- nr;
    if nr >= 2 then begin
      let s = file_structure ~nprocs accesses in
      if severity s > severity v.worst then v.worst <- s
    end

let add_file t accesses =
  let writes = List.filter Access.is_write accesses in
  if writes <> [] then t.any_writes <- true;
  add_variant t.w ~nprocs:t.nprocs writes;
  add_variant t.a ~nprocs:t.nprocs accesses

let finish t =
  let v = if t.any_writes then t.w else t.a in
  let io_ranks = Hashtbl.length v.ranks in
  let files = v.vfiles in
  let x =
    if io_ranks >= t.nprocs then "N" else if io_ranks = 1 then "1" else "M"
  in
  (* Y reflects how a file is shared during an I/O phase, not how many
     files the run produces over time: every I/O rank sharing each file is
     X-1; one rank per file is X-X; group-shared files are X-M. *)
  let y =
    if files = 1 || v.max_ranks_per_file >= io_ranks then "1"
    else if v.max_ranks_per_file <= 1 then x
    else "M"
  in
  { xy = { x; y }; structure = v.worst; io_ranks; files }

let classify ~nprocs accesses =
  let by_file : (string, Access.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt by_file a.Access.file with
      | Some l -> l := a :: !l
      | None -> Hashtbl.add by_file a.Access.file (ref [ a ]))
    accesses;
  let t = acc ~nprocs in
  Hashtbl.iter (fun _ l -> add_file t !l) by_file;
  finish t
