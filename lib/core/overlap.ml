module Interval = Hpcfs_util.Interval

type pair = Access.t * Access.t

let by_time a b = if a.Access.time <= b.Access.time then (a, b) else (b, a)

let group_by_file accesses =
  let tbl : (string, Access.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt tbl a.Access.file with
      | Some l -> l := a :: !l
      | None -> Hashtbl.add tbl a.Access.file (ref [ a ]))
    accesses;
  Hashtbl.fold (fun _ l acc -> !l :: acc) tbl []

(* The inner loop of Algorithm 1 on an offset-sorted array. *)
let iter_sorted arr ~f =
  let n = Array.length arr in
  for i = 0 to n - 1 do
    let ai = arr.(i) in
    let rec inner j =
      if j < n then begin
        let aj = arr.(j) in
        if aj.Access.iv.Interval.lo >= ai.Access.iv.Interval.hi then ()
          (* subsequent tuples cannot overlap T_i *)
        else begin
          if Interval.overlaps ai.Access.iv aj.Access.iv then f (by_time ai aj);
          inner (j + 1)
        end
      end
    in
    inner (i + 1)
  done

let scan_sorted arr =
  let pairs = ref [] in
  iter_sorted arr ~f:(fun p -> pairs := p :: !pairs);
  !pairs

let detect accesses =
  List.concat_map
    (fun file_accesses ->
      let arr = Array.of_list file_accesses in
      Array.sort Access.compare_start arr;
      scan_sorted arr)
    (group_by_file accesses)

(* K-way merge of per-rank streams, each sorted by offset.  Per-rank
   records arrive already sorted by time; one sort per rank by offset is
   still needed, but each stream is much smaller than the union. *)
let merge_by_rank file_accesses =
  match file_accesses with
  | [] -> [||]
  | _ :: _ ->
      let per_rank : (int, Access.t list ref) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun a ->
          match Hashtbl.find_opt per_rank a.Access.rank with
          | Some l -> l := a :: !l
          | None -> Hashtbl.add per_rank a.Access.rank (ref [ a ]))
        file_accesses;
      let streams =
        Hashtbl.fold
          (fun _ l acc ->
            let arr = Array.of_list !l in
            Array.sort Access.compare_start arr;
            arr :: acc)
          per_rank []
      in
      let total = List.fold_left (fun n s -> n + Array.length s) 0 streams in
      let out = Array.make total (List.hd file_accesses) in
      let heads = Array.of_list streams in
      let idx = Array.make (Array.length heads) 0 in
      (* Binary min-heap of stream ids keyed by each stream's head access
         (ties by stream id, for determinism): popping the next record is
         O(log k) rather than a scan of all k streams per element. *)
      let heap = Array.make (max 1 (Array.length heads)) 0 in
      let hn = ref 0 in
      let less s t =
        let c = Access.compare_start heads.(s).(idx.(s)) heads.(t).(idx.(t)) in
        if c <> 0 then c < 0 else s < t
      in
      let swap i j =
        let x = heap.(i) in
        heap.(i) <- heap.(j);
        heap.(j) <- x
      in
      let rec up i =
        if i > 0 then begin
          let p = (i - 1) / 2 in
          if less heap.(i) heap.(p) then begin
            swap i p;
            up p
          end
        end
      in
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let m = ref i in
        if l < !hn && less heap.(l) heap.(!m) then m := l;
        if r < !hn && less heap.(r) heap.(!m) then m := r;
        if !m <> i then begin
          swap i !m;
          down !m
        end
      in
      Array.iteri
        (fun s stream ->
          if Array.length stream > 0 then begin
            heap.(!hn) <- s;
            incr hn;
            up (!hn - 1)
          end)
        heads;
      for slot = 0 to total - 1 do
        let s = heap.(0) in
        out.(slot) <- heads.(s).(idx.(s));
        idx.(s) <- idx.(s) + 1;
        if idx.(s) = Array.length heads.(s) then begin
          decr hn;
          heap.(0) <- heap.(!hn)
        end;
        down 0
      done;
      out

let iter_file_pairs file_accesses ~f =
  iter_sorted (merge_by_rank file_accesses) ~f

let detect_merge accesses =
  List.concat_map
    (fun file_accesses -> scan_sorted (merge_by_rank file_accesses))
    (group_by_file accesses)

let rank_matrix ~nprocs pairs =
  let m = Array.make_matrix nprocs nprocs 0 in
  List.iter
    (fun (a, b) ->
      let i = min a.Access.rank b.Access.rank in
      let j = max a.Access.rank b.Access.rank in
      if i < 0 || j >= nprocs then
        invalid_arg
          (Printf.sprintf
             "Overlap.rank_matrix: pair ranks (%d, %d) outside 0..%d"
             a.Access.rank b.Access.rank (nprocs - 1));
      m.(i).(j) <- m.(i).(j) + 1)
    pairs;
  m
