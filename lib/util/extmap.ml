(* A map from disjoint half-open byte ranges to values, backed by a
   balanced tree keyed on each segment's start offset.  This is the index
   shape UnifyFS and BurstFS use server-side for write segments: every
   operation that touches a range first splits the segments straddling its
   boundaries, so lookups and overwrites cost O(log n + segments touched)
   rather than a walk of the whole history. *)

module IMap = Map.Make (Int)

type 'a t = (int * 'a) IMap.t
(* start -> (end, value); segments are disjoint and non-empty. *)

let empty = IMap.empty

(* Does a range starting at [lo] lie past every segment?  The append case
   (a checkpoint stream, a log) then needs no carve and meets no
   segment. *)
let past_end lo m =
  match IMap.max_binding_opt m with
  | None -> true
  | Some (_, (khi, _)) -> lo >= khi

(* Remove all coverage of [lo, hi), keeping the parts of straddling
   segments that lie outside the range. *)
let carve lo hi m =
  if lo >= hi || past_end lo m then m
  else begin
    (* Left straddler: a segment starting before [lo] that reaches into the
       range keeps its prefix (and, if it spans the whole range, its
       suffix). *)
    let m =
      match IMap.find_last_opt (fun k -> k < lo) m with
      | Some (k, (khi, kv)) when khi > lo ->
        let m = IMap.add k (lo, kv) m in
        if khi > hi then IMap.add hi (khi, kv) m else m
      | _ -> m
    in
    (* Segments starting inside the range: dropped, except a suffix
       escaping past [hi]. *)
    let rec drop m =
      match IMap.find_first_opt (fun k -> k >= lo) m with
      | Some (k, (khi, kv)) when k < hi ->
        let m = IMap.remove k m in
        let m = if khi > hi then IMap.add hi (khi, kv) m else m in
        drop m
      | _ -> m
    in
    drop m
  end

let set (iv : Interval.t) v m =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  if lo >= hi then m else IMap.add lo (hi, v) (carve lo hi m)

(* Clipped segments intersecting [lo, hi), ascending.  Gaps are simply
   absent from the result. *)
let query (iv : Interval.t) m =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  if lo >= hi || past_end lo m then []
  else begin
    let acc = ref [] in
    (match IMap.find_last_opt (fun k -> k < lo) m with
    | Some (k, (khi, kv)) when khi > lo ->
      ignore k;
      acc := [ (Interval.make lo (min khi hi), kv) ]
    | _ -> ());
    let rec walk seq =
      match seq () with
      | Seq.Cons ((k, (khi, kv)), rest) when k < hi ->
        acc := (Interval.make k (min khi hi), kv) :: !acc;
        walk rest
      | _ -> ()
    in
    walk (IMap.to_seq_from lo m);
    List.rev !acc
  end

(* One query, one carve, then one add per run of physically equal new
   values: the pieces and gaps of [iv], in order, each mapped through
   [f]. *)
let update (iv : Interval.t) f m =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  if lo >= hi then m
  else if past_end lo m then IMap.add lo (hi, f None) m
  else begin
    let rec fill pos = function
      | [] -> if pos < hi then [ (pos, hi, f None) ] else []
      | ((piv : Interval.t), old) :: rest ->
        let here = (piv.lo, piv.hi, f (Some old)) :: fill piv.hi rest in
        if piv.lo > pos then (pos, piv.lo, f None) :: here else here
    in
    (* [fill] covers [iv] contiguously, so neighbours always touch. *)
    let rec add m = function
      | (a, _, v) :: (_, c, v') :: rest when v == v' -> add m ((a, c, v) :: rest)
      | (a, b, v) :: rest -> add (IMap.add a (b, v) m) rest
      | [] -> m
    in
    add (carve lo hi m) (fill lo (query iv m))
  end
