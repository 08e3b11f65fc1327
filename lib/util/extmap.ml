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

(* Remove all coverage of [lo, hi), keeping the parts of straddling
   segments that lie outside the range. *)
let carve lo hi m =
  if lo >= hi then m
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
  if lo >= hi then []
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

(* Overwrite [iv] with [v], except where an existing segment's value beats
   it under [wins] (i.e. [wins old v] = the old value stays).  Used for
   order-independent indexes: inserting writes out of issue order keeps the
   per-byte maximum-keyed write without any rebuild. *)
let set_max ~wins (iv : Interval.t) v m =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  if lo >= hi then m
  else begin
    let keep =
      List.filter (fun (_, old) -> wins old v) (query iv m)
    in
    let m = set iv v m in
    List.fold_left (fun m (piece, old) -> set piece old m) m keep
  end
