(* A map from disjoint half-open byte ranges to values, backed by a
   balanced tree keyed on each segment's start offset.  This is the index
   shape UnifyFS and BurstFS use server-side for write segments: every
   operation that touches a range first splits the segments straddling its
   boundaries, so lookups and overwrites cost O(log n + segments touched)
   rather than a walk of the whole history.

   The tree is an AVL tree of its own rather than a [Map.Make (Int)]: the
   lookups below return the tree node they stop at and the query folds
   over the nodes in range, so neither allocates anything but its
   result. *)

type 'a seg = { hi : int; v : 'a }

type 'a t =
  | Empty
  | Node of { l : 'a t; lo : int; s : 'a seg; r : 'a t; h : int }
(* Segment [lo, s.hi) -> s.v; segments are disjoint and non-empty.  The
   end and value share one block, so a path copy allocates one word less
   per node. *)

let empty = Empty

let height = function Empty -> 0 | Node n -> n.h

let node l lo s r =
  let hl = height l and hr = height r in
  Node { l; lo; s; r; h = (if hl >= hr then hl + 1 else hr + 1) }

(* Rebalance after one insertion or removal below (the standard AVL
   rotations, with [Map]'s tolerance of 2). *)
let bal l lo s r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; lo = llo; s = ls; r = lr; _ } -> (
      if height ll >= height lr then node ll llo ls (node lr lo s r)
      else
        match lr with
        | Node { l = lrl; lo = lrlo; s = lrs; r = lrr; _ } ->
          node (node ll llo ls lrl) lrlo lrs (node lrr lo s r)
        | Empty -> assert false)
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; lo = rlo; s = rs; r = rr; _ } -> (
      if height rr >= height rl then node (node l lo s rl) rlo rs rr
      else
        match rl with
        | Node { l = rll; lo = rllo; s = rls; r = rlr; _ } ->
          node (node l lo s rll) rllo rls (node rlr rlo rs rr)
        | Empty -> assert false)
    | Empty -> assert false
  else node l lo s r

(* Insert segment [lo, s.hi) -> s.v, replacing one starting at [lo]. *)
let rec add lo s = function
  | Empty -> Node { l = Empty; lo; s; r = Empty; h = 1 }
  | Node n ->
    if lo = n.lo then Node { n with s }
    else if lo < n.lo then bal (add lo s n.l) n.lo n.s n.r
    else bal n.l n.lo n.s (add lo s n.r)

let rec remove_min = function
  | Empty -> Empty
  | Node { l = Empty; r; _ } -> r
  | Node n -> bal (remove_min n.l) n.lo n.s n.r

(* The leftmost node of a tree, or [Empty]. *)
let rec first = function
  | Node { l = Node _ as l; _ } -> first l
  | t -> t

(* The rightmost node: the segment that ends last. *)
let rec last = function
  | Node { r = Node _ as r; _ } -> last r
  | t -> t

let rec remove lo = function
  | Empty -> Empty
  | Node n ->
    if lo = n.lo then
      match first n.r with
      | Empty -> n.l
      | Node m -> bal n.l m.lo m.s (remove_min n.r)
    else if lo < n.lo then bal (remove lo n.l) n.lo n.s n.r
    else bal n.l n.lo n.s (remove lo n.r)

(* The node with the greatest start below [x], or [Empty]. *)
let rec last_below x best = function
  | Empty -> best
  | Node n as t ->
    if n.lo < x then last_below x t n.r else last_below x best n.l

(* The node with the least start at or above [x], or [Empty]. *)
let rec first_from x best = function
  | Empty -> best
  | Node n as t ->
    if n.lo >= x then first_from x t n.l else first_from x best n.r

(* Does a range starting at [lo] lie past every segment?  The append case
   (a checkpoint stream, a log) then needs no carve and meets no segment.
   The last segment ends last, so the rightmost node answers without
   allocating. *)
let past_end lo m = match last m with Node n -> lo >= n.s.hi | Empty -> true

(* Remove all coverage of [lo, hi), keeping the parts of straddling
   segments that lie outside the range. *)
let carve lo hi m =
  if lo >= hi || past_end lo m then m
  else begin
    (* Left straddler: a segment starting before [lo] that reaches into the
       range keeps its prefix (and, if it spans the whole range, its
       suffix). *)
    let m =
      match last_below lo Empty m with
      | Node { lo = k; s; _ } when s.hi > lo ->
        let m = add k { s with hi = lo } m in
        if s.hi > hi then add hi s m else m
      | _ -> m
    in
    (* Segments starting inside the range: dropped, except a suffix
       escaping past [hi]. *)
    let rec drop m =
      match first_from lo Empty m with
      | Node { lo = k; s; _ } when k < hi ->
        let m = remove k m in
        drop (if s.hi > hi then add hi s m else m)
      | _ -> m
    in
    drop m
  end

let set (iv : Interval.t) v m =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  if lo >= hi then m else add lo { hi; v } (carve lo hi m)

(* Clipped segments intersecting [lo, hi), ascending.  Gaps are simply
   absent from the result.  The segments starting in the range are folded
   right to left, so the list comes out in order without a reversal; only
   the left straddler starts before [lo]. *)
let query (iv : Interval.t) m =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  if lo >= hi then []
  else begin
    let rec fold acc = function
      | Empty -> acc
      | Node n ->
        let acc = if n.lo < hi then fold acc n.r else acc in
        if n.lo < lo then acc
        else
          let acc =
            if n.lo < hi then
              (Interval.make n.lo (min n.s.hi hi), n.s.v) :: acc
            else acc
          in
          if n.lo > lo then fold acc n.l else acc
    in
    let inside = fold [] m in
    match last_below lo Empty m with
    | Node { s; _ } when s.hi > lo ->
      (Interval.make lo (min s.hi hi), s.v) :: inside
    | _ -> inside
  end

(* One query, one carve, then one add per run of physically equal new
   values: the pieces and gaps of [iv], in order, each mapped through
   [f]. *)
let update (iv : Interval.t) f m =
  let lo = iv.Interval.lo and hi = iv.Interval.hi in
  if lo >= hi then m
  else if past_end lo m then add lo { hi; v = f None } m
  else begin
    let rec fill pos = function
      | [] -> if pos < hi then [ (pos, hi, f None) ] else []
      | ((piv : Interval.t), old) :: rest ->
        let here = (piv.lo, piv.hi, f (Some old)) :: fill piv.hi rest in
        if piv.lo > pos then (pos, piv.lo, f None) :: here else here
    in
    (* [fill] covers [iv] contiguously, so neighbours always touch. *)
    let rec add_runs m = function
      | (a, _, v) :: (_, c, v') :: rest when v == v' ->
        add_runs m ((a, c, v) :: rest)
      | (a, hi, v) :: rest -> add_runs (add a { hi; v } m) rest
      | [] -> m
    in
    add_runs (carve lo hi m) (fill lo (query iv m))
  end
