type t = { lo : int; hi : int }

let make lo hi =
  if hi < lo then invalid_arg "Interval.make: hi < lo";
  { lo; hi }

let of_len off len = make off (off + len)

let length i = i.hi - i.lo

let is_empty i = i.hi = i.lo

let overlaps a b = a.lo < b.hi && b.lo < a.hi

let contains i x = i.lo <= x && x < i.hi

let intersect a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo < hi then Some { lo; hi } else None

let union_hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let subtract a b =
  if not (overlaps a b) then [ a ]
  else begin
    let left = if a.lo < b.lo then [ { lo = a.lo; hi = b.lo } ] else [] in
    let right = if b.hi < a.hi then [ { lo = b.hi; hi = a.hi } ] else [] in
    left @ right
  end

let compare_lo a b =
  match compare a.lo b.lo with 0 -> compare a.hi b.hi | c -> c

let merge_runs intervals =
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
      match acc with
      | prev :: acc' when prev.hi >= iv.lo ->
        go (union_hull prev iv :: acc') rest
      | _ -> go (iv :: acc) rest)
  in
  go [] (List.sort compare_lo intervals)

let pp ppf i = Format.fprintf ppf "[%d,%d)" i.lo i.hi
