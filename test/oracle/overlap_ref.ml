module Interval = Hpcfs_util.Interval
module Access = Hpcfs_core.Access

let by_time a b = if a.Access.time <= b.Access.time then (a, b) else (b, a)

let group_by_file accesses =
  let tbl : (string, Access.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl a.Access.file) in
      Hashtbl.replace tbl a.Access.file (a :: l))
    accesses;
  Hashtbl.fold (fun _ l acc -> l :: acc) tbl []

let detect_naive accesses =
  List.concat_map
    (fun file_accesses ->
      let arr = Array.of_list file_accesses in
      let n = Array.length arr in
      let pairs = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Interval.overlaps arr.(i).Access.iv arr.(j).Access.iv then
            pairs := by_time arr.(i) arr.(j) :: !pairs
        done
      done;
      !pairs)
    (group_by_file accesses)
