type series = { mutable acc : int list; mutable sorted : int array }

(* Keyed by (rank, file). *)
module Tbl = Hashtbl.Make (struct
  type t = int * string

  let equal ((r1 : int), f1) (r2, f2) = r1 = r2 && String.equal f1 f2
  let hash = Hashtbl.hash
end)

type t = {
  opens : series Tbl.t;
  closes : series Tbl.t;
  commits : series Tbl.t;
  mutable sealed : bool;
}

let create () =
  {
    opens = Tbl.create 64;
    closes = Tbl.create 64;
    commits = Tbl.create 64;
    sealed = false;
  }

let add tbl key time =
  match Tbl.find tbl key with
  | s -> s.acc <- time :: s.acc
  | exception Not_found -> Tbl.add tbl key { acc = [ time ]; sorted = [||] }

let add_open t ~rank ~file time = add t.opens (rank, file) time
let add_close t ~rank ~file time = add t.closes (rank, file) time
let add_commit t ~rank ~file time = add t.commits (rank, file) time

let seal t =
  let seal_tbl tbl =
    Tbl.iter
      (fun _ s ->
        let a = Array.of_list s.acc in
        Array.sort Int.compare a;
        s.sorted <- a)
      tbl
  in
  seal_tbl t.opens;
  seal_tbl t.closes;
  seal_tbl t.commits;
  t.sealed <- true

let sorted t tbl key =
  if not t.sealed then invalid_arg "Eventtab: query before seal";
  match Tbl.find tbl key with s -> s.sorted | exception Not_found -> [||]

(* Largest element <= x, or min_int. *)
let floor_find a x =
  let rec go lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then go (mid + 1) hi a.(mid) else go lo (mid - 1) best
    end
  in
  go 0 (Array.length a - 1) min_int

(* Smallest element > x, or max_int. *)
let ceil_find a x =
  let rec go lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) > x then go lo (mid - 1) a.(mid) else go (mid + 1) hi best
    end
  in
  go 0 (Array.length a - 1) max_int

let last_open_before t ~rank ~file time =
  floor_find (sorted t t.opens (rank, file)) time

let first_close_after t ~rank ~file time =
  ceil_find (sorted t t.closes (rank, file)) time

let first_commit_after t ~rank ~file time =
  ceil_find (sorted t t.commits (rank, file)) time

let exists_commit_between t ~rank ~file t1 t2 =
  let c = first_commit_after t ~rank ~file t1 in
  c < t2

let exists_close_open_between t ~writer ~reader ~file t1 t2 =
  let close = first_close_after t ~rank:writer ~file t1 in
  if close >= t2 then false
  else begin
    (* Latest reader open before t2 must follow the writer's close. *)
    let open_ = floor_find (sorted t t.opens (reader, file)) (t2 - 1) in
    open_ > close
  end
