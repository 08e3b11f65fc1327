module Mpi = Hpcfs_mpi.Mpi

type clocked = { point : int; vc : int array }

type t = { nprocs : int; per_rank : clocked array array }

let join a b = Array.mapi (fun i x -> max x b.(i)) a

(* Atomic items the vector-clock pass processes.  A message is a send
   and a receive, matched per channel in FIFO order; the channel
   [(src, dst, tag)] is folded into one int.  A barrier or a collective
   is split into an enter item, which publishes the rank's clock into its
   invocation's join set, and an exit item, which absorbs the join of
   every participant's enter clock when the exit is ordered after all
   entries: on every rank for a barrier, an allgather or an allreduce, on
   the root only for a gather (MPI lets a non-root leave a gather before
   the root enters).  Join sets are numbered [2 * gen] for barrier
   generation [gen] and [2 * seq + 1] for collective number [seq]. *)
type item =
  | I_send of { chan : int; src : int; time : int }
  | I_recv of { chan : int; dst : int; time : int }
  | I_enter of { set : int; rank : int; time : int }
  | I_exit of { set : int; rank : int; absorb : bool; time : int }

let item_time = function
  | I_send { time; _ } | I_recv { time; _ }
  | I_enter { time; _ } | I_exit { time; _ } ->
    time

module Itbl = Hashtbl.Make (Int)

let build ~nprocs events =
  let chan ~src ~dst ~tag = (((tag * nprocs) + src) * nprocs) + dst in
  let items =
    List.concat_map
      (fun e ->
        match e with
        | Mpi.E_send { src; dst; tag; time } ->
          [ I_send { chan = chan ~src ~dst ~tag; src; time } ]
        | Mpi.E_recv { src; dst; tag; time } ->
          [ I_recv { chan = chan ~src ~dst ~tag; dst; time } ]
        | Mpi.E_barrier { rank; gen; enter; exit } ->
          let set = 2 * gen in
          [ I_enter { set; rank; time = enter };
            I_exit { set; rank; absorb = true; time = exit } ]
        | Mpi.E_coll { rank; seq; root; enter; exit; _ } ->
          let set = (2 * seq) + 1 in
          let absorb =
            match root with None -> true | Some root -> root = rank
          in
          [ I_enter { set; rank; time = enter };
            I_exit { set; rank; absorb; time = exit } ])
      events
    |> List.sort (fun a b -> Int.compare (item_time a) (item_time b))
  in
  let vcs = Array.init nprocs (fun _ -> Array.make nprocs 0) in
  let out = Array.make nprocs [] in
  let msgs : int array Queue.t Itbl.t = Itbl.create 64 in
  let enters : int array Itbl.t = Itbl.create 16 in
  let record rank point =
    out.(rank) <- { point; vc = Array.copy vcs.(rank) } :: out.(rank)
  in
  let advance rank = vcs.(rank).(rank) <- vcs.(rank).(rank) + 1 in
  List.iter
    (fun item ->
      match item with
      | I_send { chan; src; time } ->
        advance src;
        let q =
          match Itbl.find_opt msgs chan with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Itbl.add msgs chan q;
            q
        in
        Queue.push (Array.copy vcs.(src)) q;
        record src time
      | I_recv { chan; dst; time } ->
        let incoming =
          match Itbl.find_opt msgs chan with
          | Some q when not (Queue.is_empty q) -> Queue.pop q
          | Some _ | None -> Array.make nprocs 0
        in
        vcs.(dst) <- join vcs.(dst) incoming;
        advance dst;
        record dst time
      | I_enter { set; rank; time } ->
        advance rank;
        (match Itbl.find_opt enters set with
        | Some j -> Itbl.replace enters set (join j vcs.(rank))
        | None -> Itbl.add enters set (Array.copy vcs.(rank)));
        record rank time
      | I_exit { set; rank; absorb; time } ->
        (* Every enter of an invocation precedes every exit, so the join
           set is complete by the time the first exit is processed. *)
        (if absorb then
           match Itbl.find_opt enters set with
           | Some j -> vcs.(rank) <- join vcs.(rank) j
           | None -> ());
        advance rank;
        record rank time)
    items;
  { nprocs; per_rank = Array.map (fun l -> Array.of_list (List.rev l)) out }

let ordered t ~r1 ~t1 ~r2 ~t2 =
  if r1 = r2 then t1 < t2
  else if r1 < 0 || r1 >= t.nprocs || r2 < 0 || r2 >= t.nprocs then false
  else begin
    let evs1 = t.per_rank.(r1) and evs2 = t.per_rank.(r2) in
    (* First event on r1 strictly after t1. *)
    let rec first_after lo hi best =
      if lo > hi then best
      else begin
        let mid = (lo + hi) / 2 in
        if evs1.(mid).point > t1 then first_after lo (mid - 1) (Some mid)
        else first_after (mid + 1) hi best
      end
    in
    (* Last event on r2 strictly before t2. *)
    let rec last_before lo hi best =
      if lo > hi then best
      else begin
        let mid = (lo + hi) / 2 in
        if evs2.(mid).point < t2 then last_before (mid + 1) hi (Some mid)
        else last_before lo (mid - 1) best
      end
    in
    match
      ( first_after 0 (Array.length evs1 - 1) None,
        last_before 0 (Array.length evs2 - 1) None )
    with
    | Some i1, Some i2 ->
      (* r1's op at t1 precedes its (i1)-th event, whose own-component value
         is evs1.(i1).vc.(r1); r2 knows about it iff its clock caught up. *)
      evs2.(i2).vc.(r1) >= evs1.(i1).vc.(r1)
    | _ -> false
  end

let conflict_synchronized t (c : Conflict.t) =
  ordered t ~r1:c.Conflict.first.Access.rank ~t1:c.Conflict.first.Access.time
    ~r2:c.Conflict.second.Access.rank ~t2:c.Conflict.second.Access.time

let race_free t conflicts =
  List.for_all
    (fun c ->
      c.Conflict.scope = Conflict.Same || conflict_synchronized t c)
    conflicts
