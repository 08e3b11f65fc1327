(* The pre-extent-store Fdata: a flat write log repainted in full on every
   read.  Kept verbatim as the executable specification of the visibility
   semantics — the differential QCheck suite (test/test_fdata_equiv.ml)
   checks the extent store in Fdata against this model on randomized
   traces, and `bench perf readpath` measures the asymptotic gap. *)

module Interval = Hpcfs_util.Interval
module Consistency = Hpcfs_fs.Consistency

type write_rec = {
  w_rank : int;
  w_time : int;
  w_iv : Interval.t;
  w_data : bytes;
}

type t = {
  mutable writes : write_rec list; (* newest first *)
  mutable size : int;
  commits : (int, int list ref) Hashtbl.t; (* rank -> commit times, desc *)
  opens : (int, int list ref) Hashtbl.t; (* rank -> open times, desc *)
  closes : (int, int list ref) Hashtbl.t; (* rank -> close times, desc *)
  mutable laminated_at : int option;
}

let create () =
  {
    writes = [];
    size = 0;
    commits = Hashtbl.create 8;
    opens = Hashtbl.create 8;
    closes = Hashtbl.create 8;
    laminated_at = None;
  }

let size t = t.size

let push tbl rank time =
  match Hashtbl.find_opt tbl rank with
  | Some l -> l := time :: !l
  | None -> Hashtbl.add tbl rank (ref [ time ])

let times tbl rank =
  match Hashtbl.find_opt tbl rank with Some l -> !l | None -> []

(* The earliest lamination wins: a later one cannot un-publish the file. *)
let laminate t ~time =
  t.laminated_at <- Some (min time (Option.value t.laminated_at ~default:time))

let is_laminated t = t.laminated_at <> None

let write t ~rank ~time ~off data =
  if is_laminated t then invalid_arg "Fdata.write: file is laminated";
  let len = Bytes.length data in
  if len > 0 then begin
    t.writes <-
      { w_rank = rank; w_time = time; w_iv = Interval.of_len off len;
        w_data = Bytes.copy data }
      :: t.writes;
    if off + len > t.size then t.size <- off + len
  end

let truncate t ~time:_ len =
  t.writes <-
    List.filter_map
      (fun w ->
        if w.w_iv.Interval.lo >= len then None
        else if w.w_iv.Interval.hi <= len then Some w
        else begin
          let keep = len - w.w_iv.Interval.lo in
          Some
            {
              w with
              w_iv = Interval.make w.w_iv.Interval.lo len;
              w_data = Bytes.sub w.w_data 0 keep;
            }
        end)
      t.writes;
  t.size <- len

let commit t ~rank ~time = push t.commits rank time

let session_open t ~rank ~time = push t.opens rank time

let session_close t ~rank ~time =
  push t.closes rank time;
  (* A close also makes pending writes globally visible under commit
     semantics (cf. Section 3.2: "a close() call usually also has the
     effect of a commit"). *)
  push t.commits rank time

(* Does [rank] observe write [w] at [time] under [semantics]?  A process
   always sees its own writes in order (the "single process" guarantee most
   PFSs provide, Section 3.5). *)
let visible t ~semantics ~rank ~time w =
  if w.w_rank = rank then true
  else if
    (* Lamination publishes every write to every reader. *)
    match t.laminated_at with Some tl -> tl <= time | None -> false
  then true
  else
    match (semantics : Consistency.t) with
    | Strong -> true
    | Commit ->
      List.exists
        (fun tc -> w.w_time < tc && tc <= time)
        (times t.commits w.w_rank)
    | Session ->
      let closes = times t.closes w.w_rank in
      let opens = times t.opens rank in
      List.exists
        (fun tc ->
          w.w_time < tc
          && List.exists (fun topen -> tc < topen && topen <= time) opens)
        closes
    | Eventual { delay } -> w.w_time + delay <= time

type read_result = { data : bytes; stale_bytes : int }

(* When a write becomes effective from this reader's point of view.  Under
   the relaxed models, a remote write only takes effect when the operation
   that published it executes (the writer's commit or close), so two
   overlapping writes can take effect in an order different from their
   issue order — the write-after-write hazard the paper's analysis hunts
   for.  A process's own writes are always effective at issue time. *)
let effective_time t ~semantics ~rank w =
  if w.w_rank = rank then w.w_time
  else if
    match t.laminated_at with Some _ -> true | None -> false
  then w.w_time
  else begin
    let first_after times =
      List.fold_left
        (fun best tc -> if tc > w.w_time && tc < best then tc else best)
        max_int times
    in
    match (semantics : Consistency.t) with
    | Strong -> w.w_time
    | Commit -> first_after (times t.commits w.w_rank)
    | Session -> first_after (times t.closes w.w_rank)
    | Eventual { delay } -> w.w_time + delay
  end

(* Crash consistency ------------------------------------------------------ *)

type crash_stats = {
  lost_writes : int;
  lost_bytes : int;
  torn_writes : int;
  torn_bytes : int;
}

let no_crash_stats =
  { lost_writes = 0; lost_bytes = 0; torn_writes = 0; torn_bytes = 0 }

let add_crash_stats a b =
  {
    lost_writes = a.lost_writes + b.lost_writes;
    lost_bytes = a.lost_bytes + b.lost_bytes;
    torn_writes = a.torn_writes + b.torn_writes;
    torn_bytes = a.torn_bytes + b.torn_bytes;
  }

(* Is write [w] durable at crash time [time] under [semantics]?  This mirrors
   [visible], but asks about persistence rather than visibility: under the
   relaxed models a write only reaches stable storage when the operation
   that publishes it executes (the writer's commit, close, or — for
   eventual consistency — the background propagation), so a crash loses
   exactly the writes whose publishing operation had not yet happened
   (Wang, Mohror & Snir, "Formal Definitions and Performance Comparison of
   Consistency Models for Parallel File Systems"). *)
let persisted t ~semantics ~time w =
  (match t.laminated_at with Some tl -> tl <= time | None -> false)
  ||
  match (semantics : Consistency.t) with
  | Strong -> w.w_time < time
  | Commit ->
    List.exists (fun tc -> w.w_time < tc && tc <= time) (times t.commits w.w_rank)
  | Session ->
    List.exists (fun tc -> w.w_time < tc && tc <= time) (times t.closes w.w_rank)
  | Eventual { delay } -> w.w_time + delay <= time

let crash t ~semantics ~time ~stripe_size ~keep_stripes =
  let stats = ref no_crash_stats in
  (* Per rank, the newest unpersisted write is the one possibly in flight at
     the crash instant: it tears at a stripe boundary — a prefix of whole
     stripes survives — while every older unpersisted write is lost
     outright. *)
  let newest_pending = Hashtbl.create 8 in
  List.iter
    (fun w ->
      if not (persisted t ~semantics ~time w) then
        match Hashtbl.find_opt newest_pending w.w_rank with
        | Some n when n.w_time >= w.w_time -> ()
        | _ -> Hashtbl.replace newest_pending w.w_rank w)
    t.writes;
  let tear w =
    let lo = w.w_iv.Interval.lo and hi = w.w_iv.Interval.hi in
    let first_boundary = ((lo / stripe_size) + 1) * stripe_size in
    let boundaries = ref [] in
    let b = ref first_boundary in
    while !b < hi do
      boundaries := !b :: !boundaries;
      b := !b + stripe_size
    done;
    let cuts = Array.of_list (List.rev !boundaries) in
    (* [total] stripe pieces; keep a prefix of [k] of them. *)
    let total = Array.length cuts + 1 in
    let k = max 0 (min total (keep_stripes ~total)) in
    let size = Interval.length w.w_iv in
    if k = total then begin
      (* The transfer completed just before the crash. *)
      stats :=
        add_crash_stats !stats
          { no_crash_stats with torn_writes = 1; torn_bytes = size };
      Some w
    end
    else if k = 0 then begin
      stats :=
        add_crash_stats !stats
          { no_crash_stats with lost_writes = 1; lost_bytes = size };
      None
    end
    else begin
      let keep_hi = cuts.(k - 1) in
      let kept = keep_hi - lo in
      stats :=
        add_crash_stats !stats
          {
            lost_writes = 0;
            lost_bytes = size - kept;
            torn_writes = 1;
            torn_bytes = kept;
          };
      Some
        {
          w with
          w_iv = Interval.make lo keep_hi;
          w_data = Bytes.sub w.w_data 0 kept;
        }
    end
  in
  t.writes <-
    List.filter_map
      (fun w ->
        if persisted t ~semantics ~time w then Some w
        else if
          match Hashtbl.find_opt newest_pending w.w_rank with
          | Some n -> n == w
          | None -> false
        then tear w
        else begin
          stats :=
            add_crash_stats !stats
              {
                no_crash_stats with
                lost_writes = 1;
                lost_bytes = Interval.length w.w_iv;
              };
          None
        end)
      t.writes;
  !stats

let read ?(local_order = true) t ~semantics ~rank ~time ~off ~len =
  let len = max 0 (min len (max 0 (t.size - off))) in
  let req = Interval.of_len off len in
  let data = Bytes.make len '\000' in
  (* Identity of the write that paints each byte, computed twice: once in
     issue order over all writes (what a strongly-consistent PFS returns)
     and once in effective order over the visible writes (what this reader
     observes).  A byte is stale when the two disagree — either because its
     newest write is not yet visible, or because visibility reordered
     overlapping writes. *)
  let vis_seq = Array.make len (-1) in
  let any_seq = Array.make len (-1) in
  let paint seq_arr ?into seq w =
    match Interval.intersect req w.w_iv with
    | None -> ()
    | Some inter ->
      let src_pos = inter.Interval.lo - w.w_iv.Interval.lo in
      let dst_pos = inter.Interval.lo - off in
      let n = Interval.length inter in
      (match into with
      | Some buf -> Bytes.blit w.w_data src_pos buf dst_pos n
      | None -> ());
      Array.fill seq_arr dst_pos n seq
  in
  let ordered = List.rev t.writes in
  List.iteri (fun seq w -> paint any_seq seq w) ordered;
  let visible_writes =
    List.mapi (fun seq w -> (seq, w)) ordered
    |> List.filter (fun (_, w) -> visible t ~semantics ~rank ~time w)
  in
  let keyed =
    List.map
      (fun (seq, w) ->
        if local_order then
          (effective_time t ~semantics ~rank w, w.w_time, seq, w)
        else begin
          (* BurstFS mode: no single-process ordering.  Writes published by
             the same operation tie on effective time; break the tie in
             reverse issue order — a legal, adversarial outcome. *)
          let eff = effective_time t ~semantics ~rank:(-2) w in
          (eff, -w.w_time, -seq, w)
        end)
      visible_writes
  in
  let sorted = List.sort compare keyed in
  List.iter (fun (_, _, seq, w) -> paint vis_seq ~into:data seq w) sorted;
  let stale = ref 0 in
  for i = 0 to len - 1 do
    if any_seq.(i) <> vis_seq.(i) then incr stale
  done;
  { data; stale_bytes = !stale }

let write_count t = List.length t.writes
