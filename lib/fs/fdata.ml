(* Per-file data as an incremental extent store.

   The old implementation (kept as {!Fdata_ref}) repainted the entire write
   log on every read: O(history) per read, the wall checkpoint-heavy
   workloads hit.  This version keeps the log but never walks it on the
   common read path.  Three always-current segment indexes answer reads in
   O(log E + bytes):

   - [oracle]: per byte, the newest write in *insertion* order — the
     identity a strongly-consistent PFS would return, used for staleness
     accounting;
   - [strong]: per byte, the winning write under strong-consistency
     ordering (max (w_time, seq)), which also serves laminated files;
   - per-engine *base* caches: a settled byte buffer plus segment index
     holding everything already published under that engine, folded in
     effective-time (epoch) order as publishing events arrive — the
     UnifyFS/BurstFS shape, where a server-side extent index over write
     segments replaces the client's log walk.

   Publishing events (commit, close, eventual-delay expiry) trigger epoch
   compaction: the writer's newly-published writes fold into the base in
   (publish_time, issue_time, seq) order.  A read then copies the base
   range and overlays the reader's few still-pending visible extents.

   Bit-for-bit equivalence with the reference model is preserved by
   construction where the fast path applies, and by falling back to the
   (also-accelerated) log walk everywhere it does not: non-monotone clocks,
   BurstFS mode (local_order = false), session readers in stale sessions,
   and readers whose own writes overlap other ranks' (where the
   single-process guarantee reorders the settled fold).  The differential
   QCheck suite in test/test_fdata_equiv.ml drives both implementations
   through randomized interleavings under all four engines. *)

module Interval = Hpcfs_util.Interval
module Extmap = Hpcfs_util.Extmap
module Obs = Hpcfs_obs.Obs
module Domctx = Hpcfs_util.Domctx

let unpublished = max_int

type write_rec = {
  mutable w_seq : int;
      (* insertion index; stable identity.  Mutable only for the
         superstep-boundary canonicalization of domain-parallel runs,
         which re-sorts the log into a schedule-independent order and
         renumbers it. *)
  w_rank : int;
  w_time : int;
  mutable w_iv : Interval.t;
  mutable w_data : bytes;
  mutable w_live : bool;  (* false once dropped by truncate/crash *)
  mutable pub_commit : int;
      (* first commit by w_rank after w_time; [unpublished] if none yet *)
  mutable pub_close : int;  (* likewise for closes *)
}

(* Ascending event times of one rank (commits, closes or opens). *)
type evlist = { mutable ev : int array; mutable n : int }

let evlist () = { ev = Array.make 4 0; n = 0 }

let ev_push l time =
  if l.n = Array.length l.ev then begin
    let a = Array.make (2 * l.n) 0 in
    Array.blit l.ev 0 a 0 l.n;
    l.ev <- a
  end;
  if l.n > 0 && time < l.ev.(l.n - 1) then begin
    (* Out-of-order event: insert sorted and report the anomaly. *)
    let i = ref l.n in
    while !i > 0 && l.ev.(!i - 1) > time do
      l.ev.(!i) <- l.ev.(!i - 1);
      decr i
    done;
    l.ev.(!i) <- time;
    l.n <- l.n + 1;
    false
  end
  else begin
    l.ev.(l.n) <- time;
    l.n <- l.n + 1;
    true
  end

(* Smallest event strictly greater than [time], or [unpublished]. *)
let ev_first_after l time =
  let lo = ref 0 and hi = ref l.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if l.ev.(mid) > time then hi := mid else lo := mid + 1
  done;
  if !lo < l.n then l.ev.(!lo) else unpublished

(* Is there an event in (after, upto]? *)
let ev_exists_in l ~after ~upto =
  after < upto &&
  let first = ev_first_after l after in
  first <> unpublished && first <= upto

(* Per-engine settled cache.  [c_base] holds the bytes published under the
   engine, folded in effective-time order up to [c_folded_pub];
   [c_base_seq] records which write owns each settled byte.  For the
   Eventual engine, writes whose delay has not expired by the event-clock
   watermark wait in [c_pending] (ascending publish time). *)
type mode = M_commit | M_session | M_eventual of int

type cache = {
  c_mode : mode;
  mutable c_valid : bool;
  mutable c_base : bytes;
  mutable c_base_len : int;
  mutable c_base_seq : int Extmap.t;
  mutable c_folded_pub : int;  (* min_int when nothing folded *)
  mutable c_pending : write_rec list;  (* Eventual only; ascending pub *)
  mutable c_pend_pub : int;  (* publish time of the last queued pending *)
}

type t = {
  mutable log : write_rec array;
  mutable log_n : int;
  mutable live : int;  (* live writes in the log *)
  mutable size : int;
  commits : (int, evlist) Hashtbl.t;
  closes : (int, evlist) Hashtbl.t;
  opens : (int, evlist) Hashtbl.t;
  mutable laminated_at : int option;
  (* Segment indexes (rebuilt wholesale after truncate/crash). *)
  mutable oracle : int Extmap.t;  (* insertion-order winner (seq) *)
  mutable strong : int Extmap.t;  (* strong-order winner (seq) *)
  mutable writers : int Extmap.t;  (* owning rank, or [multi_writer] *)
  mutable multi_ranges : bool;  (* any multi-writer segment exists *)
  writer_set : (int, unit) Hashtbl.t;  (* ranks that ever wrote *)
  (* Unpublished writes per rank, ascending (w_time, seq); the "pending
     overlay" of the reader's own extents, and the candidate set crash
     reconciliation walks instead of the full log. *)
  unpub_commit : (int, write_rec list ref) Hashtbl.t;
  unpub_close : (int, write_rec list ref) Hashtbl.t;
  mutable caches : cache list;
  mutable watermark : int;  (* max event/write time seen (event clock) *)
  mutable monotonic : bool;  (* event clock never went backwards *)
  (* Domain-parallel state: the per-file lock every public operation
     takes while Domctx.parallel, and same-superstep multi-rank write
     detection driving the boundary canonicalization. *)
  fd_mu : Mutex.t;
  mutable epoch : int;  (* superstep of the last parallel write *)
  mutable epoch_rank : int;  (* its writer; -2 once two ranks collide *)
  mutable dirty : bool;  (* canonicalization scheduled at the boundary *)
}

let multi_writer = min_int

let dummy_write =
  {
    w_seq = -1;
    w_rank = -1;
    w_time = 0;
    w_iv = Interval.make 0 0;
    w_data = Bytes.empty;
    w_live = false;
    pub_commit = 0;
    pub_close = 0;
  }

let create () =
  {
    log = Array.make 16 dummy_write;
    log_n = 0;
    live = 0;
    size = 0;
    commits = Hashtbl.create 8;
    closes = Hashtbl.create 8;
    opens = Hashtbl.create 8;
    laminated_at = None;
    oracle = Extmap.empty;
    strong = Extmap.empty;
    writers = Extmap.empty;
    multi_ranges = false;
    writer_set = Hashtbl.create 8;
    unpub_commit = Hashtbl.create 8;
    unpub_close = Hashtbl.create 8;
    caches = [];
    watermark = min_int;
    monotonic = true;
    fd_mu = Mutex.create ();
    epoch = -1;
    epoch_rank = -1;
    dirty = false;
  }

let size t = t.size

let write_count t = t.live

let evl tbl rank =
  match Hashtbl.find_opt tbl rank with
  | Some l -> l
  | None ->
    let l = evlist () in
    Hashtbl.add tbl rank l;
    l

let laminate t ~time = t.laminated_at <- Some time

let is_laminated t = t.laminated_at <> None

(* Strong-order comparison between two writes: (w_time, seq). *)
let strong_wins t a_seq b_seq =
  let a = t.log.(a_seq) and b = t.log.(b_seq) in
  compare (a.w_time, a.w_seq) (b.w_time, b.w_seq) > 0

let invalidate_caches t = List.iter (fun c -> c.c_valid <- false) t.caches

(* The watermark is the max event/write time ever seen.  Writes arriving
   with old timestamps (burst-buffer drains replaying staged extents) are
   handled precisely at insert; only out-of-order *publishing events*
   (commits/closes, flagged by [ev_push]) force pub recomputation. *)
let bump_watermark t time = if time > t.watermark then t.watermark <- time

(* Insert one write into the always-on indexes. *)
let index_write t w =
  Hashtbl.replace t.writer_set w.w_rank ();
  t.oracle <- Extmap.set w.w_iv w.w_seq t.oracle;
  t.strong <-
    Extmap.set_max ~wins:(fun old _ -> not (strong_wins t w.w_seq old))
      w.w_iv w.w_seq t.strong;
  let pieces = Extmap.query w.w_iv t.writers in
  let covered =
    List.fold_left (fun n (iv, _) -> n + Interval.length iv) 0 pieces
  in
  List.iter
    (fun (iv, r) ->
      if r <> w.w_rank && r <> multi_writer then begin
        t.writers <- Extmap.set iv multi_writer t.writers;
        t.multi_ranges <- true
      end)
    pieces;
  if covered < Interval.length w.w_iv then
    (* Claim the gaps (and re-claiming owned pieces is harmless): write the
       rank everywhere no other rank already owns the bytes. *)
    t.writers <-
      Extmap.set_max
        ~wins:(fun old _ -> old <> w.w_rank)
        w.w_iv w.w_rank t.writers

(* Sorted insert into an unpublished list, ascending (w_time, seq).  The
   common case appends at the tail (monotone clock), so walk from the
   head is fine for the short per-rank pending lists. *)
let unpub_insert lref w =
  let rec ins = function
    | [] -> [ w ]
    | x :: rest as l ->
      if (x.w_time, x.w_seq) <= (w.w_time, w.w_seq) then x :: ins rest
      else w :: l
  in
  lref := ins !lref

let unpub tbl rank =
  match Hashtbl.find_opt tbl rank with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add tbl rank l;
    l

(* Grow a cache's base buffer to cover [hi] bytes. *)
let base_reserve c hi =
  if hi > Bytes.length c.c_base then begin
    let cap = max hi (max 64 (2 * Bytes.length c.c_base)) in
    let b = Bytes.make cap '\000' in
    Bytes.blit c.c_base 0 b 0 c.c_base_len;
    c.c_base <- b
  end;
  if hi > c.c_base_len then c.c_base_len <- hi

(* Fold one write into a settled base (already clipped to the file by
   construction; truncation rebuilds caches wholesale). *)
let base_paint c w =
  let lo = w.w_iv.Interval.lo and hi = w.w_iv.Interval.hi in
  if hi > lo then begin
    base_reserve c hi;
    Bytes.blit w.w_data 0 c.c_base lo (hi - lo);
    c.c_base_seq <- Extmap.set w.w_iv w.w_seq c.c_base_seq
  end

(* Epoch compaction: fold writes newly published at [pub] into the base.
   [ws] arrives ascending (w_time, seq) — the in-epoch effective order.
   Publishing at or before the previous fold means two epochs would have
   to interleave, which a flat buffer cannot express: invalidate and let
   the next read rebuild in globally sorted order. *)
let fold_epoch c ~pub ws =
  if ws <> [] then begin
    if pub <= c.c_folded_pub then c.c_valid <- false
    else begin
      List.iter (fun w -> base_paint c w) ws;
      c.c_folded_pub <- pub;
      if Obs.enabled () then begin
        Obs.incr "fs.extent.compactions";
        Obs.incr
          ~by:(List.fold_left (fun n w -> n + Interval.length w.w_iv) 0 ws)
          "fs.extent.compacted_bytes"
      end
    end
  end

(* Writes of [rank] published by an event at [time]: pop the (w_time <
   time) prefix of the rank's pending list, stamp their publish time, and
   compact them into every matching cache. *)
let publish t ~kind ~rank ~time =
  let tbl = match kind with `Commit -> t.unpub_commit | `Close -> t.unpub_close in
  let lref = unpub tbl rank in
  let rec split acc = function
    | w :: rest when w.w_time < time -> split (w :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let published, pending = split [] !lref in
  lref := pending;
  List.iter
    (fun w ->
      match kind with
      | `Commit -> w.pub_commit <- time
      | `Close -> w.pub_close <- time)
    published;
  if published <> [] then
    List.iter
      (fun c ->
        if c.c_valid then
          match (c.c_mode, kind) with
          | M_commit, `Commit | M_session, `Close ->
            fold_epoch c ~pub:time published
          | _ -> ())
      t.caches

(* Advance every Eventual cache to the event-clock watermark: pending
   writes whose delay expired fold in, in publish order. *)
let fold_eventual t =
  List.iter
    (fun c ->
      match c.c_mode with
      | M_eventual delay when c.c_valid ->
        (* Fold runs of equal publish time as one epoch (several ranks
           writing in the same tick expire together). *)
        let rec go = function
          | w :: rest when w.w_time + delay <= t.watermark ->
            let pub = w.w_time + delay in
            let rec take acc = function
              | x :: r when x.w_time + delay = pub -> take (x :: acc) r
              | r -> (List.rev acc, r)
            in
            let batch, rest' = take [ w ] rest in
            fold_epoch c ~pub batch;
            go rest'
          | rest -> c.c_pending <- rest
        in
        go c.c_pending
      | _ -> ())
    t.caches

(* Forward reference: canonicalization needs [reindex], defined with the
   truncate/crash machinery below; [write] only ever schedules it. *)
let canonicalize_ref : (t -> unit) ref = ref (fun _ -> ())

(* Same-superstep multi-rank write detection.  Called under the file
   lock; schedules a boundary canonicalization exactly once per dirty
   superstep (see [canonicalize] below). *)
let note_parallel_write t ~rank =
  if Domctx.parallel () then begin
    let ss = Domctx.superstep () in
    if t.epoch <> ss then begin
      t.epoch <- ss;
      t.epoch_rank <- rank
    end
    else if t.epoch_rank <> rank && t.epoch_rank <> -2 then begin
      t.epoch_rank <- -2;
      if not t.dirty then begin
        t.dirty <- true;
        Domctx.at_boundary (fun () -> !canonicalize_ref t)
      end
    end
  end

let write t ~rank ~time ~off data =
  if is_laminated t then invalid_arg "Fdata.write: file is laminated";
  let len = Bytes.length data in
  if len > 0 then begin
    bump_watermark t time;
    note_parallel_write t ~rank;
    let w =
      {
        w_seq = t.log_n;
        w_rank = rank;
        w_time = time;
        w_iv = Interval.of_len off len;
        w_data = Bytes.copy data;
        w_live = true;
        pub_commit = ev_first_after (evl t.commits rank) time;
        pub_close = ev_first_after (evl t.closes rank) time;
      }
    in
    if t.log_n = Array.length t.log then begin
      let a = Array.make (2 * t.log_n) w in
      Array.blit t.log 0 a 0 t.log_n;
      t.log <- a
    end;
    t.log.(t.log_n) <- w;
    t.log_n <- t.log_n + 1;
    t.live <- t.live + 1;
    index_write t w;
    (* A write already published on arrival (its rank committed at a later
       timestamp before this record was inserted — e.g. a burst-buffer
       drain replaying an old extent) would have to fold into the middle
       of a settled base: invalidate the affected caches instead. *)
    List.iter
      (fun c ->
        if c.c_valid then
          match c.c_mode with
          | M_commit ->
            if w.pub_commit <> unpublished then c.c_valid <- false
          | M_session ->
            if w.pub_close <> unpublished then c.c_valid <- false
          | M_eventual delay ->
            let pub = w.w_time + delay in
            (* The pending queue must stay ascending in publish time; an
               out-of-order arrival (old-timestamped replay) falls back to
               a rebuild, as does one that would fold mid-base. *)
            if pub <= c.c_folded_pub then c.c_valid <- false
            else if c.c_pending <> [] && pub < c.c_pend_pub then
              c.c_valid <- false
            else begin
              c.c_pending <- c.c_pending @ [ w ];
              c.c_pend_pub <- pub
            end)
      t.caches;
    if w.pub_commit = unpublished then
      unpub_insert (unpub t.unpub_commit rank) w;
    if w.pub_close = unpublished then
      unpub_insert (unpub t.unpub_close rank) w;
    if off + len > t.size then t.size <- off + len;
    fold_eventual t
  end

let commit t ~rank ~time =
  bump_watermark t time;
  if not (ev_push (evl t.commits rank) time) then begin
    t.monotonic <- false;
    invalidate_caches t
  end
  else publish t ~kind:`Commit ~rank ~time;
  fold_eventual t

let session_open t ~rank ~time =
  bump_watermark t time;
  ignore (ev_push (evl t.opens rank) time);
  fold_eventual t

let session_close t ~rank ~time =
  bump_watermark t time;
  if not (ev_push (evl t.closes rank) time) then begin
    t.monotonic <- false;
    invalidate_caches t
  end
  else publish t ~kind:`Close ~rank ~time;
  (* A close also publishes under commit semantics (cf. Section 3.2: "a
     close() call usually also has the effect of a commit"). *)
  if not (ev_push (evl t.commits rank) time) then begin
    t.monotonic <- false;
    invalidate_caches t
  end
  else publish t ~kind:`Commit ~rank ~time;
  fold_eventual t

(* Publish time of [w] under [semantics]; [unpublished] when the
   publishing operation has not happened. *)
let pub_time ~semantics w =
  match (semantics : Consistency.t) with
  | Strong -> w.w_time
  | Commit -> w.pub_commit
  | Session -> w.pub_close
  | Eventual { delay } -> w.w_time + delay

(* Does [rank] observe write [w] at [time]?  Mirrors the reference model:
   own writes always; lamination publishes everything once reached;
   session readers additionally need an open after the writer's close. *)
let visible t ~semantics ~rank ~time w =
  w.w_rank = rank
  || (match t.laminated_at with Some tl -> tl <= time | None -> false)
  ||
  match (semantics : Consistency.t) with
  | Strong -> true
  | Commit -> w.pub_commit <= time
  | Session ->
    w.pub_close <> unpublished
    && ev_exists_in (evl t.opens rank) ~after:w.pub_close ~upto:time
  | Eventual _ -> pub_time ~semantics w <= time

(* When [w] takes effect from this reader's point of view: own writes at
   issue time; laminated files restore issue order; otherwise the publish
   time. *)
let effective_time t ~semantics ~rank w =
  if w.w_rank = rank then w.w_time
  else if t.laminated_at <> None then w.w_time
  else pub_time ~semantics w

type read_result = { data : bytes; stale_bytes : int }

(* Full pub-field recomputation, for histories whose event clock went
   backwards (the reference model allows it, so we must too). *)
let recompute_pubs t =
  Hashtbl.reset t.unpub_commit;
  Hashtbl.reset t.unpub_close;
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then begin
      w.pub_commit <- ev_first_after (evl t.commits w.w_rank) w.w_time;
      w.pub_close <- ev_first_after (evl t.closes w.w_rank) w.w_time;
      if w.pub_commit = unpublished then
        unpub_insert (unpub t.unpub_commit w.w_rank) w;
      if w.pub_close = unpublished then
        unpub_insert (unpub t.unpub_close w.w_rank) w
    end
  done;
  t.monotonic <- true

(* Rebuild every index from the live log (after truncate/crash). *)
let reindex t =
  t.oracle <- Extmap.empty;
  t.strong <- Extmap.empty;
  t.writers <- Extmap.empty;
  t.multi_ranges <- false;
  Hashtbl.reset t.writer_set;
  recompute_pubs t;
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then index_write t w
  done;
  invalidate_caches t;
  if Obs.enabled () then Obs.incr "fs.extent.reindexes"

(* Superstep-boundary canonicalization for domain-parallel runs: when two
   or more ranks wrote this file inside one superstep, their log arrival
   order depends on domain scheduling.  Re-sort the whole log by
   (w_time, w_rank, lo, hi) — a total order: ticks are unique per rank,
   and same-tick records (one striped op split into pieces) have disjoint
   intervals — renumber w_seq, and rebuild every index.  Runs
   single-threaded at the boundary; afterwards all derived state is
   independent of how the superstep's writes interleaved. *)
let canonicalize t =
  let sub = Array.sub t.log 0 t.log_n in
  Array.sort
    (fun a b ->
      compare
        (a.w_time, a.w_rank, a.w_iv.Interval.lo, a.w_iv.Interval.hi)
        (b.w_time, b.w_rank, b.w_iv.Interval.lo, b.w_iv.Interval.hi))
    sub;
  Array.blit sub 0 t.log 0 t.log_n;
  for i = 0 to t.log_n - 1 do
    t.log.(i).w_seq <- i
  done;
  reindex t;
  t.dirty <- false;
  if Obs.enabled () then Obs.incr "fs.extent.canonicalizations"

let () = canonicalize_ref := canonicalize

let truncate t ~time:_ len =
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then
      if w.w_iv.Interval.lo >= len then begin
        w.w_live <- false;
        t.live <- t.live - 1
      end
      else if w.w_iv.Interval.hi > len then begin
        let keep = len - w.w_iv.Interval.lo in
        w.w_iv <- Interval.make w.w_iv.Interval.lo len;
        w.w_data <- Bytes.sub w.w_data 0 keep
      end
  done;
  t.size <- len;
  reindex t

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

(* Is [w] durable at crash time [time]?  The engine's durability rule: a
   write persists once the operation that publishes it has executed. *)
let persisted t ~semantics ~time w =
  (match t.laminated_at with Some tl -> tl <= time | None -> false)
  ||
  match (semantics : Consistency.t) with
  | Strong -> w.w_time < time
  | Commit -> w.pub_commit <= time
  | Session -> w.pub_close <= time
  | Eventual _ -> pub_time ~semantics w <= time

(* {!persisted}'s rule for a copy of a write kept outside the log (a
   client journal's or a host-side log's): the publishing event is looked
   up in the rank's commit and close history. *)
let settled t ~semantics ~rank ~issued ~time =
  let published tbl =
    match Hashtbl.find_opt tbl rank with
    | Some l -> ev_first_after l issued <= time
    | None -> false
  in
  (match t.laminated_at with Some tl -> tl <= time | None -> false)
  ||
  match (semantics : Consistency.t) with
  | Strong -> issued < time
  | Commit -> published t.commits
  | Session -> published t.closes
  | Eventual { delay } -> issued + delay <= time

(* The candidate non-durable writes, walked instead of the full log when
   the engine's pending index is exact: under commit/session semantics on
   a monotone clock, every publish time ever assigned is <= the crash
   time, so the non-persisted writes are exactly the unpublished lists. *)
let crash_candidates t ~semantics ~time =
  let pending_of tbl =
    Hashtbl.fold (fun _ l acc -> List.rev_append !l acc) tbl []
    |> List.filter (fun w -> w.w_live)
    |> List.sort (fun a b -> compare a.w_seq b.w_seq)
  in
  match (semantics : Consistency.t) with
  | Commit when t.monotonic && time >= t.watermark ->
    Some (pending_of t.unpub_commit)
  | Session when t.monotonic && time >= t.watermark ->
    Some (pending_of t.unpub_close)
  | _ -> None

let crash t ~semantics ~time ~stripe_size ~keep_stripes =
  if not t.monotonic then recompute_pubs t;
  let stats = ref no_crash_stats in
  let lam_all =
    match t.laminated_at with Some tl -> tl <= time | None -> false
  in
  (* Per rank, the newest unpersisted write is possibly in flight at the
     crash instant: it tears at a stripe boundary, while every older
     unpersisted write is lost outright. *)
  let pending =
    if lam_all then []
    else
      match crash_candidates t ~semantics ~time with
      | Some ws -> List.filter (fun w -> not (persisted t ~semantics ~time w)) ws
      | None ->
        let acc = ref [] in
        for i = t.log_n - 1 downto 0 do
          let w = t.log.(i) in
          if w.w_live && not (persisted t ~semantics ~time w) then
            acc := w :: !acc
        done;
        !acc
  in
  (* [pending] is ascending in seq; scanning it forward with ties replacing
     keeps the max-(w_time, seq) write per rank — the same winner the
     reference model's newest-first scan picks. *)
  let newest_pending = Hashtbl.create 8 in
  List.iter
    (fun w ->
      match Hashtbl.find_opt newest_pending w.w_rank with
      | Some n when n.w_time > w.w_time -> ()
      | _ -> Hashtbl.replace newest_pending w.w_rank w)
    pending;
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
    let total = Array.length cuts + 1 in
    let k = max 0 (min total (keep_stripes ~total)) in
    let size = Interval.length w.w_iv in
    if k = total then
      stats :=
        add_crash_stats !stats
          { no_crash_stats with torn_writes = 1; torn_bytes = size }
    else if k = 0 then begin
      stats :=
        add_crash_stats !stats
          { no_crash_stats with lost_writes = 1; lost_bytes = size };
      w.w_live <- false;
      t.live <- t.live - 1
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
      w.w_iv <- Interval.make lo keep_hi;
      w.w_data <- Bytes.sub w.w_data 0 kept
    end
  in
  (* The reference model tears in newest-first log order; preserve it so
     seeded keep_stripes draws land on the same writes. *)
  List.iter
    (fun w ->
      match Hashtbl.find_opt newest_pending w.w_rank with
      | Some n when n == w -> tear w
      | _ ->
        stats :=
          add_crash_stats !stats
            {
              no_crash_stats with
              lost_writes = 1;
              lost_bytes = Interval.length w.w_iv;
            };
        w.w_live <- false;
        t.live <- t.live - 1)
    (List.rev pending);
  if pending <> [] then reindex t;
  !stats

(* Insert a raw record carrying a surviving piece of a torn write: original
   rank and issue time, fresh seq.  Callers must [reindex] afterwards. *)
let append_raw t ~rank ~time iv data =
  let w =
    {
      w_seq = t.log_n;
      w_rank = rank;
      w_time = time;
      w_iv = iv;
      w_data = data;
      w_live = true;
      pub_commit = ev_first_after (evl t.commits rank) time;
      pub_close = ev_first_after (evl t.closes rank) time;
    }
  in
  if t.log_n = Array.length t.log then begin
    let a = Array.make (2 * t.log_n) w in
    Array.blit t.log 0 a 0 t.log_n;
    t.log <- a
  end;
  t.log.(t.log_n) <- w;
  t.log_n <- t.log_n + 1;
  t.live <- t.live + 1

let crash_target t ~semantics ~time ~stripe_size ~server_count ~target =
  if not t.monotonic then recompute_pubs t;
  let lam_all =
    match t.laminated_at with Some tl -> tl <= time | None -> false
  in
  if lam_all then (no_crash_stats, [])
  else begin
    let stats = ref no_crash_stats in
    let ranks = Hashtbl.create 8 in
    let appended = ref [] in
    let changed = ref false in
    let n = t.log_n in
    for i = 0 to n - 1 do
      let w = t.log.(i) in
      if w.w_live && not (persisted t ~semantics ~time w) then begin
        (* Partition the extent into stripe chunks, dropping those whose
           chunk lands on the failed target and merging the contiguous
           survivors.  All [Bytes.sub] pieces are taken before any
           mutation of [w]. *)
        let iv = w.w_iv and data = w.w_data in
        let lo0 = iv.Interval.lo in
        let kept = ref [] and dropped = ref 0 in
        let pos = ref lo0 in
        while !pos < iv.Interval.hi do
          let next =
            min iv.Interval.hi (((!pos / stripe_size) + 1) * stripe_size)
          in
          let len = next - !pos in
          if !pos / stripe_size mod server_count = target then
            dropped := !dropped + len
          else begin
            match !kept with
            | (piv, pdata) :: rest when piv.Interval.hi = !pos ->
              kept :=
                ( Interval.make piv.Interval.lo next,
                  Bytes.cat pdata (Bytes.sub data (!pos - lo0) len) )
                :: rest
            | _ ->
              kept :=
                (Interval.make !pos next, Bytes.sub data (!pos - lo0) len)
                :: !kept
          end;
          pos := next
        done;
        if !dropped > 0 then begin
          changed := true;
          Hashtbl.replace ranks w.w_rank ();
          match List.rev !kept with
          | [] ->
            stats :=
              add_crash_stats !stats
                {
                  no_crash_stats with
                  lost_writes = 1;
                  lost_bytes = Interval.length iv;
                };
            w.w_live <- false;
            t.live <- t.live - 1
          | (fiv, fdata) :: rest ->
            stats :=
              add_crash_stats !stats
                {
                  lost_writes = 0;
                  lost_bytes = !dropped;
                  torn_writes = 1;
                  torn_bytes = Interval.length iv - !dropped;
                };
            w.w_iv <- fiv;
            w.w_data <- fdata;
            List.iter
              (fun (piv, pdata) ->
                appended := (w.w_rank, w.w_time, piv, pdata) :: !appended)
              rest
        end
      end
    done;
    List.iter
      (fun (rank, time, iv, data) -> append_raw t ~rank ~time iv data)
      (List.rev !appended);
    if !changed then reindex t;
    let affected =
      List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) ranks [])
    in
    (!stats, affected)
  end

(* Reads ------------------------------------------------------------------ *)

(* Count bytes where the issue-order winner differs from the visible
   winner, walking the two clipped segment lists in one pass. *)
let stale_between req oracle_pieces vis_pieces =
  let lo = req.Interval.lo and hi = req.Interval.hi in
  let stale = ref 0 in
  let ap = ref oracle_pieces and vp = ref vis_pieces in
  let pos = ref lo in
  let seg_at pieces pos =
    (* Value covering [pos] (if any) and the next boundary after [pos]. *)
    match pieces with
    | [] -> (None, hi)
    | (iv, v) :: _ ->
      if iv.Interval.lo > pos then (None, iv.Interval.lo)
      else (Some v, iv.Interval.hi)
  in
  let rec advance pieces pos =
    match pieces with
    | (iv, _) :: rest when iv.Interval.hi <= pos -> advance rest pos
    | l -> l
  in
  while !pos < hi do
    ap := advance !ap !pos;
    vp := advance !vp !pos;
    let a, abound = seg_at !ap !pos in
    let v, vbound = seg_at !vp !pos in
    let next = min hi (min abound vbound) in
    if a <> v then stale := !stale + (next - !pos);
    pos := next
  done;
  !stale

(* The reference algorithm over the live log, with O(1)/O(log) visibility
   and effective-time lookups instead of list scans.  Used for every case
   the settled caches cannot express; also the bit-for-bit specification
   the fast path must match. *)
let read_slow t ~local_order ~semantics ~rank ~time ~off ~len =
  if Obs.enabled () then Obs.incr "fs.extent.slow_reads";
  if not t.monotonic then recompute_pubs t;
  let req = Interval.of_len off len in
  let data = Bytes.make len '\000' in
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
  (* Identities are positions among *surviving* writes, renumbered like the
     reference model's list (truncate/crash compact it); under
     local_order:false only position 0 can ever match its negation. *)
  let keyed = ref [] in
  let live_i = ref (-1) in
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then begin
      incr live_i;
      let s = !live_i in
      paint any_seq s w;
      if visible t ~semantics ~rank ~time w then
        let key =
          if local_order then (effective_time t ~semantics ~rank w, w.w_time, s)
          else
            (* BurstFS mode: no single-process ordering; ties on effective
               time break in reverse issue order. *)
            (effective_time t ~semantics ~rank:(-2) w, -w.w_time, -s)
        in
        keyed := (key, w) :: !keyed
    end
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !keyed in
  (* Paint the key's seq component (negated in BurstFS mode, like the
     reference): under local_order:false a byte painted by any write other
     than seq 0 never matches the issue-order identity, deliberately
     flagging every byte whose order was adversarial. *)
  List.iter (fun ((_, _, s), w) -> paint vis_seq ~into:data s w) sorted;
  let stale = ref 0 in
  for i = 0 to len - 1 do
    if any_seq.(i) <> vis_seq.(i) then incr stale
  done;
  { data; stale_bytes = !stale }

(* Strong-consistency (and laminated-file) fast path: the [strong] index
   alone answers both content and identity. *)
let read_strong t ~off ~len =
  let req = Interval.of_len off len in
  let data = Bytes.make len '\000' in
  let vis = Extmap.query req t.strong in
  List.iter
    (fun (iv, seq) ->
      let w = t.log.(seq) in
      Bytes.blit w.w_data
        (iv.Interval.lo - w.w_iv.Interval.lo)
        data
        (iv.Interval.lo - off)
        (Interval.length iv))
    vis;
  let stale = stale_between req (Extmap.query req t.oracle) vis in
  { data; stale_bytes = stale }

(* Relaxed-engine settled caches ------------------------------------------ *)

let mode_of (semantics : Consistency.t) =
  match semantics with
  | Commit -> M_commit
  | Session -> M_session
  | Eventual { delay } -> M_eventual delay
  | Strong -> assert false

let get_cache t mode =
  match List.find_opt (fun c -> c.c_mode = mode) t.caches with
  | Some c -> c
  | None ->
    let c =
      {
        c_mode = mode;
        c_valid = false;
        c_base = Bytes.empty;
        c_base_len = 0;
        c_base_seq = Extmap.empty;
        c_folded_pub = min_int;
        c_pending = [];
        c_pend_pub = min_int;
      }
    in
    t.caches <- c :: t.caches;
    c

(* Rebuild a settled base from scratch: fold every published live write in
   (publish, issue, seq) order — the globally-sorted epoch sequence the
   incremental folds approximate one event at a time. *)
let rebuild_cache t c =
  if not t.monotonic then recompute_pubs t;
  let pub_of w =
    match c.c_mode with
    | M_commit -> w.pub_commit
    | M_session -> w.pub_close
    | M_eventual delay -> w.w_time + delay
  in
  let published = ref [] and pending = ref [] in
  for i = t.log_n - 1 downto 0 do
    let w = t.log.(i) in
    if w.w_live then begin
      let pub = pub_of w in
      let folded =
        match c.c_mode with
        | M_eventual _ -> pub <= t.watermark
        | _ -> pub <> unpublished
      in
      if folded then published := (pub, w) :: !published
      else
        match c.c_mode with
        | M_eventual _ -> pending := w :: !pending
        | _ -> ()
    end
  done;
  let published =
    List.sort
      (fun (pa, a) (pb, b) ->
        compare (pa, a.w_time, a.w_seq) (pb, b.w_time, b.w_seq))
      !published
  in
  c.c_base <- Bytes.empty;
  c.c_base_len <- 0;
  c.c_base_seq <- Extmap.empty;
  c.c_folded_pub <- min_int;
  List.iter
    (fun (pub, w) ->
      base_paint c w;
      c.c_folded_pub <- pub)
    published;
  let pending =
    (* Ascending (w_time, seq) = ascending publish time for a fixed delay. *)
    List.sort (fun a b -> compare (a.w_time, a.w_seq) (b.w_time, b.w_seq))
      !pending
  in
  c.c_pending <- pending;
  c.c_pend_pub <-
    (match (c.c_mode, List.rev pending) with
    | M_eventual delay, w :: _ -> w.w_time + delay
    | _ -> min_int);
  c.c_valid <- true;
  if Obs.enabled () then Obs.incr "fs.extent.rebuilds"

(* Can the settled base answer this read exactly?  (1) publishing events
   never ran backwards (pub fields precise); (2) the base is built; (3)
   every folded epoch is visible to this reader — published at or before
   [time], and under session semantics covered by an open the reader made
   after all the folds; (4) no multi-writer segment in range when the
   reader has written the file (its own settled writes sort at issue time
   for it, not at the publish time the base folded them at). *)
let fast_ok t c ~rank ~time ~off ~len =
  t.monotonic && c.c_valid
  && (match c.c_mode with
     | M_commit | M_eventual _ -> c.c_folded_pub <= time
     | M_session ->
       c.c_folded_pub = min_int
       || ev_exists_in (evl t.opens rank) ~after:c.c_folded_pub ~upto:time)
  && (not t.multi_ranges
     || not (Hashtbl.mem t.writer_set rank)
     || not
          (List.exists
             (fun (_, r) -> r = multi_writer)
             (Extmap.query (Interval.of_len off len) t.writers)))

(* Fast path: copy the settled base range and overlay the few still-pending
   extents visible to this reader, merged per byte by the reader's full
   effective-order key. *)
let read_fast t c ~semantics ~rank ~time ~off ~len =
  if Obs.enabled () then Obs.incr "fs.extent.fast_reads";
  let req = Interval.of_len off len in
  let data = Bytes.make len '\000' in
  let n = max 0 (min len (c.c_base_len - off)) in
  if n > 0 then Bytes.blit c.c_base off data 0 n;
  let base_pieces = Extmap.query req c.c_base_seq in
  let overlay =
    match c.c_mode with
    | M_commit -> (
      match Hashtbl.find_opt t.unpub_commit rank with
      | Some l -> !l
      | None -> [])
    | M_session -> (
      match Hashtbl.find_opt t.unpub_close rank with
      | Some l -> !l
      | None -> [])
    | M_eventual delay ->
      List.filter
        (fun w -> w.w_rank = rank || w.w_time + delay <= time)
        c.c_pending
  in
  let overlay = List.filter (fun w -> Interval.overlaps req w.w_iv) overlay in
  let vis_pieces =
    if overlay = [] then base_pieces
    else begin
      let key seq =
        let w = t.log.(seq) in
        (effective_time t ~semantics ~rank w, w.w_time, w.w_seq)
      in
      let pm =
        List.fold_left
          (fun pm (iv, seq) -> Extmap.set iv seq pm)
          Extmap.empty base_pieces
      in
      let pm =
        List.fold_left
          (fun pm w ->
            match Interval.intersect req w.w_iv with
            | None -> pm
            | Some iv ->
              Extmap.set_max
                ~wins:(fun old candidate -> key old > key candidate)
                iv w.w_seq pm)
          pm overlay
      in
      let pieces = Extmap.query req pm in
      List.iter
        (fun (iv, seq) ->
          let w = t.log.(seq) in
          Bytes.blit w.w_data
            (iv.Interval.lo - w.w_iv.Interval.lo)
            data
            (iv.Interval.lo - off)
            (Interval.length iv))
        pieces;
      pieces
    end
  in
  let stale = stale_between req (Extmap.query req t.oracle) vis_pieces in
  { data; stale_bytes = stale }

let read ?(local_order = true) t ~semantics ~rank ~time ~off ~len =
  let len = max 0 (min len (max 0 (t.size - off))) in
  if len = 0 then { data = Bytes.create 0; stale_bytes = 0 }
  else if not local_order then
    (* BurstFS mode reverses same-publish ties, which no per-byte-max index
       expresses: always take the (accelerated) log walk. *)
    read_slow t ~local_order:false ~semantics ~rank ~time ~off ~len
  else
    match t.laminated_at with
    | Some tl when tl <= time ->
      (* Lamination restores issue order for everyone: the strong index is
         exact. *)
      if Obs.enabled () then Obs.incr "fs.extent.fast_reads";
      read_strong t ~off ~len
    | Some _ -> read_slow t ~local_order:true ~semantics ~rank ~time ~off ~len
    | None -> (
      match (semantics : Consistency.t) with
      | Strong ->
        if Obs.enabled () then Obs.incr "fs.extent.fast_reads";
        read_strong t ~off ~len
      | _ ->
        let c = get_cache t (mode_of semantics) in
        if not c.c_valid then rebuild_cache t c;
        if fast_ok t c ~rank ~time ~off ~len then
          read_fast t c ~semantics ~rank ~time ~off ~len
        else read_slow t ~local_order:true ~semantics ~rank ~time ~off ~len)

(* Concurrency: during a domain-parallel run every public operation —
   reads included, since they rebuild caches and recompute pub fields —
   serializes on the per-file lock.  Legacy runs take one branch.  The
   wrappers shadow the plain implementations; no implementation calls
   another through its public name, so the (non-reentrant) lock is taken
   at most once per call.  [size], [write_count] and [is_laminated] stay
   lock-free: single-word reads. *)

let locked t f = Domctx.locked t.fd_mu f

let write t ~rank ~time ~off data =
  locked t (fun () -> write t ~rank ~time ~off data)

let truncate t ~time len = locked t (fun () -> truncate t ~time len)
let commit t ~rank ~time = locked t (fun () -> commit t ~rank ~time)

let session_open t ~rank ~time =
  locked t (fun () -> session_open t ~rank ~time)

let session_close t ~rank ~time =
  locked t (fun () -> session_close t ~rank ~time)

let laminate t ~time = locked t (fun () -> laminate t ~time)

let settled t ~semantics ~rank ~issued ~time =
  locked t (fun () -> settled t ~semantics ~rank ~issued ~time)

let crash t ~semantics ~time ~stripe_size ~keep_stripes =
  locked t (fun () -> crash t ~semantics ~time ~stripe_size ~keep_stripes)

let crash_target t ~semantics ~time ~stripe_size ~server_count ~target =
  locked t (fun () ->
      crash_target t ~semantics ~time ~stripe_size ~server_count ~target)

let read ?local_order t ~semantics ~rank ~time ~off ~len =
  locked t (fun () -> read ?local_order t ~semantics ~rank ~time ~off ~len)
