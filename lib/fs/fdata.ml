(* Per-file data as an incremental extent store.

   The old implementation (kept test-side as [Fdata_ref] in test/oracle/)
   repainted the entire write log on every read: O(history) per read, the
   wall checkpoint-heavy workloads hit.  This version keeps the log but
   never walks it on the common read path.  Two always-current structures
   answer reads in O(log E + bytes):

   - one segment index ([index]) whose segments each carry three fields
     per byte range: the newest write in *insertion* order (the identity a
     strongly-consistent PFS would return, used for staleness
     accounting), the winning write under strong-consistency ordering
     (max (w_time, seq), which also serves laminated files and
     {!oracle}), and the owning rank or [multi_writer].  A write updates
     all three with one query, one carve and one add per run of equal
     segments; an append past every segment needs only the add;
   - a *settled* cache for a relaxed engine: a segment index naming, per
     byte range, the published write that owns it, folded in
     effective-time (epoch) order as publishing events arrive — the
     UnifyFS/BurstFS shape, where a server-side extent index over write
     segments replaces the client's log walk.  It holds no bytes: those
     stay in the logged writes' buffers.

   Each file interprets one consistency engine, fixed at {!create}: every
   write carries one publish time ([pub]) under it, each rank keeps one
   list of publishing events and one list of still-unpublished writes,
   and the file keeps one cache.  Publishing events (and delay expiry)
   trigger epoch compaction: the writer's newly-published writes
   fold into the owner map in (publish_time, issue_time, seq) order.  A
   read merges the map's pieces with the reader's few still-pending
   visible extents and copies each piece from its write's buffer.

   Bit-for-bit equivalence with the reference model is preserved by
   construction where the fast path applies, and by falling back to the
   reference algorithm everywhere it does not: non-monotone clocks,
   BurstFS mode (local_order = false), session readers in stale sessions,
   and readers whose own writes overlap other ranks' (where the
   single-process guarantee reorders the settled fold).  That slow path
   walks the log but repaints only the writes that overlap the read, as an
   owner map, and counts stale bytes per segment against the index.  The
   differential QCheck suite in test/test_fdata_equiv.ml drives both
   implementations through randomized interleavings under all four
   engines. *)

module Interval = Hpcfs_util.Interval
module Extmap = Hpcfs_util.Extmap
module Obs = Hpcfs_obs.Obs

let unpublished = max_int

type write_rec = {
  w_seq : int;  (* insertion index; stable identity *)
  w_rank : int;
  w_time : int;
  mutable w_iv : Interval.t;
  mutable w_data : bytes;
  mutable w_live : bool;  (* false once dropped by truncate/crash *)
  mutable pub : int;
      (* publish time under the file's engine ([pub_of]; [unpublished]
         while its publishing event has not happened) *)
}

(* Ascending event times of one rank (publishing events or opens). *)
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

(* Settled cache of a relaxed engine.  [c_settled] names the write that
   owns each published byte, folded in effective-time order up to
   [c_folded_pub]; the bytes themselves stay in the log.  Under eventual,
   writes whose delay has not expired by the event-clock watermark wait in
   the FIFO [c_pending] (ascending publish time).  Strong files never
   build it. *)
type cache = {
  mutable c_valid : bool;
  mutable c_settled : int Extmap.t;
  mutable c_folded_pub : int;  (* min_int when nothing folded *)
  c_pending : write_rec Queue.t;  (* Eventual only; ascending pub *)
  mutable c_pend_pub : int;  (* publish time of the last queued pending *)
}

(* One segment of the per-file index: the insertion-order winner, the
   strong-order winner (both seqs) and the owning rank, or [multi_writer]
   once two ranks wrote the range. *)
type seg = { s_issue : int; s_strong : int; s_writer : int }

type t = {
  sem : Consistency.t;
  (* [sem]'s rules that the read path asks per logged write, taken once *)
  publication : Consistency.publication;
  acquires : bool;  (* Consistency.open_acquires *)
  mutable log : write_rec array;
  mutable log_n : int;
  mutable live : int;  (* live writes in the log *)
  mutable size : int;
  events : (int, evlist) Hashtbl.t;
      (* per rank, the operations that publish under the engine *)
  opens : (int, evlist) Hashtbl.t;  (* where a reader's open acquires *)
  mutable laminated_at : int option;
  mutable index : seg Extmap.t;  (* rebuilt wholesale after truncate/crash *)
  mutable multi_ranges : bool;  (* any multi-writer segment exists *)
  writer_set : (int, unit) Hashtbl.t;  (* ranks that ever wrote *)
  (* Unpublished writes per rank, newest (w_time, seq) first; the
     "pending overlay" of the reader's own extents, and the candidate set
     crash reconciliation walks instead of the full log.  Publication at
     an operation only. *)
  unpub : (int, write_rec list ref) Hashtbl.t;
  cache : cache;
  mutable watermark : int;  (* max event/write time seen (event clock) *)
  mutable monotonic : bool;  (* event clock never went backwards *)
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
    pub = 0;
  }

let create sem =
  {
    sem;
    publication = Consistency.publication sem;
    acquires = Consistency.open_acquires sem;
    log = Array.make 16 dummy_write;
    log_n = 0;
    live = 0;
    size = 0;
    events = Hashtbl.create 8;
    opens = Hashtbl.create 8;
    laminated_at = None;
    index = Extmap.empty;
    multi_ranges = false;
    writer_set = Hashtbl.create 8;
    unpub = Hashtbl.create 8;
    cache =
      {
        c_valid = false;
        c_settled = Extmap.empty;
        c_folded_pub = min_int;
        c_pending = Queue.create ();
        c_pend_pub = min_int;
      };
    watermark = min_int;
    monotonic = true;
  }

let size t = t.size

let write_count t = t.live

let find_or_add tbl rank make =
  match Hashtbl.find tbl rank with
  | l -> l
  | exception Not_found ->
    let l = make () in
    Hashtbl.add tbl rank l;
    l

let evl tbl rank = find_or_add tbl rank evlist

(* The earliest lamination wins: a later one cannot un-publish the file. *)
let laminate t ~time =
  t.laminated_at <- Some (min time (Option.value t.laminated_at ~default:time))

let is_laminated t = t.laminated_at <> None

let laminated_by t time =
  match t.laminated_at with Some tl -> tl <= time | None -> false

(* Publish time of a write [rank] issues at [time] under the file's
   engine; [unpublished] while its publishing event has not happened. *)
let pub_of t ~rank time =
  match t.publication with
  | On_arrival | After_delay -> time + Consistency.delay t.sem
  | At_operation -> (
    match Hashtbl.find_opt t.events rank with
    | Some l -> ev_first_after l time
    | None -> unpublished)

(* Strong order between two writes: (w_time, seq). *)
let strong_cmp a b =
  if a.w_time <> b.w_time then compare a.w_time b.w_time
  else compare a.w_seq b.w_seq

let strong_wins t a_seq b_seq = strong_cmp t.log.(a_seq) t.log.(b_seq) > 0

let invalidate_cache t = t.cache.c_valid <- false

(* The watermark is the max event/write time ever seen.  Writes arriving
   with old timestamps (burst-buffer drains replaying staged extents) are
   handled precisely at insert; only out-of-order *publishing events*
   (commits/closes, flagged by [ev_push]) force pub recomputation. *)
let bump_watermark t time = if time > t.watermark then t.watermark <- time

(* Insert one write into the always-on index: it becomes the issue-order
   winner everywhere, the strong-order winner wherever it beats the
   current one, and the owner of its gaps; a range another rank owns
   becomes [multi_writer].  Pieces the write wins outright share one
   segment value, so they merge into one segment. *)
let index_write t w =
  Hashtbl.replace t.writer_set w.w_rank ();
  let seq = w.w_seq and rank = w.w_rank in
  let fresh = { s_issue = seq; s_strong = seq; s_writer = rank } in
  t.index <-
    Extmap.update w.w_iv
      (function
        | None -> fresh
        | Some old ->
          let s_strong =
            if strong_wins t seq old.s_strong then seq else old.s_strong
          in
          let s_writer =
            if old.s_writer = rank then rank
            else begin
              t.multi_ranges <- true;
              multi_writer
            end
          in
          if s_strong = seq && s_writer = rank then fresh
          else { s_issue = seq; s_strong; s_writer })
      t.index

(* Sorted insert into an unpublished list, newest (w_time, seq) first.  A
   write on a monotone clock is the newest and conses at the head; an
   out-of-order one (an old-timestamped replay) walks past only the
   writes newer than it. *)
let unpub_insert lref w =
  let rec ins = function
    | x :: rest when strong_cmp x w > 0 -> x :: ins rest
    | l -> w :: l
  in
  lref := ins !lref

let unpub t rank = find_or_add t.unpub rank (fun () -> ref [])

(* Fold one write into the settled owner map (already clipped to the file
   by construction; truncation rebuilds the cache wholesale). *)
let settle c w = c.c_settled <- Extmap.set w.w_iv w.w_seq c.c_settled

(* Epoch compaction: fold writes newly published at [pub] into the cache.
   [ws] arrives ascending (w_time, seq) — the in-epoch effective order.
   Publishing at or before the previous fold means two epochs would have
   to interleave, which one owner map cannot express: invalidate and let
   the next read rebuild in globally sorted order. *)
let fold_epoch c ~pub ws =
  if ws <> [] then begin
    if pub <= c.c_folded_pub then c.c_valid <- false
    else begin
      List.iter (settle c) ws;
      c.c_folded_pub <- pub;
      if Obs.enabled () then begin
        Obs.incr "fs.extent.compactions";
        Obs.incr
          ~by:(List.fold_left (fun n w -> n + Interval.length w.w_iv) 0 ws)
          "fs.extent.compacted_bytes"
      end
    end
  end

(* Writes of [rank] published by an event at [time]: split the rank's
   newest-first pending list after its (w_time >= time) head, which stays
   pending, stamp the rest with their publish time, and compact them into
   the cache in ascending (w_time, seq) order. *)
let publish t ~rank ~time =
  let lref = unpub t rank in
  let rec split acc = function
    | w :: rest when w.w_time >= time -> split (w :: acc) rest
    | older -> (List.rev acc, List.rev older)
  in
  let pending, published = split [] !lref in
  lref := pending;
  List.iter (fun w -> w.pub <- time) published;
  if t.cache.c_valid then fold_epoch t.cache ~pub:time published

(* Advance an eventual cache to the event-clock watermark: pending writes
   whose delay expired fold in, in publish order. *)
let fold_eventual t =
  let c = t.cache in
  if c.c_valid && t.publication = After_delay then begin
    (* Fold runs of equal publish time as one epoch (several ranks writing
       in the same tick expire together). *)
    let q = c.c_pending in
    let rec take pub acc =
      match Queue.peek_opt q with
      | Some x when x.pub = pub -> take pub (Queue.pop q :: acc)
      | _ -> List.rev acc
    in
    let rec go () =
      match Queue.peek_opt q with
      | Some w when w.pub <= t.watermark ->
        fold_epoch c ~pub:w.pub (take w.pub []);
        go ()
      | _ -> ()
    in
    go ()
  end

(* Full pub-field recomputation, for histories whose event clock went
   backwards (the reference model allows it, so we must too). *)
let recompute_pubs t =
  Hashtbl.reset t.unpub;
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then begin
      w.pub <- pub_of t ~rank:w.w_rank w.w_time;
      if w.pub = unpublished then unpub_insert (unpub t w.w_rank) w
    end
  done;
  t.monotonic <- true

(* Rebuild every index from the live log (after truncate/crash). *)
let reindex t =
  t.index <- Extmap.empty;
  t.multi_ranges <- false;
  Hashtbl.reset t.writer_set;
  recompute_pubs t;
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then index_write t w
  done;
  invalidate_cache t;
  if Obs.enabled () then Obs.incr "fs.extent.reindexes"

(* Append a live record to the log with a fresh seq.  Only [write] indexes
   it; the torn-write pieces crash_target appends are left to its
   [reindex]. *)
let append_raw t ~rank ~time iv data =
  let w =
    {
      w_seq = t.log_n;
      w_rank = rank;
      w_time = time;
      w_iv = iv;
      w_data = data;
      w_live = true;
      pub = pub_of t ~rank time;
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
  w

let write t ~rank ~time ~off data =
  if is_laminated t then invalid_arg "Fdata.write: file is laminated";
  let len = Bytes.length data in
  if len > 0 then begin
    bump_watermark t time;
    (* The log keeps the caller's buffer: writes hand theirs over. *)
    let w = append_raw t ~rank ~time (Interval.of_len off len) data in
    index_write t w;
    let c = t.cache in
    (match t.publication with
    | On_arrival -> ()
    | At_operation ->
      (* A write already published on arrival (its rank committed at a
         later timestamp before this record was inserted — e.g. a
         burst-buffer drain replaying an old extent) would have to fold
         into the middle of the settled cache: invalidate it instead. *)
      if w.pub <> unpublished then c.c_valid <- false
      else unpub_insert (unpub t rank) w
    | After_delay ->
      (* The pending queue must stay ascending in publish time; an
         out-of-order arrival (old-timestamped replay) falls back to a
         rebuild, as does one that would fold mid-cache. *)
      if c.c_valid then
        if w.pub <= c.c_folded_pub then c.c_valid <- false
        else if (not (Queue.is_empty c.c_pending)) && w.pub < c.c_pend_pub
        then c.c_valid <- false
        else begin
          Queue.push w c.c_pending;
          c.c_pend_pub <- w.pub
        end);
    if off + len > t.size then t.size <- off + len;
    fold_eventual t
  end

(* A publishing event of [rank] at [time]: record it and publish the
   writes it releases.  An event out of clock order makes the recorded
   publish times imprecise until [recompute_pubs] runs. *)
let publishing_event t ~rank ~time =
  if not (ev_push (evl t.events rank) time) then begin
    t.monotonic <- false;
    invalidate_cache t
  end
  else publish t ~rank ~time

let commit t ~rank ~time =
  bump_watermark t time;
  if Consistency.publishes_at t.sem `Fsync then publishing_event t ~rank ~time;
  fold_eventual t

let session_open t ~rank ~time =
  bump_watermark t time;
  if t.acquires then ignore (ev_push (evl t.opens rank) time);
  fold_eventual t

let session_close t ~rank ~time =
  bump_watermark t time;
  if Consistency.publishes_at t.sem `Close then publishing_event t ~rank ~time;
  fold_eventual t

(* Has [rank] acquired, by [time], what was published at [pub]?  Where a
   reader's open acquires, that takes an open in (pub, time]. *)
let acquired t ~rank ~pub ~time =
  pub <= time
  && ((not t.acquires) || ev_exists_in (evl t.opens rank) ~after:pub ~upto:time)

(* Does [rank] observe write [w] at [time]?  Mirrors the reference model:
   own writes always; lamination publishes everything once reached;
   otherwise once the reader has acquired the write's publication. *)
let visible t ~rank ~time w =
  w.w_rank = rank || laminated_by t time
  || t.publication = On_arrival
  || acquired t ~rank ~pub:w.pub ~time

(* When [w] takes effect from this reader's point of view: own writes at
   issue time; laminated files restore issue order; otherwise the publish
   time. *)
let effective_time t ~rank w =
  if w.w_rank = rank || t.laminated_at <> None then w.w_time else w.pub

type read_result = { data : bytes; stale_bytes : int }

(* A truncate that drops or cuts no write (one to the current size or
   beyond, as HDF5 issues at every close) leaves every index exact: only
   the size moves, and unwritten bytes already read as zeros. *)
let truncate t ~time:_ len =
  let cut = ref false in
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then
      if w.w_iv.Interval.lo >= len then begin
        w.w_live <- false;
        t.live <- t.live - 1;
        cut := true
      end
      else if w.w_iv.Interval.hi > len then begin
        let keep = len - w.w_iv.Interval.lo in
        w.w_iv <- Interval.make w.w_iv.Interval.lo len;
        w.w_data <- Bytes.sub w.w_data 0 keep;
        cut := true
      end
  done;
  t.size <- len;
  if !cut then reindex t

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

(* Is a write issued at [issued] and published at [pub] durable at
   [time]?  The engine's durability rule: a write persists once the
   operation that publishes it has executed (strong: on arrival). *)
let durable t ~issued ~pub ~time =
  laminated_by t time
  || if t.publication = On_arrival then issued < time else pub <= time

let persisted t ~time w = durable t ~issued:w.w_time ~pub:w.pub ~time

(* {!persisted}'s rule for a copy of a write kept outside the log (a
   client journal's or a host-side log's): the publish time is looked up
   in the rank's publishing events. *)
let settled t ~rank ~issued ~time =
  durable t ~issued ~pub:(pub_of t ~rank issued) ~time

(* The candidate non-durable writes, walked instead of the full log when
   the pending index is exact: under publication at an operation on a
   monotone clock, every publish time ever assigned is <= the crash time,
   so the non-persisted writes are exactly the unpublished lists. *)
let crash_candidates t ~time =
  if t.publication = At_operation && t.monotonic && time >= t.watermark then
    Some
      (Hashtbl.fold (fun _ l acc -> List.rev_append !l acc) t.unpub []
      |> List.filter (fun w -> w.w_live)
      |> List.sort (fun a b -> compare a.w_seq b.w_seq))
  else None

let crash t ~time ~stripe_size ~keep_stripes =
  if not t.monotonic then recompute_pubs t;
  let stats = ref no_crash_stats in
  (* Per rank, the newest unpersisted write is possibly in flight at the
     crash instant: it tears at a stripe boundary, while every older
     unpersisted write is lost outright. *)
  let pending =
    if laminated_by t time then []
    else
      match crash_candidates t ~time with
      | Some ws -> List.filter (fun w -> not (persisted t ~time w)) ws
      | None ->
        let acc = ref [] in
        for i = t.log_n - 1 downto 0 do
          let w = t.log.(i) in
          if w.w_live && not (persisted t ~time w) then
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

let crash_target t ~time ~stripe_size ~server_count ~target =
  if not t.monotonic then recompute_pubs t;
  if laminated_by t time then (no_crash_stats, [])
  else begin
    let stats = ref no_crash_stats in
    let ranks = Hashtbl.create 8 in
    let appended = ref [] in
    let changed = ref false in
    let n = t.log_n in
    for i = 0 to n - 1 do
      let w = t.log.(i) in
      if w.w_live && not (persisted t ~time w) then begin
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
      (fun (rank, time, iv, data) -> ignore (append_raw t ~rank ~time iv data))
      (List.rev !appended);
    if !changed then reindex t;
    let affected =
      List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) ranks [])
    in
    (!stats, affected)
  end

(* Reads ------------------------------------------------------------------ *)

(* A fresh buffer for [req] assembled from ascending, disjoint [pieces],
   each copied from the buffer of the logged write [seq_of] names; the
   gaps between pieces read as zeros.  Never a write's own buffer. *)
let assemble t req pieces seq_of =
  let off = req.Interval.lo in
  let data = Bytes.create (Interval.length req) in
  let pos = ref off in
  List.iter
    (fun (iv, v) ->
      let w = t.log.(seq_of v) in
      Bytes.fill data (!pos - off) (iv.Interval.lo - !pos) '\000';
      Bytes.blit w.w_data
        (iv.Interval.lo - w.w_iv.Interval.lo)
        data
        (iv.Interval.lo - off)
        (Interval.length iv);
      pos := iv.Interval.hi)
    pieces;
  Bytes.fill data (!pos - off) (req.Interval.hi - !pos) '\000';
  data

(* Bytes where the issue-order winner (the index's [s_issue]) and the
   visible winner differ, from the two clipped, ascending segment lists:
   every byte either list covers counts, less once for each byte both
   cover and again where both name the [same] winner.  [same] is
   equality, except in BurstFS mode. *)
let stale_between ?(same = Int.equal) index_pieces vis_pieces =
  let covered pieces =
    List.fold_left (fun n (iv, _) -> n + Interval.length iv) 0 pieces
  in
  let rec shared acc ip vp =
    match (ip, vp) with
    | [], _ | _, [] -> acc
    | (ia, s) :: irest, (va, v) :: vrest ->
      let open Interval in
      let n = Int.min ia.hi va.hi - Int.max ia.lo va.lo in
      let acc =
        if n <= 0 then acc
        else if same s.s_issue v then acc + (2 * n)
        else acc + n
      in
      if ia.hi <= va.hi then shared acc irest vp else shared acc ip vrest
  in
  covered index_pieces + covered vis_pieces - shared 0 index_pieces vis_pieces

(* The reader's order over visible writes; the later write wins a byte.
   Ascending (effective time, issue time, seq).  BurstFS mode has no
   single-process ordering: writes published by one operation tie on
   effective time and break the tie in reverse issue order, a legal,
   adversarial outcome. *)
let effective_order t ~local_order ~rank a b =
  let rank = if local_order then rank else -2 in
  let c = Int.compare (effective_time t ~rank a) (effective_time t ~rank b) in
  if c <> 0 then c else if local_order then strong_cmp a b else strong_cmp b a

(* The reference algorithm, from pieces: only the live writes that overlap
   the request can paint it, so only those are checked for visibility and
   sorted, then folded into a small owner map whose pieces give the bytes
   and, against the index, the stale count.  Used for every case the
   settled cache cannot express; also the bit-for-bit specification the
   fast path must match. *)
let read_slow t ~local_order ~rank ~time ~off ~len =
  if Obs.enabled () then Obs.incr "fs.extent.slow_reads";
  if not t.monotonic then recompute_pubs t;
  let req = Interval.of_len off len in
  let first_live = ref (-1) and hits = ref [] in
  for i = 0 to t.log_n - 1 do
    let w = t.log.(i) in
    if w.w_live then begin
      if !first_live < 0 then first_live := i;
      if Interval.overlaps req w.w_iv && visible t ~rank ~time w then
        hits := w :: !hits
    end
  done;
  let hits = Array.of_list !hits in
  Array.sort (effective_order t ~local_order ~rank) hits;
  let owners =
    Array.fold_left (fun m w -> Extmap.set w.w_iv w.w_seq m) Extmap.empty hits
  in
  let pieces = Extmap.query req owners in
  (* The reference names writes by their position among surviving writes
     and, in BurstFS mode, paints the negated position: only position 0
     (the first live write) can match its own negation. *)
  let same =
    if local_order then Int.equal
    else fun a v -> a = v && a = !first_live
  in
  {
    data = assemble t req pieces Fun.id;
    stale_bytes = stale_between ~same (Extmap.query req t.index) pieces;
  }

(* The index's strong-order bytes for [req] — the strong-consistency (and
   laminated-file) view — and the bytes whose issue-order winner differs,
   from one query. *)
let strong_view t req =
  let pieces = Extmap.query req t.index in
  let stale =
    List.fold_left
      (fun n (iv, s) ->
        if s.s_issue <> s.s_strong then n + Interval.length iv else n)
      0 pieces
  in
  (assemble t req pieces (fun s -> s.s_strong), stale)

(* Strong-consistency (and laminated-file) fast path: the index's strong
   field answers content, its issue field identity. *)
let read_strong t ~off ~len =
  if Obs.enabled () then Obs.incr "fs.extent.fast_reads";
  let data, stale_bytes = strong_view t (Interval.of_len off len) in
  { data; stale_bytes }

(* Relaxed-engine settled cache ------------------------------------------- *)

(* Rebuild the settled cache from scratch: fold every published live write
   in (publish, issue, seq) order — the globally-sorted epoch sequence the
   incremental folds approximate one event at a time. *)
let rebuild_cache t =
  if not t.monotonic then recompute_pubs t;
  let c = t.cache in
  let eventual = t.publication = After_delay in
  let published = ref [] and pending = ref [] in
  for i = t.log_n - 1 downto 0 do
    let w = t.log.(i) in
    if w.w_live then
      if if eventual then w.pub <= t.watermark else w.pub <> unpublished
      then published := w :: !published
      else if eventual then pending := w :: !pending
  done;
  let published =
    List.sort
      (fun a b -> if a.pub <> b.pub then compare a.pub b.pub else strong_cmp a b)
      !published
  in
  c.c_settled <- Extmap.empty;
  c.c_folded_pub <- min_int;
  List.iter
    (fun w ->
      settle c w;
      c.c_folded_pub <- w.pub)
    published;
  (* Ascending (w_time, seq) = ascending publish time for a fixed delay. *)
  Queue.clear c.c_pending;
  List.iter (fun w -> Queue.push w c.c_pending) (List.sort strong_cmp !pending);
  c.c_pend_pub <- Queue.fold (fun _ w -> w.pub) min_int c.c_pending;
  c.c_valid <- true;
  if Obs.enabled () then Obs.incr "fs.extent.rebuilds"

(* Can the settled cache answer this read exactly?  (1) publishing events
   never ran backwards (pub fields precise); (2) the cache is built; (3)
   every folded epoch is visible to this reader — published at or before
   [time], and, where a reader's open acquires, covered by an open the
   reader made after all the folds; (4) no multi-writer segment in range
   when the reader has written the file (its own settled writes sort at
   issue time for it, not at the publish time the cache folded them at). *)
let fast_ok t c ~rank ~time ~off ~len =
  t.monotonic && c.c_valid
  && (c.c_folded_pub = min_int || acquired t ~rank ~pub:c.c_folded_pub ~time)
  && (not t.multi_ranges
     || not (Hashtbl.mem t.writer_set rank)
     || not
          (List.exists
             (fun (_, s) -> s.s_writer = multi_writer)
             (Extmap.query (Interval.of_len off len) t.index)))

(* Fast path: the settled owners of the range, overlaid with the few
   still-pending extents visible to this reader, merged per byte by the
   reader's full effective-order key; the bytes come from the owners'
   logged buffers. *)
let read_fast t c ~rank ~time ~off ~len =
  if Obs.enabled () then Obs.incr "fs.extent.fast_reads";
  let req = Interval.of_len off len in
  let overlay =
    if t.publication = After_delay then
      Queue.fold
        (fun acc w -> if w.w_rank = rank || w.pub <= time then w :: acc else acc)
        [] c.c_pending
    else match Hashtbl.find_opt t.unpub rank with Some l -> !l | None -> []
  in
  let overlay = List.filter (fun w -> Interval.overlaps req w.w_iv) overlay in
  let owners =
    if overlay = [] then c.c_settled
    else
      (* The owner map is persistent: overlaying this read's view leaves
         the cache untouched. *)
      List.fold_left
        (fun m w ->
          match Interval.intersect req w.w_iv with
          | None -> m
          | Some iv ->
            Extmap.update iv
              (function
                | Some old
                  when effective_order t ~local_order:true ~rank t.log.(old) w
                       > 0 ->
                  old
                | _ -> w.w_seq)
              m)
        c.c_settled overlay
  in
  let pieces = Extmap.query req owners in
  let stale = stale_between (Extmap.query req t.index) pieces in
  { data = assemble t req pieces Fun.id; stale_bytes = stale }

(* Requested length clipped to the file: reads past the size return the
   in-range prefix. *)
let clip t ~off ~len = max 0 (min len (max 0 (t.size - off)))

let read ?(local_order = true) t ~rank ~time ~off ~len =
  let len = clip t ~off ~len in
  if len = 0 then { data = Bytes.create 0; stale_bytes = 0 }
  else if not local_order then
    (* BurstFS mode reverses same-publish ties, which no per-byte-max index
       expresses: always take the (accelerated) log walk. *)
    read_slow t ~local_order:false ~rank ~time ~off ~len
  else
    match t.laminated_at with
    | Some tl when tl <= time ->
      (* Lamination restores issue order for everyone: the strong index is
         exact. *)
      read_strong t ~off ~len
    | Some _ -> read_slow t ~local_order:true ~rank ~time ~off ~len
    | None when t.publication = On_arrival -> read_strong t ~off ~len
    | None ->
      let c = t.cache in
      if not c.c_valid then rebuild_cache t;
      if fast_ok t c ~rank ~time ~off ~len then
        read_fast t c ~rank ~time ~off ~len
      else read_slow t ~local_order:true ~rank ~time ~off ~len

let oracle t ~off ~len =
  let len = clip t ~off ~len in
  if len = 0 then Bytes.create 0
  else begin
    if Obs.enabled () then Obs.incr "fs.extent.fast_reads";
    fst (strong_view t (Interval.of_len off len))
  end
