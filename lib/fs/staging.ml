module Interval = Hpcfs_util.Interval
module Backoff = Hpcfs_util.Backoff
module Prng = Hpcfs_util.Prng
module Obs = Hpcfs_obs.Obs

type state = Pending | Applied | Dropped

type record = {
  seq : int;
  file : string;
  node : int;
  rank : int;
  time : int;
  off : int;
  mutable data : bytes;
  mutable state : state;
}

(* A statistic mirrored into the obs counter of the same name; the name is
   built once, as concatenating it per call would allocate on every
   operation even with telemetry off. *)
type counter = { name : string; mutable n : int }

let counter name = { name; n = 0 }

let bump c by =
  c.n <- c.n + by;
  Obs.incr ~by c.name

type counts = {
  writes : counter;
  reads : counter;
  bytes_written : counter;
  bytes_read : counter;
  staged_bytes : counter;
  drained_bytes : counter;
  stalls : counter;
  stalled_bytes : counter;
  faults : counter;
  retries : counter;
  backoff_ticks : counter;
  aborts : counter;
  target_down : counter;
  mutable peak_occupancy : int;
  mutable stale_reads : int;
  mutable stale_bytes : int;
}

(* A file's records in staging order, how many of their bytes are
   pending, and its crash ledger: bytes recovery replays brought back, and
   bytes failures destroyed — whole, or torn as an in-flight write.  The
   ledger moves only at loss and recovery events. *)
type file = {
  queue : record Queue.t;
  mutable pending_bytes : int;
  mutable recovered : int;
  mutable lost : int;
  mutable torn : int;
}

type t = {
  pfs : Pfs.t;
  backlog_gauge : string;
  drain_event : string;
  stall_event : string;
  ranks_per_node : int;
  retry : Backoff.policy;
  backlog : record Queue.t;  (* global staging order *)
  per_file : (string, file) Hashtbl.t;
  hw : (string, int) Hashtbl.t;  (* staged size high-water per file *)
  pending_per_node : (int, int) Hashtbl.t;
  mutable last_drain : int;
  mutable occupancy : int;
  mutable next_seq : int;
  mutable fault : (node:int -> time:int -> bool) option;
  mutable fault_prng : Prng.t;
  c : counts;
}

let create ~prefix ~staged ~drained ~fault ~events:(drain_event, stall_event)
    ~ranks_per_node ~retry pfs =
  {
    pfs;
    backlog_gauge = prefix ^ ".backlog";
    drain_event;
    stall_event;
    ranks_per_node;
    retry;
    backlog = Queue.create ();
    per_file = Hashtbl.create 16;
    hw = Hashtbl.create 16;
    pending_per_node = Hashtbl.create 16;
    last_drain = 0;
    occupancy = 0;
    next_seq = 0;
    fault = None;
    fault_prng = Prng.create 0;
    c =
      (let m s = counter (prefix ^ "." ^ s) in
       let f s = m (fault ^ "_" ^ s) in
       {
         writes = m "writes";
         reads = m "reads";
         bytes_written = m "bytes_written";
         bytes_read = m "bytes_read";
         staged_bytes = m staged;
         drained_bytes = m drained;
         stalls = m "stalls";
         stalled_bytes = m "stalled_bytes";
         faults = f "faults";
         retries = f "retries";
         backoff_ticks = f "backoff_ticks";
         aborts = f "aborts";
         target_down = m "drain_target_down";
         peak_occupancy = 0;
         stale_reads = 0;
         stale_bytes = 0;
       });
  }

let pfs t = t.pfs
let occupancy t = t.occupancy

let node_of_rank t rank =
  if rank < 0 then rank else rank / max 1 t.ranks_per_node

(* Record store ------------------------------------------------------------ *)

let pending t ~node =
  Option.value ~default:0 (Hashtbl.find_opt t.pending_per_node node)

(* Every change to the pending set goes through here, moving the record's
   file, node and global byte counts together. *)
let add_pending t r len =
  let f = Hashtbl.find t.per_file r.file in
  f.pending_bytes <- f.pending_bytes + len;
  Hashtbl.replace t.pending_per_node r.node (pending t ~node:r.node + len);
  t.occupancy <- t.occupancy + len

let file_queue t path =
  Option.map (fun f -> f.queue) (Hashtbl.find_opt t.per_file path)

let iter_files t f = Hashtbl.iter (fun path fl -> f path fl.queue) t.per_file

let pending_in_file t path =
  match Hashtbl.find_opt t.per_file path with
  | None -> 0
  | Some f -> f.pending_bytes

(* The file's pending records, in staging order; a file with none costs
   a lookup, not a walk of its (possibly never compacted) history. *)
let iter_pending t path g =
  match Hashtbl.find_opt t.per_file path with
  | Some f when f.pending_bytes > 0 ->
    Queue.iter (fun r -> if r.state = Pending then g r) f.queue
  | _ -> ()

let append t ~time ~rank path ~off data =
  let len = Bytes.length data in
  let r =
    {
      seq = t.next_seq;
      file = path;
      node = node_of_rank t rank;
      rank;
      time;
      off;
      data;
      state = Pending;
    }
  in
  t.next_seq <- t.next_seq + 1;
  Queue.add r t.backlog;
  (match Hashtbl.find_opt t.per_file path with
  | Some f -> Queue.add r f.queue
  | None ->
    let f =
      { queue = Queue.create (); pending_bytes = 0; recovered = 0; lost = 0;
        torn = 0 }
    in
    Queue.add r f.queue;
    Hashtbl.add t.per_file path f);
  add_pending t r len;
  bump t.c.staged_bytes len;
  Obs.gauge t.backlog_gauge t.occupancy;
  if t.occupancy > t.c.peak_occupancy then t.c.peak_occupancy <- t.occupancy;
  r

let drop t r =
  if r.state = Pending then add_pending t r (-Bytes.length r.data);
  r.state <- Dropped

let mark_applied t r =
  if r.state = Pending then begin
    add_pending t r (-Bytes.length r.data);
    r.state <- Applied;
    Obs.gauge t.backlog_gauge t.occupancy
  end

let resync t =
  Queue.clear t.backlog;
  Hashtbl.reset t.pending_per_node;
  t.occupancy <- 0;
  Hashtbl.fold
    (fun _ f acc ->
      f.pending_bytes <- 0;
      Queue.fold
        (fun acc r -> if r.state = Pending then r :: acc else acc)
        acc f.queue)
    t.per_file []
  |> List.sort (fun a b -> compare a.seq b.seq)
  |> List.iter (fun r ->
         add_pending t r (Bytes.length r.data);
         Queue.add r t.backlog);
  Obs.gauge t.backlog_gauge t.occupancy

let hw_size t path = Option.value ~default:0 (Hashtbl.find_opt t.hw path)
let fdata t path = Namespace.lookup_file (Pfs.namespace t.pfs) path
let size_of t fd path = max (Fdata.size fd) (hw_size t path)
let file_size t path = size_of t (fdata t path) path
let extend t path hi = Hashtbl.replace t.hw path (max (hw_size t path) hi)

(* A record's bytes are cut with the file whether or not they reached the
   PFS: an applied record a log may replay again must not bring back what
   the truncate removed. *)
let clip t r len =
  let l = Bytes.length r.data in
  if r.state <> Dropped then
    if r.off >= len then begin
      drop t r;
      r.data <- Bytes.empty
    end
    else if r.off + l > len then begin
      if r.state = Pending then add_pending t r (len - r.off - l);
      r.data <- Bytes.sub r.data 0 (len - r.off)
    end

let truncate t path len =
  Option.iter (Queue.iter (fun r -> clip t r len)) (file_queue t path);
  Hashtbl.replace t.hw path (min (hw_size t path) len)

(* Replay ------------------------------------------------------------------ *)

(* Replaying a record with its original issue timestamp and rank gives the
   backing file exactly the write history a direct run would have built;
   only the arrival moment differs. *)
let replay t r =
  match r.state with
  | Applied | Dropped -> 0
  | Pending -> (
    match
      Pfs.write t.pfs ~time:r.time ~rank:r.rank r.file ~off:r.off r.data
    with
    | exception Target.Target_down _ ->
      (* Not a transient fault a backoff loop can ride out: the node-local
         copy is the only one, and a pass after recovery or failover
         replays it. *)
      bump t.c.target_down 1;
      0
    | () ->
      let len = Bytes.length r.data in
      r.state <- Applied;
      add_pending t r (-len);
      bump t.c.drained_bytes len;
      Obs.gauge t.backlog_gauge t.occupancy;
      len)

let iter_backlog t f =
  Queue.iter (fun r -> if r.state = Pending then f r) t.backlog

let drain_head t ~replay ~more =
  let total = ref 0 in
  let rec go () =
    match Queue.peek_opt t.backlog with
    | Some r when r.state <> Pending ->
      ignore (Queue.pop t.backlog);
      go ()
    | Some r when more !total ->
      let n = replay r in
      if r.state <> Pending then begin
        ignore (Queue.pop t.backlog);
        total := !total + n;
        go ()
      end
    | Some _ | None -> ()
  in
  go ();
  !total

let drain_all t ~replay =
  let total = ref 0 in
  let requeue = Queue.create () in
  while not (Queue.is_empty t.backlog) do
    let r = Queue.pop t.backlog in
    total := !total + replay r;
    if r.state = Pending then Queue.add r requeue
  done;
  Queue.transfer requeue t.backlog;
  !total

let paced_drain t ~time ~bandwidth ~interval ~replay =
  if time - t.last_drain >= interval then begin
    let budget = bandwidth * (time - t.last_drain) in
    t.last_drain <- max t.last_drain time;
    let drained = drain_head t ~replay ~more:(fun d -> d < budget) in
    if drained > 0 then
      Obs.event Obs.T_bb
        ~args:[ ("bytes", string_of_int drained) ]
        t.drain_event
  end

let stall t bytes =
  if bytes > 0 then begin
    bump t.c.stalls 1;
    bump t.c.stalled_bytes bytes;
    Obs.event Obs.T_bb ~args:[ ("bytes", string_of_int bytes) ] t.stall_event
  end

(* Fault admission --------------------------------------------------------- *)

let set_fault t ?prng hook =
  t.fault <- hook;
  Option.iter (fun p -> t.fault_prng <- p) prng

let admitted t ~time ~node =
  match t.fault with
  | None -> true
  | Some fails ->
    let rec attempt n =
      if not (fails ~node ~time) then true
      else begin
        bump t.c.faults 1;
        if n >= t.retry.Backoff.max_retries then begin
          bump t.c.aborts 1;
          false
        end
        else begin
          let delay = Backoff.delay t.retry t.fault_prng ~attempt:n in
          bump t.c.retries 1;
          bump t.c.backoff_ticks delay;
          attempt (n + 1)
        end
      end
    in
    attempt 0

(* Reads ------------------------------------------------------------------- *)

let paint ~off buf r =
  match
    Interval.intersect
      (Interval.of_len off (Bytes.length buf))
      (Interval.of_len r.off (Bytes.length r.data))
  with
  | None -> ()
  | Some inter ->
    Bytes.blit r.data
      (inter.Interval.lo - r.off)
      buf
      (inter.Interval.lo - off)
      (Interval.length inter)

let pfs_read t ~time ~rank path ~off ~len =
  try Pfs.read t.pfs ~time ~rank path ~off ~len
  with Target.Target_down _ ->
    Pfs.read_degraded t.pfs ~time ~rank path ~off ~len

(* PFS reads and the oracle return fresh buffers, so a full-length one is
   painted and returned as is; only a short one (a read past the end of the
   file) is copied into a zero-padded buffer. *)
let pfs_bytes t ~time ~rank path ~off ~len =
  let base = pfs_read t ~time ~rank path ~off ~len in
  if Bytes.length base.Fdata.data = len then base.Fdata.data
  else begin
    let buf = Bytes.make len '\000' in
    Bytes.blit base.Fdata.data 0 buf 0 (Bytes.length base.Fdata.data);
    buf
  end

let count_write t len =
  bump t.c.writes 1;
  bump t.c.bytes_written len

(* What a strongly consistent stack would return: the PFS oracle plus every
   pending record of the file, in staging (= issue) order — the ground
   truth Fdata reads are measured against, extended to data that has not
   reached the PFS yet. *)
let ground_truth t fd path ~off ~len =
  let oracle = Fdata.oracle fd ~off ~len in
  let buf =
    if Bytes.length oracle = len then oracle
    else begin
      let buf = Bytes.make len '\000' in
      Bytes.blit oracle 0 buf 0 (Bytes.length oracle);
      buf
    end
  in
  iter_pending t path (paint ~off buf);
  buf

(* Most answers match the truth exactly: one memcmp settles those, and
   only a differing answer is counted byte by byte. *)
let count_stale data truth n =
  if Bytes.equal data truth then 0
  else begin
    let stale = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get data i <> Bytes.get truth i then incr stale
    done;
    !stale
  end

let read t path ~off ~len ~serve =
  let fd = fdata t path in
  let n = max 0 (min len (max 0 (size_of t fd path - off))) in
  let data = serve n in
  let stale = count_stale data (ground_truth t fd path ~off ~len:n) n in
  bump t.c.reads 1;
  bump t.c.bytes_read n;
  if stale > 0 then begin
    t.c.stale_reads <- t.c.stale_reads + 1;
    t.c.stale_bytes <- t.c.stale_bytes + stale
  end;
  { Fdata.data; stale_bytes = stale }

(* Crash ledger and post-crash check --------------------------------------- *)

let lose t ?(torn = false) r =
  let f = Hashtbl.find t.per_file r.file in
  let len = Bytes.length r.data in
  if torn then f.torn <- f.torn + len else f.lost <- f.lost + len;
  drop t r

let recovered t r n =
  let f = Hashtbl.find t.per_file r.file in
  f.recovered <- f.recovered + n

let lost_bytes t =
  Hashtbl.fold (fun _ f acc -> acc + f.lost + f.torn) t.per_file 0

type verdict = Clean | Recovered | Corrupted

type file_check = {
  c_path : string;
  c_verdict : verdict;
  c_recovered_bytes : int;
  c_lost_bytes : int;
  c_torn_bytes : int;
  c_pending_bytes : int;
}

type check = {
  files : file_check list;
  recovered_bytes : int;
  lost_bytes : int;
  torn_bytes : int;
  pending_bytes : int;
  clean : int;
  recovered : int;
  corrupted : int;
}

let check t =
  let paths = List.sort compare (Namespace.all_files (Pfs.namespace t.pfs)) in
  let files =
    List.map
      (fun path ->
        let recovered, lost, torn =
          match Hashtbl.find_opt t.per_file path with
          | Some f -> (f.recovered, f.lost, f.torn)
          | None -> (0, 0, 0)
        in
        let pending = pending_in_file t path in
        {
          c_path = path;
          c_verdict =
            (if lost + torn + pending > 0 then Corrupted
             else if recovered > 0 then Recovered
             else Clean);
          c_recovered_bytes = recovered;
          c_lost_bytes = lost;
          c_torn_bytes = torn;
          c_pending_bytes = pending;
        })
      paths
  in
  let count v = List.length (List.filter (fun f -> f.c_verdict = v) files) in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 files in
  {
    files;
    recovered_bytes = sum (fun f -> f.c_recovered_bytes);
    lost_bytes = sum (fun f -> f.c_lost_bytes);
    torn_bytes = sum (fun f -> f.c_torn_bytes);
    pending_bytes = sum (fun f -> f.c_pending_bytes);
    clean = count Clean;
    recovered = count Recovered;
    corrupted = count Corrupted;
  }

let pp_check ~prefix ppf c =
  Format.fprintf ppf "%s-fsck: %d files, %d clean, %d recovered, %d corrupted"
    prefix (List.length c.files) c.clean c.recovered c.corrupted;
  if c.recovered_bytes > 0 then
    Format.fprintf ppf "; %d B replayed from the log" c.recovered_bytes;
  if c.lost_bytes + c.torn_bytes > 0 then
    Format.fprintf ppf "; %d B lost, %d B torn" c.lost_bytes c.torn_bytes;
  if c.pending_bytes > 0 then
    Format.fprintf ppf "; %d B unreplayable" c.pending_bytes;
  List.iter
    (fun f ->
      if f.c_verdict <> Clean then
        Format.fprintf ppf "@.  %-24s %-9s recovered=%dB lost=%dB torn=%dB"
          f.c_path
          (if f.c_verdict = Recovered then "recovered" else "corrupted")
          f.c_recovered_bytes
          (f.c_lost_bytes + f.c_pending_bytes)
          f.c_torn_bytes)
    c.files

(* Statistics --------------------------------------------------------------- *)

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
  staged_bytes : int;
  drained_bytes : int;
  stalls : int;
  stalled_bytes : int;
  faults : int;
  retries : int;
  backoff_ticks : int;
  aborts : int;
  target_down : int;
  peak_occupancy : int;
  stale_reads : int;
  stale_bytes : int;
}

let stats t =
  let c = t.c in
  {
    writes = c.writes.n;
    reads = c.reads.n;
    bytes_written = c.bytes_written.n;
    bytes_read = c.bytes_read.n;
    staged_bytes = c.staged_bytes.n;
    drained_bytes = c.drained_bytes.n;
    stalls = c.stalls.n;
    stalled_bytes = c.stalled_bytes.n;
    faults = c.faults.n;
    retries = c.retries.n;
    backoff_ticks = c.backoff_ticks.n;
    aborts = c.aborts.n;
    target_down = c.target_down.n;
    peak_occupancy = c.peak_occupancy;
    stale_reads = c.stale_reads;
    stale_bytes = c.stale_bytes;
  }

(* The backend facade ------------------------------------------------------- *)

module type TIER = Staging_intf.TIER with type core := t
module type SURFACE = Staging_intf.SURFACE

module Surface (T : TIER) = struct
  let open_file tier ~time ~rank ?(create = false) ?(trunc = false) path =
    T.open_file tier ~time ~rank ~create ~trunc path

  let close_file = T.close_file
  let read = T.read
  let write = T.write
  let fsync = T.fsync
  let truncate = T.truncate
  let file_size tier path = file_size (T.core tier) path

  let backend tier =
    {
      Backend.pfs = (T.core tier).pfs;
      open_file =
        (fun ~time ~rank ~create ~trunc path ->
          T.open_file tier ~time ~rank ~create ~trunc path);
      close_file = (fun ~time ~rank path -> T.close_file tier ~time ~rank path);
      read =
        (fun ~time ~rank path ~off ~len ->
          T.read tier ~time ~rank path ~off ~len);
      write =
        (fun ~time ~rank path ~off data ->
          T.write tier ~time ~rank path ~off data);
      fsync = (fun ~time ~rank path -> T.fsync tier ~time ~rank path);
      truncate = (fun ~time path len -> T.truncate tier ~time path len);
      file_size = (fun path -> file_size tier path);
    }
end

let laminated pfs path =
  match Namespace.lookup_opt (Pfs.namespace pfs) path with
  | None -> false
  | Some file -> Fdata.is_laminated (Namespace.data file)

let touches_target pfs ~off ~len ~target =
  List.exists
    (fun (srv, _) -> srv = target)
    (Stripe.split_extent (Pfs.stripe pfs) (Interval.of_len off len))
