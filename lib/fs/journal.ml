module Backoff = Hpcfs_util.Backoff
module Prng = Hpcfs_util.Prng
module Obs = Hpcfs_obs.Obs
module Domctx = Hpcfs_util.Domctx

type state = Applied | Parked | Dirty | Settled | Lost

type entry = {
  e_rank : int;
  e_path : string;
  e_time : int;
  e_off : int;
  mutable e_data : bytes;
  mutable e_state : state;
}

type t = {
  pfs : Pfs.t;
  retry : Backoff.policy;
  prng : Prng.t;
  (* Issue-order log, newest first; replay walks it reversed. *)
  mutable entries : entry list;
  (* Publication watermarks: the newest commit/close each client has
     completed, mirroring the engine's durability events. *)
  marks : Staging.Watermarks.t;
  replayed_per_file : (string, int) Hashtbl.t;
  mutable recorded : int;
  mutable recorded_bytes : int;
  mutable retries : int;
  mutable giveups : int;
  mutable backoff_ticks : int;
  mutable parked_writes : int;
  mutable replayed_writes : int;
  mutable replayed_bytes : int;
  (* Serializes the client-side log and retry accounting during a
     domain-parallel run; replay/inspection run single-threaded at
     superstep boundaries and stay lock-free. *)
  mu : Mutex.t;
}

let create ?(retry = Backoff.default) ~prng pfs =
  {
    pfs;
    retry;
    prng;
    entries = [];
    marks = Staging.Watermarks.create ();
    replayed_per_file = Hashtbl.create 16;
    recorded = 0;
    recorded_bytes = 0;
    retries = 0;
    giveups = 0;
    backoff_ticks = 0;
    parked_writes = 0;
    replayed_writes = 0;
    replayed_bytes = 0;
    mu = Mutex.create ();
  }

let pfs t = t.pfs

let locked t f = Domctx.locked t.mu f

(* Is [e] settled (durable under the engine) as of [time]? *)
let settled t e ~time =
  Staging.Watermarks.settled_at t.marks t.pfs ~rank:e.e_rank ~path:e.e_path
    ~issued:e.e_time ~time

let record t ~rank ~path ~time ~off data state =
  if Bytes.length data > 0 then locked t @@ fun () -> begin
    t.entries <-
      {
        e_rank = rank;
        e_path = path;
        e_time = time;
        e_off = off;
        e_data = Bytes.copy data;
        e_state = state;
      }
      :: t.entries;
    t.recorded <- t.recorded + 1;
    t.recorded_bytes <- t.recorded_bytes + Bytes.length data;
    if state = Parked then begin
      t.parked_writes <- t.parked_writes + 1;
      Obs.incr "fs.retry.parked_writes"
    end
  end

let note_commit t ~rank ~path ~time =
  locked t (fun () -> Staging.Watermarks.note_commit t.marks ~rank ~path ~time)

let note_close t ~rank ~path ~time =
  locked t (fun () -> Staging.Watermarks.note_close t.marks ~rank ~path ~time)

let on_target_fail t ~time ~target =
  List.iter
    (fun e ->
      if
        e.e_state = Applied
        && Staging.touches_target t.pfs ~off:e.e_off
             ~len:(Bytes.length e.e_data) ~target
      then
        if Staging.laminated t.pfs e.e_path || settled t e ~time then
          e.e_state <- Settled
        else e.e_state <- Dirty)
    t.entries

let on_truncate t path len =
  locked t @@ fun () ->
  List.iter
    (fun e ->
      if e.e_path = path && e.e_state <> Settled then
        if e.e_off >= len then begin
          e.e_data <- Bytes.empty;
          e.e_state <- Settled
        end
        else if e.e_off + Bytes.length e.e_data > len then
          e.e_data <- Bytes.sub e.e_data 0 (len - e.e_off))
    t.entries

let replay t ~time =
  let replayed = ref 0 in
  List.iter
    (fun e ->
      match e.e_state with
      | Parked | Dirty -> (
        try
          Pfs.write t.pfs ~time:e.e_time ~rank:e.e_rank e.e_path ~off:e.e_off
            e.e_data;
          e.e_state <- (if settled t e ~time then Settled else Applied);
          let len = Bytes.length e.e_data in
          replayed := !replayed + len;
          t.replayed_writes <- t.replayed_writes + 1;
          t.replayed_bytes <- t.replayed_bytes + len;
          Hashtbl.replace t.replayed_per_file e.e_path
            (len
            +
            match Hashtbl.find_opt t.replayed_per_file e.e_path with
            | Some n -> n
            | None -> 0);
          Obs.incr ~by:len "fs.retry.replayed_bytes"
        with Target.Target_down _ | Target.Mds_down _ -> ())
      | Applied | Settled | Lost -> ())
    (List.rev t.entries);
  !replayed

let mark_lost t =
  List.iter
    (fun e ->
      match e.e_state with
      | Parked | Dirty -> e.e_state <- Lost
      | Applied | Settled | Lost -> ())
    t.entries

(* Writes not (or no longer) in the PFS, and their bytes, among the
   entries [keep] selects. *)
let outstanding_where t keep =
  List.fold_left
    (fun (n, bytes) e ->
      match e.e_state with
      | (Parked | Dirty | Lost) when keep e ->
        (n + 1, bytes + Bytes.length e.e_data)
      | _ -> (n, bytes))
    (0, 0) t.entries

let file_outstanding t path = outstanding_where t (fun e -> e.e_path = path)
let outstanding t = outstanding_where t (fun _ -> true)

let file_replayed_bytes t path =
  match Hashtbl.find_opt t.replayed_per_file path with Some n -> n | None -> 0

type stats = {
  recorded : int;
  recorded_bytes : int;
  retries : int;
  giveups : int;
  backoff_ticks : int;
  parked_writes : int;
  replayed_writes : int;
  replayed_bytes : int;
  outstanding_writes : int;
  outstanding_bytes : int;
}

let stats t =
  let outstanding_writes, outstanding_bytes = outstanding t in
  {
    recorded = t.recorded;
    recorded_bytes = t.recorded_bytes;
    retries = t.retries;
    giveups = t.giveups;
    backoff_ticks = t.backoff_ticks;
    parked_writes = t.parked_writes;
    replayed_writes = t.replayed_writes;
    replayed_bytes = t.replayed_bytes;
    outstanding_writes;
    outstanding_bytes;
  }

(* The client retry loop.  Retries are accounted, not slept: the simulated
   clock is cooperative, and a target's state cannot change within one
   operation, so the loop deterministically exhausts its budget and the
   caller falls back (park the write, degrade the read, surface the
   error).  The backoff ticks it would have burned are still drawn from
   the seeded PRNG and summed, so availability costs show up in reports
   without perturbing the schedule. *)
let retrying t f =
  let rec go attempt =
    try Ok (f ())
    with
    | (Target.Target_down _ | Target.Mds_down _) as e ->
      if attempt < t.retry.Backoff.max_retries then begin
        (* The backoff draw mutates the shared PRNG: lock it in parallel
           runs.  Draw *order* across ranks is then scheduling-dependent,
           so retry-tick accounting under a live target failure is outside
           the parallel determinism contract (see DESIGN.md). *)
        locked t (fun () ->
            t.retries <- t.retries + 1;
            t.backoff_ticks <-
              t.backoff_ticks + Backoff.delay t.retry t.prng ~attempt);
        Obs.incr "fs.retry.attempts";
        go (attempt + 1)
      end
      else begin
        locked t (fun () -> t.giveups <- t.giveups + 1);
        Obs.incr "fs.retry.giveups";
        Error e
      end
  in
  go 0

let ok_or_raise = function Ok v -> v | Error e -> raise e

let wrap t (b : Backend.t) =
  {
    Backend.pfs = b.Backend.pfs;
    open_file =
      (fun ~time ~rank ~create ~trunc path ->
        ok_or_raise
          (retrying t (fun () -> b.Backend.open_file ~time ~rank ~create ~trunc path)));
    close_file =
      (fun ~time ~rank path ->
        b.Backend.close_file ~time ~rank path;
        note_close t ~rank ~path ~time);
    read =
      (fun ~time ~rank path ~off ~len ->
        match retrying t (fun () -> b.Backend.read ~time ~rank path ~off ~len) with
        | Ok r -> r
        | Error (Target.Target_down _) ->
          Pfs.read_degraded t.pfs ~time ~rank path ~off ~len
        | Error e -> raise e);
    write =
      (fun ~time ~rank path ~off data ->
        match retrying t (fun () -> b.Backend.write ~time ~rank path ~off data) with
        | Ok () -> record t ~rank ~path ~time ~off data Applied
        | Error (Target.Target_down _) ->
          record t ~rank ~path ~time ~off data Parked
        | Error e -> raise e);
    fsync =
      (fun ~time ~rank path ->
        b.Backend.fsync ~time ~rank path;
        note_commit t ~rank ~path ~time);
    truncate =
      (fun ~time path len ->
        ok_or_raise (retrying t (fun () -> b.Backend.truncate ~time path len));
        on_truncate t path len);
    file_size = b.Backend.file_size;
  }
