module Backoff = Hpcfs_util.Backoff
module Prng = Hpcfs_util.Prng
module Obs = Hpcfs_obs.Obs

(* Every journaled write is a {!Staging.record}: [Pending] was parked by a
   down target, or was applied and then lost its volatile copy to a target
   failure; [Applied] is in the PFS, unsettled as far as the journal last
   looked; [Dropped] is settled, truncated away or — tallied lost in the
   core's ledger — given up on by the fsck. *)
type t = {
  core : Staging.t;
  retry : Backoff.policy;
  prng : Prng.t;
  mutable recorded : int;
  mutable retries : int;
  mutable giveups : int;
  mutable backoff_ticks : int;
  mutable parked_writes : int;
  mutable replayed_writes : int;
  mutable lost_writes : int;
}

let create ?(retry = Backoff.default) ~prng pfs =
  {
    (* The journal keeps the [fs.retry.*] counter names.  It never paces a
       drain, stalls or installs a fault hook, so their names go unused;
       with one rank per node its per-node bytes are per-rank. *)
    core =
      Staging.create ~prefix:"fs.retry" ~staged:"recorded_bytes"
        ~drained:"replayed_bytes" ~fault:"journal"
        ~events:("journal-replay", "journal-stall")
        ~ranks_per_node:1 ~retry pfs;
    retry;
    prng;
    recorded = 0;
    retries = 0;
    giveups = 0;
    backoff_ticks = 0;
    parked_writes = 0;
    replayed_writes = 0;
    lost_writes = 0;
  }

let pfs t = Staging.pfs t.core
let core t = t.core

let record t ~rank ~path ~time ~off data ~parked =
  if Bytes.length data > 0 then begin
    let r = Staging.append t.core ~time ~rank path ~off data in
    t.recorded <- t.recorded + 1;
    if parked then begin
      t.parked_writes <- t.parked_writes + 1;
      Obs.incr "fs.retry.parked_writes"
    end
    else Staging.mark_applied t.core r
  end

(* Target [target] lost its volatile chunks: an applied record on it that
   the PFS had persisted needs nothing more; any other returns to the
   replay set. *)
let on_target_fail t ~time ~target =
  let pfs = pfs t in
  Staging.iter_files t.core (fun path q ->
      Queue.iter
        (fun (r : Staging.record) ->
          if
            r.state = Applied
            && Staging.touches_target pfs ~off:r.off ~len:(Bytes.length r.data)
                 ~target
          then
            r.state <-
              (if Pfs.settled pfs ~rank:r.rank ~path ~issued:r.time ~time
               then Dropped
               else Pending))
        q);
  Staging.resync t.core

(* Every replay is a recovery: the journal only replays what a failure
   took from the PFS or refused. *)
let replay t =
  Staging.drain_all t.core ~replay:(fun r ->
      let n = Staging.replay t.core r in
      if n > 0 then begin
        t.replayed_writes <- t.replayed_writes + 1;
        Staging.recovered t.core r n
      end;
      n)

(* The fsck: a final replay pass, and what still cannot land is lost. *)
let check t =
  ignore (replay t);
  Staging.iter_backlog t.core (fun r ->
      t.lost_writes <- t.lost_writes + 1;
      Staging.lose t.core r);
  Staging.check t.core

let outstanding t =
  let n = ref t.lost_writes in
  Staging.iter_backlog t.core (fun _ -> incr n);
  (!n, Staging.occupancy t.core + Staging.lost_bytes t.core)

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
  let c = Staging.stats t.core in
  let outstanding_writes, outstanding_bytes = outstanding t in
  {
    recorded = t.recorded;
    recorded_bytes = c.staged_bytes;
    retries = t.retries;
    giveups = t.giveups;
    backoff_ticks = t.backoff_ticks;
    parked_writes = t.parked_writes;
    replayed_writes = t.replayed_writes;
    replayed_bytes = c.drained_bytes;
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
        t.retries <- t.retries + 1;
        t.backoff_ticks <-
          t.backoff_ticks + Backoff.delay t.retry t.prng ~attempt;
        Obs.incr "fs.retry.attempts";
        go (attempt + 1)
      end
      else begin
        t.giveups <- t.giveups + 1;
        Obs.incr "fs.retry.giveups";
        Error e
      end
  in
  go 0

let ok_or_raise = function Ok v -> v | Error e -> raise e

let wrap t (b : Backend.t) =
  {
    b with
    Backend.open_file =
      (fun ~time ~rank ~create ~trunc path ->
        ok_or_raise
          (retrying t (fun () -> b.Backend.open_file ~time ~rank ~create ~trunc path)));
    read =
      (fun ~time ~rank path ~off ~len ->
        match retrying t (fun () -> b.Backend.read ~time ~rank path ~off ~len) with
        | Ok r -> r
        | Error (Target.Target_down _) ->
          Pfs.read_degraded (pfs t) ~time ~rank path ~off ~len
        | Error e -> raise e);
    write =
      (fun ~time ~rank path ~off data ->
        match retrying t (fun () -> b.Backend.write ~time ~rank path ~off data) with
        | Ok () -> record t ~rank ~path ~time ~off data ~parked:false
        | Error (Target.Target_down _) ->
          record t ~rank ~path ~time ~off data ~parked:true
        | Error e -> raise e);
    truncate =
      (fun ~time path len ->
        ok_or_raise (retrying t (fun () -> b.Backend.truncate ~time path len));
        Staging.truncate t.core path len);
  }
