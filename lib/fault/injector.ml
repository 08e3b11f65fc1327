module Backend = Hpcfs_fs.Backend
module Fdata = Hpcfs_fs.Fdata
module Prng = Hpcfs_util.Prng
module Obs = Hpcfs_obs.Obs

exception Crashed of { rank : int; time : int; io_index : int }

type crash_event = {
  c_rank : int;
  c_trigger : Plan.trigger;
  c_restart : int option;
  mutable c_fired : bool;
}

(* A planned run of transient staging-device failures: burst-buffer drain
   attempts ([drainfail:]) or write-ahead-log appends ([logfail:]). *)
type device_fault = { f_node : int option; f_after : int; mutable f_left : int }

(* A storage failure scheduled by the plan.  [`Armed] → (fail fires at
   [te_at]) → [`Down] → (recovery, if scheduled, fires at
   [te_at + recover]) → [`Done]. *)
type target_event = {
  te_kind : [ `Ost | `Mds ];
  te_target : int;  (* -1 for the whole MDS, else the OST or MDS shard *)
  te_at : int;
  te_recover : int option;
  te_failover : bool;
  mutable te_phase : [ `Armed | `Down | `Done ];
}

type storage_action =
  | Fail_ost of { target : int; failover : bool }
  | Recover_ost of int
  | Fail_mds of { shard : int option }
  | Recover_mds of { shard : int option }

type t = {
  plan : Plan.t;
  tear_prng : Prng.t;  (* how many stripes of a torn write survive *)
  drain_prng : Prng.t;  (* backoff jitter of drain retries *)
  retry_prng : Prng.t;  (* backoff jitter of client journal retries *)
  log_prng : Prng.t;  (* backoff jitter of WAL append retries *)
  crashes : crash_event list;
  drains : device_fault list;
  log_events : device_fault list;
  log_cap : int option;  (* tightest planned [logcap=], if any *)
  target_events : target_event list;
  mutable storage_hook : (time:int -> storage_action -> unit) option;
  io_counts : (int, int ref) Hashtbl.t;
  injected_drain_faults : int ref;
  injected_log_faults : int ref;
}

let create plan =
  (* Independent deterministic streams per concern, split off the plan's
     seed: consuming jitter draws never perturbs tear decisions.  Splits
     only advance the parent, so adding a stream after the existing ones
     leaves their values untouched. *)
  let root = Prng.create plan.Plan.seed in
  let tear_prng = Prng.split root in
  let drain_prng = Prng.split root in
  let retry_prng = Prng.split root in
  let log_prng = Prng.split root in
  let crashes, drains, logs, log_cap, targets =
    List.fold_left
      (fun (cs, ds, ls, cap, ts) -> function
        | Plan.Rank_crash { rank; trigger; restart_delay } ->
          ( { c_rank = rank; c_trigger = trigger; c_restart = restart_delay;
              c_fired = false }
            :: cs,
            ds,
            ls,
            cap,
            ts )
        | Plan.Drain_fault { node; after; failures } ->
          ( cs,
            { f_node = node; f_after = after; f_left = failures } :: ds,
            ls,
            cap,
            ts )
        | Plan.Log_fail { node; after; failures } ->
          ( cs,
            ds,
            { f_node = node; f_after = after; f_left = failures } :: ls,
            cap,
            ts )
        | Plan.Log_cap { bytes } ->
          ( cs,
            ds,
            ls,
            Some (match cap with Some c -> min c bytes | None -> bytes),
            ts )
        | Plan.Ost_fail { target; at; recover; failover } ->
          ( cs,
            ds,
            ls,
            cap,
            { te_kind = `Ost; te_target = target; te_at = at;
              te_recover = recover; te_failover = failover; te_phase = `Armed }
            :: ts )
        | Plan.Mds_fail { at; recover; shard } ->
          ( cs,
            ds,
            ls,
            cap,
            { te_kind = `Mds;
              te_target = (match shard with Some k -> k | None -> -1);
              te_at = at; te_recover = recover;
              te_failover = false; te_phase = `Armed }
            :: ts ))
      ([], [], [], None, []) plan.Plan.events
  in
  {
    plan;
    tear_prng;
    drain_prng;
    retry_prng;
    log_prng;
    crashes = List.rev crashes;
    drains = List.rev drains;
    log_events = List.rev logs;
    log_cap;
    target_events = List.rev targets;
    storage_hook = None;
    io_counts = Hashtbl.create 8;
    injected_drain_faults = ref 0;
    injected_log_faults = ref 0;
  }

let drain_prng t = t.drain_prng
let retry_prng t = t.retry_prng
let log_prng t = t.log_prng
let keep_stripes t ~total = Prng.int t.tear_prng (total + 1)
let has_target_events t = t.target_events <> []
let has_log_events t = t.log_events <> [] || t.log_cap <> None
let log_cap t = t.log_cap

(* When the job can come back from an MDS failure: the earliest scheduled
   MDS recovery, [None] if the plan never recovers it. *)
let mds_restart_time t =
  List.fold_left
    (fun acc e ->
      match (e.te_kind, e.te_recover) with
      | `Mds, Some d -> (
        let at = e.te_at + d in
        match acc with Some a when a <= at -> acc | _ -> Some at)
      | _ -> acc)
    None t.target_events

let set_storage_hook t f = t.storage_hook <- Some f

(* Fire every due storage transition, in plan order, at its *scheduled*
   time — results depend on the plan, not on which operation first
   observed that the clock passed it.  Pre-op and scheduler-step callers
   keep the observation lag within one tick. *)
let advance_targets t ~time =
  match t.storage_hook with
  | None -> ()
  | Some hook ->
    List.iter
      (fun e ->
        (if e.te_phase = `Armed && time >= e.te_at then begin
           e.te_phase <- `Down;
           Obs.incr "fault.target_failures";
           match e.te_kind with
           | `Ost ->
             hook ~time:e.te_at
               (Fail_ost { target = e.te_target; failover = e.te_failover })
           | `Mds ->
             hook ~time:e.te_at
               (Fail_mds
                  { shard =
                      (if e.te_target < 0 then None else Some e.te_target) })
         end);
        match e.te_recover with
        | Some d when e.te_phase = `Down && time >= e.te_at + d ->
          e.te_phase <- `Done;
          hook ~time:(e.te_at + d)
            (match e.te_kind with
            | `Ost -> Recover_ost e.te_target
            | `Mds ->
              Recover_mds
                { shard =
                    (if e.te_target < 0 then None else Some e.te_target) })
        | _ -> ())
      t.target_events

let io_count t rank =
  match Hashtbl.find_opt t.io_counts rank with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.io_counts rank r;
    r

let fire t c ~rank ~time =
  (* [c_fired] has a single writer: events name one rank. *)
  c.c_fired <- true;
  Obs.incr "fault.crashes";
  Obs.event Obs.T_sched
    ~args:[ ("rank", string_of_int rank); ("time", string_of_int time) ]
    "crash";
  raise (Crashed { rank; time; io_index = !(io_count t rank) })

(* After every backend I/O call of [rank]: count it and fire any due crash.
   The triggering operation itself completes locally first — it is the
   in-flight write the crash model then tears. *)
let after_io t ~rank ~time =
  let count = io_count t rank in
  incr count;
  List.iter
    (fun c ->
      if (not c.c_fired) && c.c_rank = rank then
        match c.c_trigger with
        | Plan.At_io n when !count >= n -> fire t c ~rank ~time
        | Plan.At_time tt when time >= tt -> fire t c ~rank ~time
        | Plan.At_io _ | Plan.At_time _ -> ())
    t.crashes

(* Scheduler hook: kills the victim at a logical time even while it is
   blocked (e.g. in a barrier) or computing between I/O calls; also fires
   storage transitions so a target can fail while every rank computes. *)
let before_step t ~now rank =
  advance_targets t ~time:now;
  List.iter
    (fun c ->
      if (not c.c_fired) && c.c_rank = rank then
        match c.c_trigger with
        | Plan.At_time tt when now >= tt -> fire t c ~rank ~time:now
        | Plan.At_time _ | Plan.At_io _ -> ())
    t.crashes

(* The restart delay of the crash that just fired (the most recently fired
   unconsumed one): [None] when the plan says the job stays down. *)
let restart_delay_of t ~rank =
  List.find_map
    (fun c ->
      if c.c_fired && c.c_rank = rank then Some c.c_restart else None)
    (List.rev t.crashes)
  |> Option.join

(* Does one attempt on [node] fail?  The first matching planned event
   consumes one of its failures. *)
let device_fault events ~injected ~metric ~node ~time =
  match
    List.find_opt
      (fun f ->
        f.f_left > 0 && time >= f.f_after
        && match f.f_node with None -> true | Some n -> n = node)
      events
  with
  | None -> false
  | Some f ->
    f.f_left <- f.f_left - 1;
    incr injected;
    Obs.incr metric;
    true

let drain_fault t =
  device_fault t.drains ~injected:t.injected_drain_faults
    ~metric:"fault.drain_faults"

let log_fault t =
  device_fault t.log_events ~injected:t.injected_log_faults
    ~metric:"fault.log_faults"

let injected_drain_faults t = !(t.injected_drain_faults)
let injected_log_faults t = !(t.injected_log_faults)

(* Storage transitions fire before the operation (a write issued at or
   after the failure time must find the target already down), the
   operation runs, then the post-op crash triggers are evaluated. *)
let wrap_backend t (b : Backend.t) =
  {
    b with
    Backend.open_file =
      (fun ~time ~rank ~create ~trunc path ->
        advance_targets t ~time;
        let size = b.Backend.open_file ~time ~rank ~create ~trunc path in
        after_io t ~rank ~time;
        size);
    close_file =
      (fun ~time ~rank path ->
        advance_targets t ~time;
        b.Backend.close_file ~time ~rank path;
        after_io t ~rank ~time);
    read =
      (fun ~time ~rank path ~off ~len ->
        advance_targets t ~time;
        let r = b.Backend.read ~time ~rank path ~off ~len in
        after_io t ~rank ~time;
        r);
    write =
      (fun ~time ~rank path ~off data ->
        advance_targets t ~time;
        b.Backend.write ~time ~rank path ~off data;
        after_io t ~rank ~time);
    fsync =
      (fun ~time ~rank path ->
        advance_targets t ~time;
        b.Backend.fsync ~time ~rank path;
        after_io t ~rank ~time);
  }

(* What happened, for the report ------------------------------------------ *)

type crash_record = {
  cr_rank : int;
  cr_time : int;
  cr_io_index : int;
  cr_stats : Fdata.crash_stats;
  cr_per_file : (string * Fdata.crash_stats) list;
  cr_bb_lost_bytes : int;
  cr_wal_lost_bytes : int;
  cr_wal_torn_bytes : int;
}

type target_record = {
  tr_kind : [ `Ost | `Mds ];
  tr_target : int;  (** -1 for the MDS. *)
  tr_time : int;
  tr_failover : bool;
  tr_recover : int option;
  tr_stats : Fdata.crash_stats;
  tr_per_file : (string * Fdata.crash_stats) list;
  tr_evicted_locks : int;
}

type outcome = {
  o_plan : Plan.t;
  o_crashes : crash_record list;  (** In firing order. *)
  o_restarts : int;
  o_drain_faults : int;
  o_log_faults : int;
  o_target_failures : target_record list;  (** In firing order. *)
  o_journal : Hpcfs_fs.Journal.stats option;
  o_wal : Hpcfs_wal.Wal.stats option;
  o_check : Hpcfs_fs.Staging.check option;
}

let replayed_bytes outcome =
  match outcome.o_journal with
  | Some j -> j.Hpcfs_fs.Journal.replayed_bytes
  | None -> 0

let wal_recovered_bytes outcome =
  match outcome.o_wal with
  | Some w -> w.Hpcfs_wal.Wal.recovered_bytes
  | None -> 0

(* Total data loss of the run: whole-job crashes plus what storage-target
   failures dropped and the journal could not replay.  A replayed byte is
   not lost — the target records count the drop, so subtract what came
   back, clamped per-field at zero (replay restores bytes, not the
   original write records). *)
let crash_stats outcome =
  let crashes =
    List.fold_left
      (fun acc cr -> Fdata.add_crash_stats acc cr.cr_stats)
      Fdata.no_crash_stats outcome.o_crashes
  in
  let targets =
    List.fold_left
      (fun acc tr -> Fdata.add_crash_stats acc tr.tr_stats)
      Fdata.no_crash_stats outcome.o_target_failures
  in
  let target_lost = max 0 (targets.Fdata.lost_bytes - replayed_bytes outcome) in
  let total =
    Fdata.add_crash_stats crashes { targets with Fdata.lost_bytes = target_lost }
  in
  (* Same rule for the WAL: bytes its durable log re-replayed into the
     PFS after a crash or target failure are not lost. *)
  { total with
    Fdata.lost_bytes =
      max 0 (total.Fdata.lost_bytes - wal_recovered_bytes outcome);
  }

let bb_lost_bytes outcome =
  List.fold_left (fun acc cr -> acc + cr.cr_bb_lost_bytes) 0 outcome.o_crashes

let target_failure_count outcome = List.length outcome.o_target_failures
