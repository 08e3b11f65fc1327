module Obs = Hpcfs_obs.Obs

type state = Up | Degraded | Down

exception Target_down of { target : int; time : int }
exception Mds_down of { time : int }

type counters = {
  failures : int;
  failovers : int;
  recoveries : int;
  mds_failures : int;
  mds_recoveries : int;
  rejected_ops : int;
}

type t = {
  count : int;
  states : state array;
  (* The metadata service's failure domain: one state per directory-
     partitioned shard (see {!Shardmap}).  A single-shard array is the
     legacy single-MDS behaviour. *)
  mds : state array;
  (* Fast-path flag: true iff every target is [Up] and the MDS is up, so
     the hot data path pays a single load when nothing has ever failed. *)
  mutable all_up : bool;
  mutable failures : int;
  mutable failovers : int;
  mutable recoveries : int;
  mutable mds_failures : int;
  mutable mds_recoveries : int;
  mutable rejected_ops : int;
}

let create ?(mds_shards = 1) ~count () =
  if count <= 0 then invalid_arg "Target.create: count must be positive";
  if mds_shards <= 0 then
    invalid_arg "Target.create: mds_shards must be positive";
  {
    count;
    states = Array.make count Up;
    mds = Array.make mds_shards Up;
    all_up = true;
    failures = 0;
    failovers = 0;
    recoveries = 0;
    mds_failures = 0;
    mds_recoveries = 0;
    rejected_ops = 0;
  }

let count t = t.count
let all_up t = t.all_up
let mds_shards t = Array.length t.mds

let mds_state t k =
  if k < 0 || k >= Array.length t.mds then
    invalid_arg "Target.mds_state: bad shard";
  t.mds.(k)

let mds_available t k = mds_state t k <> Down

let state t k =
  if k < 0 || k >= t.count then invalid_arg "Target.state: bad target";
  t.states.(k)

let available t k = state t k <> Down

let refresh t =
  t.all_up <-
    Array.for_all (fun s -> s = Up) t.mds
    && Array.for_all (fun s -> s = Up) t.states

let fail t ~time ~failover k =
  if k < 0 || k >= t.count then invalid_arg "Target.fail: bad target";
  t.states.(k) <- (if failover then Degraded else Down);
  t.failures <- t.failures + 1;
  if failover then t.failovers <- t.failovers + 1;
  refresh t;
  Obs.incr "fs.target.failures";
  if failover then Obs.incr "fs.target.failovers";
  Obs.event Obs.T_fs
    ~args:
      [
        ("target", string_of_int k);
        ("time", string_of_int time);
        ("failover", string_of_bool failover);
      ]
    "ost-fail"

let recover t ~time k =
  if k < 0 || k >= t.count then invalid_arg "Target.recover: bad target";
  if t.states.(k) <> Up then begin
    t.states.(k) <- Up;
    t.recoveries <- t.recoveries + 1;
    refresh t;
    Obs.incr "fs.target.recoveries";
    Obs.event Obs.T_fs
      ~args:[ ("target", string_of_int k); ("time", string_of_int time) ]
      "ost-recover"
  end

(* Without [shard] the whole metadata service fails/recovers (the legacy
   single-MDS plan events); with it only the named shard transitions.
   One plan event counts as one failure/recovery regardless of how many
   shards it touched. *)
let shard_range t = function
  | Some k ->
    if k < 0 || k >= Array.length t.mds then
      invalid_arg "Target: bad MDS shard";
    (k, k)
  | None -> (0, Array.length t.mds - 1)

let fail_mds ?shard t ~time =
  let lo, hi = shard_range t shard in
  let transitioned = ref false in
  for k = lo to hi do
    if t.mds.(k) <> Down then begin
      t.mds.(k) <- Down;
      transitioned := true
    end
  done;
  if !transitioned then begin
    t.mds_failures <- t.mds_failures + 1;
    refresh t;
    Obs.incr "fs.target.mds_failures";
    Obs.event Obs.T_fs
      ~args:
        (("time", string_of_int time)
        ::
        (match shard with
        | Some k -> [ ("shard", string_of_int k) ]
        | None -> []))
      "mds-fail"
  end

let recover_mds ?shard t ~time =
  let lo, hi = shard_range t shard in
  let transitioned = ref false in
  for k = lo to hi do
    if t.mds.(k) <> Up then begin
      t.mds.(k) <- Up;
      transitioned := true
    end
  done;
  if !transitioned then begin
    t.mds_recoveries <- t.mds_recoveries + 1;
    refresh t;
    Obs.incr "fs.target.mds_recoveries";
    Obs.event Obs.T_fs
      ~args:
        (("time", string_of_int time)
        ::
        (match shard with
        | Some k -> [ ("shard", string_of_int k) ]
        | None -> []))
      "mds-recover"
  end

let note_rejected t =
  t.rejected_ops <- t.rejected_ops + 1;
  Obs.incr "fs.target.rejected_ops"

let counters t =
  {
    failures = t.failures;
    failovers = t.failovers;
    recoveries = t.recoveries;
    mds_failures = t.mds_failures;
    mds_recoveries = t.mds_recoveries;
    rejected_ops = t.rejected_ops;
  }
