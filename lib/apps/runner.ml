module Sched = Hpcfs_sim.Sched
module Psched = Hpcfs_sim.Psched
module Mpi = Hpcfs_mpi.Mpi
module Pfs = Hpcfs_fs.Pfs
module Posix = Hpcfs_posix.Posix
module Mpiio = Hpcfs_mpiio.Mpiio
module Collector = Hpcfs_trace.Collector
module Prng = Hpcfs_util.Prng
module Tier = Hpcfs_bb.Tier
module Wal = Hpcfs_wal.Wal
module Obs = Hpcfs_obs.Obs
module Injector = Hpcfs_fault.Injector
module Plan = Hpcfs_fault.Plan
module Journal = Hpcfs_fs.Journal
module Recovery = Hpcfs_fs.Recovery
module Target = Hpcfs_fs.Target
module Md = Hpcfs_md.Service

type result = {
  records : Hpcfs_trace.Record.t list;
  events : Mpi.event list Lazy.t;
  stats : Pfs.stats;
  md : Md.stats;
  pfs : Pfs.t;
  tier : Tier.t option;
  wal : Wal.t option;
  nprocs : int;
  faults : Injector.outcome option;
}

type env = {
  comm : Mpi.comm;
  posix : Posix.ctx;
  mpiio : Mpiio.ctx;
  tier : Tier.t option;
  nprocs : int;
  seed : int;
  attempt : int;
}

(* The faulted execution: the same job, but under an injector that can kill
   a rank (aborting the whole MPI job, fail-stop) and fail drain attempts.
   After a crash the PFS reconciles pending data per its consistency model
   and — when the plan schedules a restart — the body re-runs on the
   surviving file system with the logical clock continued past the crash,
   the recovery path of checkpoint/restart practice. *)
(* Dispatch one simulation to the legacy single-domain scheduler or, when
   [domains] is given, to the superstep-parallel one.  The parallel path
   pre-sizes every lazily initialised per-rank table first so no two
   ranks race on first touch. *)
let sched_run ?clock ?before_step ~domains ~nprocs body =
  match domains with
  | None -> Sched.run ?clock ?before_step ~nprocs body
  | Some d -> Psched.run ?clock ?before_step ~domains:d ~nprocs body

let prepare_parallel ~domains ~nprocs ~comm ~posix ~mpiio ~inj =
  if domains <> None then begin
    Mpi.prepare comm ~nprocs;
    Posix.prepare posix ~nprocs;
    ignore (Mpiio.aggregators mpiio);
    Option.iter (fun i -> Injector.prepare i ~nprocs) inj
  end

(* The staging tier a run goes through, if any, and the backend the POSIX
   layer sees: the burst buffer, the write-ahead log or the bare PFS. *)
let staging ~tier ~wal pfs =
  let tier = Option.map (fun config -> Tier.create ~config pfs) tier in
  let wal = Option.map (fun config -> Wal.create ~config pfs) wal in
  let backend =
    match (tier, wal) with
    | Some t, _ -> Tier.backend t
    | None, Some w -> Wal.backend w
    | None, None -> Hpcfs_fs.Backend.of_pfs pfs
  in
  (tier, wal, backend)

(* End of job: whatever is still buffered reaches the PFS, as a real burst
   buffer's epilogue stage-out would ensure.  Surviving nodes' buffers are
   nonvolatile, so this holds after a crash too. *)
let epilogue_drain ~tier ~wal =
  Option.iter
    (fun t ->
      Obs.span Obs.T_bb "epilogue-drain" (fun () ->
          ignore (Tier.drain_all t ())))
    tier;
  Option.iter
    (fun w ->
      Obs.span Obs.T_bb "epilogue-drain" (fun () -> ignore (Wal.drain_all w)))
    wal

let run_faulted ~domains ~nprocs ~seed ~cb_nodes ~pfs ~mds ~collector ~tier
    ~wal ~backend:base_backend ~plan body =
  let inj = Injector.create plan in
  Option.iter
    (fun t ->
      Tier.set_fault t ~prng:(Injector.drain_prng inj)
        (Some (fun ~node ~time -> Injector.drain_fault inj ~node ~time)))
    tier;
  Option.iter
    (fun w ->
      (* Like the drain hook: installed only when the plan has log events,
         so other plans leave the WAL code path untouched. *)
      if Injector.has_log_events inj then begin
        Wal.set_fault w ~prng:(Injector.log_prng inj)
          (Some (fun ~node ~time -> Injector.log_fault inj ~node ~time));
        Wal.set_cap_override w (Injector.log_cap inj)
      end)
    wal;
  (* The client journal exists only when the plan can fail storage: without
     an ostfail/mdsfail event the backend chain — and every byte of output —
     is identical to a build without the failure domain.  A WAL-tiered run
     never journals: the WAL parks, replays and fscks its own records. *)
  let journal =
    if Injector.has_target_events inj && wal = None then
      Some (Journal.create ~prng:(Injector.retry_prng inj) pfs)
    else None
  in
  let backend =
    Injector.wrap_backend inj
      (match journal with
      | None -> base_backend
      | Some j -> Journal.wrap j base_backend)
  in
  let comms = ref [] in
  let crashes = ref [] in
  let restarts = ref 0 in
  let target_records = ref [] in
  (* The recovery delay the plan attached to the storage event that fires
     at [at] (scheduled times are unique enough per kind+target). *)
  let recover_of ~kind ~target ~at =
    List.find_map
      (function
        | Plan.Ost_fail { target = k; at = a; recover; _ }
          when kind = `Ost && k = target && a = at ->
          Some recover
        | Plan.Mds_fail { at = a; recover; _ } when kind = `Mds && a = at ->
          Some recover
        | _ -> None)
      plan.Plan.events
    |> Option.join
  in
  let replay_journal ~time =
    Option.iter (fun j -> ignore (Journal.replay j ~time)) journal
  in
  if Injector.has_target_events inj then
    Injector.set_storage_hook inj (fun ~time action ->
        match action with
        | Injector.Fail_ost { target; failover } ->
          let tr_stats, tr_per_file, _ranks, tr_evicted_locks =
            Obs.span Obs.T_fs "target-fail" (fun () ->
                Pfs.fail_target pfs ~time ~failover target)
          in
          Option.iter (fun j -> Journal.on_target_fail j ~time ~target) journal;
          Option.iter
            (fun w ->
              Wal.on_target_fail w ~time ~target;
              (* The failover replica serves immediately; re-replay the
                 parked records into it on the spot. *)
              if failover then ignore (Wal.drain_all w))
            wal;
          target_records :=
            {
              Injector.tr_kind = `Ost;
              tr_target = target;
              tr_time = time;
              tr_failover = failover;
              tr_recover = recover_of ~kind:`Ost ~target ~at:time;
              tr_stats;
              tr_per_file;
              tr_evicted_locks;
            }
            :: !target_records;
          (* A failover replica serves immediately: the journal replays its
             dirty entries into the replica on the spot. *)
          if failover then replay_journal ~time
        | Injector.Recover_ost target ->
          Pfs.recover_target pfs ~time target;
          replay_journal ~time;
          Option.iter (fun w -> ignore (Wal.drain_all w)) wal
        | Injector.Fail_mds { shard } ->
          Pfs.fail_mds ?shard pfs ~time;
          let tr_target = match shard with Some k -> k | None -> -1 in
          target_records :=
            {
              Injector.tr_kind = `Mds;
              tr_target;
              tr_time = time;
              tr_failover = false;
              tr_recover = recover_of ~kind:`Mds ~target:tr_target ~at:time;
              tr_stats = Hpcfs_fs.Fdata.no_crash_stats;
              tr_per_file = [];
              tr_evicted_locks = 0;
            }
            :: !target_records
        | Injector.Recover_mds { shard } -> Pfs.recover_mds ?shard pfs ~time);
  let rec attempt_loop ~clock ~attempt =
    (* Each attempt is a fresh job launch: new communicator, new library
       state, new open-file table — only the storage carries over.  Client
       metadata caches die with the clients; the service (shard loads,
       counters) carries over like the storage does. *)
    Hpcfs_hdf5.Hdf5.reset_registries ();
    if attempt > 0 then Md.reset_clients mds;
    let posix = Posix.make_ctx_backend ~mds backend collector in
    let comm = Mpi.world () in
    let mpiio = Mpiio.make_ctx ~cb_nodes posix comm in
    prepare_parallel ~domains ~nprocs ~comm ~posix ~mpiio ~inj:(Some inj);
    let env = { comm; posix; mpiio; tier; nprocs; seed; attempt } in
    let status =
      try
        Obs.span Obs.T_sched "simulate"
          ~args:
            [
              ("nprocs", string_of_int nprocs);
              ("attempt", string_of_int attempt);
            ]
          (fun () ->
            sched_run ~clock ~domains
              ~before_step:(fun r ->
                Injector.before_step inj ~now:(Sched.now ()) r)
              ~nprocs
              (fun _rank ->
                Mpi.barrier comm;
                body env;
                Mpi.barrier comm));
        `Done
      with
      | Injector.Crashed { rank; time; io_index } ->
        `Crashed (rank, time, io_index)
      | Target.Mds_down { time } -> `Mds_down time
    in
    comms := comm :: !comms;
    match status with
    | `Done -> ()
    | `Crashed (rank, time, io_index) ->
      abort ~attempt ~victim:(Some rank) ~time ~io_index
    | `Mds_down time ->
      (* A metadata-server failure aborts the job fail-stop (every rank's
         next open/truncate would hang): reconcile pending data exactly
         like a whole-job crash, with no victim — every host (and its
         log) survives, recorded as the synthetic rank -1. *)
      abort ~attempt ~victim:None ~time ~io_index:0
  and abort ~attempt ~victim ~time ~io_index =
    (* The victim's node-local buffer dies with it; undrained bytes are
       gone before the PFS even reconciles. *)
    let bb_lost =
      match (tier, victim) with
      | Some t, Some rank ->
        Tier.crash_node t ~node:(Tier.node_of_rank t rank) ~time
      | _ -> 0
    in
    (* The WAL applies the crash *before* the PFS reconciles: the victim
       node's un-flushed log tail dies (torn at a record boundary), and
       applied-but-unpublished records revert to the surviving log so the
       post-restart replay rebuilds what the PFS is about to drop. *)
    let wal_summary =
      match wal with
      | None -> { Wal.lost_bytes = 0; torn_bytes = 0 }
      | Some w ->
        Wal.on_crash w ?victim:(Option.map (Wal.node_of_rank w) victim) ~time ()
    in
    let stats, per_file =
      Obs.span Obs.T_fs "crash-reconcile" (fun () ->
          Pfs.crash pfs ~time
            ~keep_stripes:(fun ~total -> Injector.keep_stripes inj ~total)
            ())
    in
    (* The lock manager fences the dead client: its grants cannot outlive
       it (a restarted rank is a new client to the server). *)
    Option.iter (fun rank -> ignore (Pfs.evict_client pfs ~client:rank)) victim;
    crashes :=
      {
        Injector.cr_rank = Option.value victim ~default:(-1);
        cr_time = time;
        cr_io_index = io_index;
        cr_stats = stats;
        cr_per_file = per_file;
        cr_bb_lost_bytes = bb_lost;
        cr_wal_lost_bytes = wal_summary.Wal.lost_bytes;
        cr_wal_torn_bytes = wal_summary.Wal.torn_bytes;
      }
      :: !crashes;
    let restart =
      match victim with
      | Some rank ->
        Option.map
          (fun delay -> time + delay)
          (Injector.restart_delay_of inj ~rank)
      | None ->
        Option.map
          (fun at -> max at (time + 1))
          (Injector.mds_restart_time inj)
    in
    Option.iter
      (fun clock ->
        incr restarts;
        Obs.incr "fault.restarts";
        attempt_loop ~clock ~attempt:(attempt + 1))
      restart
  in
  attempt_loop ~clock:0 ~attempt:0;
  (* Flush storage transitions scheduled after the job's last step (e.g. a
     recovery during the epilogue window), then give the journal its final
     replay: an fsck pass that classifies every file. *)
  let epilogue_time = 1 lsl 40 in
  if Injector.has_target_events inj then
    Injector.advance_targets inj ~time:epilogue_time;
  epilogue_drain ~tier ~wal;
  let recovery =
    Option.map
      (fun j ->
        Obs.span Obs.T_fs "fsck" (fun () ->
            Recovery.check j ~time:epilogue_time))
      journal
  in
  let wal_check =
    Option.map (fun w -> Obs.span Obs.T_fs "fsck" (fun () -> Wal.check w)) wal
  in
  (* Each attempt's log in attempt order, sorted only if someone asks. *)
  let attempts = List.rev !comms in
  ( lazy (List.concat_map Mpi.events attempts),
    {
      Injector.o_plan = plan;
      o_crashes = List.rev !crashes;
      o_restarts = !restarts;
      o_drain_faults = Injector.injected_drain_faults inj;
      o_log_faults = Injector.injected_log_faults inj;
      o_target_failures = List.rev !target_records;
      o_journal = Option.map Journal.stats journal;
      o_recovery = recovery;
      o_wal = Option.map Wal.stats wal;
      o_wal_check = wal_check;
    } )

let run ?obs ?(semantics = Hpcfs_fs.Consistency.Strong) ?(local_order = true)
    ?(nprocs = 64) ?(seed = 42) ?(cb_nodes = 6) ?(mds_shards = 1) ?tier ?wal
    ?faults ?domains body =
  (match (tier, wal) with
  | Some _, Some _ ->
    invalid_arg "Runner.run: give at most one of ?tier and ?wal"
  | _ -> ());
  (* HPCFS_DOMAINS supplies a default when the caller leaves [domains]
     unset — the tier-1 suite runs unchanged under the parallel scheduler
     (CI exercises it at 4), possible only because traces are
     bit-identical across domain counts.  Faulted runs are exempt from
     the env default: a crash aborts the legacy scheduler mid-round
     (later ranks lose that round's slice) but aborts Psched only at the
     superstep boundary (every slice completes), so the two schedulers
     produce different — each internally deterministic — lost-byte
     accounting.  Tests lock the legacy numbers; Psched's faulted
     determinism is locked separately in test_psched.  An explicit
     [?domains] always wins. *)
  let domains =
    match (domains, faults) with
    | Some _, _ -> domains
    | None, Some _ -> None
    | None, None -> (
      match Sys.getenv_opt "HPCFS_DOMAINS" with
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some d when d > 1 -> Some d
        | Some _ | None -> None)
      | None -> None)
  in
  let go () =
    Hpcfs_hdf5.Hdf5.reset_registries ();
    let pfs = Pfs.create ~local_order ~mds_shards semantics in
    (* A plan naming a target or shard this PFS lacks is refused before
       anything runs. *)
    Option.iter
      (fun plan ->
        let tg = Pfs.targets pfs in
        Plan.check plan ~targets:(Target.count tg)
          ~mds_shards:(Target.mds_shards tg)
        |> Result.iter_error (fun msg -> raise (Plan.Invalid msg)))
      faults;
    let mds = Md.create pfs in
    let collector = Collector.create () in
    let tier, wal, backend = staging ~tier ~wal pfs in
    let events, faults =
      match faults with
      | Some plan ->
        let events, outcome =
          run_faulted ~domains ~nprocs ~seed ~cb_nodes ~pfs ~mds ~collector
            ~tier ~wal ~backend ~plan body
        in
        (events, Some outcome)
      | None ->
        let posix = Posix.make_ctx_backend ~mds backend collector in
        let comm = Mpi.world () in
        let mpiio = Mpiio.make_ctx ~cb_nodes posix comm in
        prepare_parallel ~domains ~nprocs ~comm ~posix ~mpiio ~inj:None;
        let env = { comm; posix; mpiio; tier; nprocs; seed; attempt = 0 } in
        Obs.span Obs.T_sched "simulate"
          ~args:[ ("nprocs", string_of_int nprocs) ]
          (fun () ->
            sched_run ~domains ~nprocs (fun _rank ->
                Mpi.barrier comm;
                body env;
                Mpi.barrier comm));
        epilogue_drain ~tier ~wal;
        (lazy (Mpi.events comm), None)
    in
    {
      records = Collector.records collector;
      events;
      stats = Pfs.stats pfs;
      md = Md.stats mds;
      pfs;
      tier;
      wal;
      nprocs;
      faults;
    }
  in
  match obs with None -> go () | Some sink -> Obs.with_sink sink go

(* In a tiered run the application observes the tier's composite reads,
   not the raw PFS reads underneath them, so staleness is the tier's. *)
let stale_reads (r : result) =
  match (r.tier, r.wal) with
  | Some t, _ -> (Tier.stats t).Tier.core.stale_reads
  | None, Some w -> (Wal.stats w).Wal.core.stale_reads
  | None, None -> r.stats.Pfs.stale_reads

let rank_prng env =
  Prng.create ((env.seed * 1_000_003) + Sched.self ())
