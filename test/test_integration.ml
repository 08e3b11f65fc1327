(* Cross-layer integration properties: random POSIX workloads executed
   through the full simulator stack, then checked for agreement between
   the live file system state and what the offline analysis reconstructs
   from the trace — plus consistency-model invariants over the same
   workloads. *)

module Sched = Hpcfs_sim.Sched
module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Posix = Hpcfs_posix.Posix
module Collector = Hpcfs_trace.Collector
module Offsets = Hpcfs_core.Offsets
module Overlap = Hpcfs_core.Overlap
module Conflict = Hpcfs_core.Conflict
module Access = Hpcfs_core.Access
module Interval = Hpcfs_util.Interval
module Profile = Hpcfs_core.Profile
module Report = Hpcfs_core.Report

(* A random workload step for one simulated process. *)
type step =
  | S_write of int (* length *)
  | S_read of int
  | S_pwrite of int * int (* offset, length *)
  | S_seek_set of int
  | S_seek_end of int
  | S_fsync
  | S_reopen of bool (* append? *)

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> S_write (1 + n)) (int_bound 64));
        (2, map (fun n -> S_read (1 + n)) (int_bound 64));
        (2, map2 (fun o n -> S_pwrite (o, 1 + n)) (int_bound 256) (int_bound 64));
        (1, map (fun o -> S_seek_set o) (int_bound 256));
        (1, map (fun o -> S_seek_end (-o)) (int_bound 16));
        (1, return S_fsync);
        (1, map (fun b -> S_reopen b) bool);
      ])

let workload_gen =
  QCheck.Gen.(
    let* nprocs = int_range 1 4 in
    let* steps = list_size (int_range 1 40) step_gen in
    return (nprocs, steps))

let arbitrary_workload =
  QCheck.make
    ~print:(fun (nprocs, steps) ->
      Printf.sprintf "%d procs, %d steps" nprocs (List.length steps))
    workload_gen

(* Execute the workload: every rank applies the same step list to its own
   file (sizes offset by rank so files differ). *)
let execute ?(semantics = Consistency.Strong) (nprocs, steps) =
  let pfs = Pfs.create semantics in
  let collector = Collector.create () in
  let ctx = Posix.make_ctx pfs collector in
  Sched.run ~nprocs (fun rank ->
      let path = Printf.sprintf "/w%d" rank in
      let fd =
        ref (Posix.openf ctx path [ Posix.O_RDWR; Posix.O_CREAT ])
      in
      List.iter
        (fun step ->
          match step with
          | S_write n -> ignore (Posix.write ctx !fd (Bytes.make n 'w'))
          | S_read n -> ignore (Posix.read ctx !fd n)
          | S_pwrite (off, n) ->
            ignore (Posix.pwrite ctx !fd ~off (Bytes.make n 'p'))
          | S_seek_set off -> ignore (Posix.lseek ctx !fd off Posix.SEEK_SET)
          | S_seek_end off ->
            (* Clamp: lseek rejects negative positions. *)
            let size = Pfs.file_size pfs path in
            let off = max (-size) off in
            ignore (Posix.lseek ctx !fd off Posix.SEEK_END)
          | S_fsync -> Posix.fsync ctx !fd
          | S_reopen append ->
            Posix.close ctx !fd;
            let flags =
              if append then [ Posix.O_RDWR; Posix.O_APPEND ]
              else [ Posix.O_RDWR ]
            in
            fd := Posix.openf ctx path flags)
        steps;
      Posix.close ctx !fd);
  (pfs, Collector.records collector)

(* Property: the offline offset reconstruction recovers the exact file
   sizes the live file system ended up with. *)
let prop_reconstructed_sizes_match =
  QCheck.Test.make ~name:"offsets reconstruction matches live file sizes"
    ~count:150 arbitrary_workload (fun workload ->
      let nprocs, _ = workload in
      let pfs, records = execute workload in
      let resolved = Offsets.resolve records in
      let size_of_accesses path =
        List.fold_left
          (fun acc a ->
            if a.Access.file = path && Access.is_write a then
              max acc a.Access.iv.Interval.hi
            else acc)
          0 resolved.Offsets.accesses
      in
      resolved.Offsets.skipped = 0
      && List.for_all
           (fun rank ->
             let path = Printf.sprintf "/w%d" rank in
             size_of_accesses path = Pfs.file_size pfs path)
           (List.init nprocs Fun.id))

(* Property: no workload is ever stale under strong semantics, and each
   rank working on its own file is never stale under any semantics
   (read-your-writes). *)
let prop_private_files_never_stale =
  QCheck.Test.make ~name:"private files never stale under any semantics"
    ~count:100 arbitrary_workload (fun workload ->
      List.for_all
        (fun semantics ->
          let pfs, _ = execute ~semantics workload in
          (Pfs.stats pfs).Pfs.stale_reads = 0)
        [ Consistency.Strong; Consistency.Commit; Consistency.Session;
          Consistency.Eventual { delay = 10 } ])

(* Property: on trace-derived accesses, every commit-semantics conflict is
   also a session-semantics conflict (a close is a commit, so whatever
   session tolerates, commit tolerates too). *)
let prop_commit_conflicts_subset_of_session =
  QCheck.Test.make ~name:"commit conflicts are a subset of session conflicts"
    ~count:150 arbitrary_workload (fun workload ->
      let _, records = execute workload in
      let resolved = Offsets.resolve records in
      let pairs = Overlap.detect resolved.Offsets.accesses in
      let key c =
        (c.Conflict.first.Access.time, c.Conflict.second.Access.time)
      in
      let commit =
        List.map key (Conflict.of_pairs Conflict.Commit_semantics pairs)
      in
      let session =
        List.map key (Conflict.of_pairs Conflict.Session_semantics pairs)
      in
      List.for_all (fun k -> List.mem k session) commit)

(* Property: the two conflict-checking methods of Section 5.2 agree on
   arbitrary trace-derived workloads. *)
let prop_conflict_modes_agree =
  QCheck.Test.make ~name:"annotated and table modes agree on random traces"
    ~count:150 arbitrary_workload (fun workload ->
      let _, records = execute workload in
      let resolved = Offsets.resolve records in
      let pairs = Overlap.detect resolved.Offsets.accesses in
      let key c =
        (c.Conflict.first.Access.time, c.Conflict.second.Access.time)
      in
      List.for_all
        (fun semantics ->
          let a =
            List.sort compare
              (List.map key (Conflict.of_pairs ~mode:Conflict.Annotated semantics pairs))
          in
          let b =
            List.sort compare
              (List.map key
                 (Conflict.of_pairs
                    ~mode:(Conflict.Tables resolved.Offsets.events)
                    semantics pairs))
          in
          a = b)
        [ Conflict.Commit_semantics; Conflict.Session_semantics ])

(* Property: profile bookkeeping is consistent with the analysis. *)
let prop_profile_consistent =
  QCheck.Test.make ~name:"profile totals match analysis" ~count:80
    arbitrary_workload (fun workload ->
      let nprocs, _ = workload in
      let _, records = execute workload in
      let profile = Profile.build records in
      let file_reads = List.fold_left (fun a f -> a + f.Profile.f_reads) 0 profile.Profile.files in
      let file_writes = List.fold_left (fun a f -> a + f.Profile.f_writes) 0 profile.Profile.files in
      let reads, writes =
        List.fold_left
          (fun (r, w) a ->
            if Access.is_write a then (r, w + 1) else (r + 1, w))
          (0, 0) (Offsets.resolve records).Offsets.accesses
      in
      profile.Profile.total_records = List.length records
      && file_reads = reads && file_writes = writes
      && reads + writes = (Report.analyze ~nprocs records).Report.access_count
      && List.fold_left (fun a (_, _, n) -> a + n) 0 profile.Profile.size_histogram
         = reads + writes)

(* Deterministic replay: the same workload produces an identical trace. *)
let prop_deterministic_replay =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:50
    arbitrary_workload (fun workload ->
      let _, r1 = execute workload in
      let _, r2 = execute workload in
      List.equal
        (fun a b ->
          Hpcfs_trace.Record.to_line a = Hpcfs_trace.Record.to_line b)
        r1 r2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_reconstructed_sizes_match;
    QCheck_alcotest.to_alcotest prop_private_files_never_stale;
    QCheck_alcotest.to_alcotest prop_commit_conflicts_subset_of_session;
    QCheck_alcotest.to_alcotest prop_conflict_modes_agree;
    QCheck_alcotest.to_alcotest prop_profile_consistent;
    QCheck_alcotest.to_alcotest prop_deterministic_replay;
  ]
