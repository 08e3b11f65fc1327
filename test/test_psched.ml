(* The domain-parallel superstep scheduler: clock-merge determinism,
   scheduler semantics at several domain counts, the reentrancy guard,
   the HPCFS_SCHED_DEBUG monotonicity assertion, and the QCheck property
   that random workloads trace bit-identically for any domain count. *)

module Sched = Hpcfs_sim.Sched
module Psched = Hpcfs_sim.Psched
module Mpi = Hpcfs_mpi.Mpi
module Runner = Hpcfs_apps.Runner
module Registry = Hpcfs_apps.Registry
module Report = Hpcfs_core.Report
module Consistency = Hpcfs_fs.Consistency
module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile
module Wl_gen = Hpcfs_oracle.Wl_gen
module Plan = Hpcfs_fault.Plan

(* Scheduler semantics, per domain count --------------------------------- *)

let domain_counts = [ 1; 2; 4 ]

let for_domains f = List.iter f domain_counts

let test_all_ranks_run () =
  for_domains (fun d ->
      let seen = Array.make 8 false in
      Psched.run ~domains:d ~nprocs:8 (fun r -> seen.(r) <- true);
      Alcotest.(check bool)
        (Printf.sprintf "all ranks ran at domains=%d" d)
        true
        (Array.for_all Fun.id seen))

let test_self_and_nprocs () =
  for_domains (fun d ->
      Test_util.per_rank ~domains:d ~nprocs:6 (fun _ ->
          (Sched.self (), Sched.nprocs ()))
      |> Array.iteri (fun r (self, nprocs) ->
             Alcotest.(check int) "self" r self;
             Alcotest.(check int) "nprocs" 6 nprocs))

(* The clock merge: tick streams are globally unique and — the tentpole
   property — identical for every domain count. *)
let test_ticks_unique_and_domain_independent () =
  let capture d =
    let ticks = Array.make 8 [] in
    Psched.run ~domains:d ~nprocs:8 (fun r ->
        for _ = 1 to 10 do
          ticks.(r) <- Sched.tick () :: ticks.(r);
          Sched.yield ()
        done);
    ticks
  in
  let base = capture 1 in
  let all = Array.to_list base |> List.concat |> List.sort compare in
  Alcotest.(check int) "count" 80 (List.length all);
  Alcotest.(check int) "all unique" 80
    (List.length (List.sort_uniq compare all));
  for_domains (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "tick streams identical at domains=%d" d)
        true
        (capture d = base))

let test_wait_until_and_now () =
  for_domains (fun d ->
      let flag = ref false in
      let woke_at = ref 0 in
      Psched.run ~domains:d ~nprocs:2 (fun r ->
          if r = 0 then begin
            Sched.wait_until (fun () -> !flag);
            woke_at := Sched.now ()
          end
          else begin
            ignore (Sched.tick ());
            flag := true
          end);
      Alcotest.(check bool) "waiter woke after setter ticked" true
        (!woke_at >= 0))

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock raises"
    (Sched.Deadlock "ranks blocked: 0,1") (fun () ->
      Psched.run ~domains:2 ~nprocs:2 (fun _ ->
          Sched.wait_until (fun () -> false)))

let test_exception_propagates () =
  for_domains (fun d ->
      Alcotest.check_raises "body exception escapes" Exit (fun () ->
          Psched.run ~domains:d ~nprocs:4 (fun r -> if r = 1 then raise Exit)))

(* Two ranks raise in the same superstep: the lowest rank's exception is
   the one reported, whatever the sharding. *)
let test_lowest_rank_exception_wins () =
  for_domains (fun d ->
      Alcotest.check_raises "lowest rank wins" (Failure "rank 1") (fun () ->
          Psched.run ~domains:d ~nprocs:4 (fun r ->
              if r >= 1 then failwith (Printf.sprintf "rank %d" r))))

let test_shard_bounds () =
  Alcotest.(check (list (pair int int)))
    "8 ranks over 3 domains"
    [ (0, 1); (2, 4); (5, 7) ]
    (Psched.shard_bounds ~nprocs:8 ~domains:3);
  Alcotest.(check (list (pair int int)))
    "domains clamped to nprocs"
    [ (0, 0); (1, 1) ]
    (Psched.shard_bounds ~nprocs:2 ~domains:16)

(* MPI over the parallel scheduler --------------------------------------- *)

let test_barrier () =
  for_domains (fun d ->
      let comm = Mpi.world () in
      Mpi.prepare comm ~nprocs:8;
      let phase = Array.make 8 0 in
      let seen =
        Test_util.per_rank ~domains:d ~nprocs:8 (fun r ->
            phase.(r) <- 1;
            Mpi.barrier comm;
            let snapshot = Array.copy phase in
            Mpi.barrier comm;
            phase.(r) <- 2;
            snapshot)
      in
      Array.iter
        (Array.iter (fun p -> Alcotest.(check int) "phase complete" 1 p))
        seen;
      Alcotest.(check bool) "all finished" true
        (Array.for_all (fun p -> p = 2) phase))

let int_payload = function Mpi.P_int v -> Some v | _ -> None

let test_send_recv_fifo () =
  for_domains (fun d ->
      let comm = Mpi.world () in
      Mpi.prepare comm ~nprocs:2;
      let seen =
        Test_util.per_rank ~domains:d ~nprocs:2 (fun r ->
            if r = 0 then begin
              for i = 1 to 10 do
                Mpi.send comm ~dst:1 ~tag:0 (Mpi.P_int i)
              done;
              []
            end
            else
              List.init 10 (fun _ -> int_payload (Mpi.recv comm ~src:0 ~tag:0)))
      in
      List.iteri
        (fun i p ->
          match p with
          | Some v -> Alcotest.(check int) "fifo order" (i + 1) v
          | None -> Alcotest.fail "wrong payload")
        seen.(1))

let test_collectives () =
  for_domains (fun d ->
      let comm = Mpi.world () in
      Mpi.prepare comm ~nprocs:4;
      Test_util.per_rank ~domains:d ~nprocs:4 (fun r ->
          let s = Mpi.allreduce comm Mpi.Sum (r + 1) in
          (s, Mpi.allgather comm (Mpi.P_int (100 + r))))
      |> Array.iter (fun (s, values) ->
             Alcotest.(check int) "allreduce sum" 10 s;
             Array.iteri
               (fun i p ->
                 match int_payload p with
                 | Some v -> Alcotest.(check int) "allgathered" (100 + i) v
                 | None -> Alcotest.fail "wrong payload")
               values))

(* The MPI event log merges identically across domain counts. *)
let test_event_log_deterministic () =
  let capture d =
    let comm = Mpi.world () in
    Mpi.prepare comm ~nprocs:4;
    Psched.run ~domains:d ~nprocs:4 (fun r ->
        Mpi.barrier comm;
        ignore (Mpi.allreduce comm Mpi.Max r);
        Mpi.barrier comm);
    Mpi.events comm
  in
  let base = capture 1 in
  Alcotest.(check bool) "events non-empty" true (base <> []);
  for_domains (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "event log identical at domains=%d" d)
        true
        (capture d = base))

(* Satellites: reentrancy guard and debug monotonicity check ------------- *)

let reentrant_msg who =
  Printf.sprintf
    "%s: a simulation is already running (the scheduler is not reentrant; \
     finish or fail the active run first)"
    who

let test_reentrancy_guard () =
  Alcotest.check_raises "Sched inside Sched"
    (Failure (reentrant_msg "Sched.run")) (fun () ->
      Sched.run ~nprocs:1 (fun _ -> Sched.run ~nprocs:1 (fun _ -> ())));
  Alcotest.check_raises "Psched inside Sched"
    (Failure (reentrant_msg "Psched.run")) (fun () ->
      Sched.run ~nprocs:1 (fun _ -> Psched.run ~nprocs:1 (fun _ -> ())));
  Alcotest.check_raises "Sched inside Psched"
    (Failure (reentrant_msg "Sched.run")) (fun () ->
      Psched.run ~domains:2 ~nprocs:2 (fun r ->
          if r = 0 then Sched.run ~nprocs:1 (fun _ -> ())));
  (* The guard releases once the run finishes. *)
  Sched.run ~nprocs:1 (fun _ -> ());
  Psched.run ~nprocs:1 (fun _ -> ())

let with_sched_debug f =
  Unix.putenv "HPCFS_SCHED_DEBUG" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "HPCFS_SCHED_DEBUG" "") f

(* A predicate that observes true, then false: rank 0 un-makes it in the
   round/superstep after the snapshot saw it hold, before the waiting
   rank 1 resumes.  Under HPCFS_SCHED_DEBUG both schedulers must call it
   out.  (The final [flag := true] lets the program complete when the
   check is off.) *)
let nonmonotone_body flag r =
  if r = 1 then Sched.wait_until (fun () -> !flag)
  else begin
    flag := true;
    Sched.yield ();
    flag := false;
    Sched.yield ();
    flag := true
  end

let expect_nonmonotone who run =
  match run () with
  | () -> Alcotest.failf "%s: non-monotone predicate not detected" who
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s names the contract (got: %s)" who msg)
      true
      (String.length msg > 0
      && String.sub msg 0 (String.length who) = who)

let test_debug_monotonicity () =
  with_sched_debug (fun () ->
      expect_nonmonotone "Sched" (fun () ->
          Sched.run ~nprocs:2 (nonmonotone_body (ref false)));
      (* domains=1: both ranks share a shard, so the un-making step always
         runs before the waiter's slice re-checks — deterministic. *)
      expect_nonmonotone "Psched" (fun () ->
          Psched.run ~domains:1 ~nprocs:2 (nonmonotone_body (ref false))));
  (* Without the variable the same program runs to completion: the waiter
     eventually sees the predicate in a true state. *)
  Sched.run ~nprocs:2 (nonmonotone_body (ref false));
  Psched.run ~domains:1 ~nprocs:2 (nonmonotone_body (ref false))

(* Full-stack determinism: catalogue app ---------------------------------- *)

let app_body label =
  match Registry.find label with
  | Some e -> e.Registry.body
  | None -> Alcotest.failf "no catalogue entry %s" label

let run_app ?faults ?semantics ~domains body =
  let result = Runner.run ?faults ?semantics ~nprocs:8 ~domains body in
  let report = Report.analyze ~nprocs:8 result.Runner.records in
  ( result.Runner.records,
    Lazy.force result.Runner.events,
    Format.asprintf "%a" Report.pp_summary report )

let test_app_trace_identical () =
  let body = app_body "FLASH-fbs" in
  let base = run_app ~domains:1 body in
  let records, _, _ = base in
  Alcotest.(check bool) "trace non-empty" true (records <> []);
  for_domains (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "FLASH-fbs identical at domains=%d" d)
        true
        (run_app ~domains:d body = base))

let test_faulted_app_trace_identical () =
  let plan =
    Plan.make ~seed:9 [ Plan.crash ~rank:1 ~restart_delay:8 (Plan.At_io 5) ]
  in
  let body = app_body "HACC-IO-POSIX" in
  let base = run_app ~faults:plan ~domains:1 body in
  for_domains (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "faulted HACC identical at domains=%d" d)
        true
        (run_app ~faults:plan ~domains:d body = base))

(* QCheck: random workloads, every engine, every domain count ------------ *)

let engines =
  [
    Consistency.Strong;
    Consistency.Commit;
    Consistency.Session;
    Consistency.Eventual { delay = 4 };
  ]

(* Make a generated workload race-free across supersteps: a barrier
   between phases pins cross-phase dependencies to scheduler
   synchronization, and readdir becomes stat — a same-phase create in a
   shared directory would make the per-entry record count of a
   same-superstep readdir schedule-dependent (exactly the documented
   same-superstep-race carve-out of the determinism contract).  A mix
   executes its drawn branches back to back with no barrier between the
   draws, so it is collapsed to its first branch — racy mixed phases are
   the legacy soak's territory (test_wl). *)
let determinize w =
  let rec depose = function
    | Workload.Meta m ->
      Workload.Meta
        {
          m with
          Workload.m_op =
            (match m.Workload.m_op with
            | Workload.Mreaddir -> Workload.Mstat
            | op -> op);
        }
    | Workload.Mix { branches = (_, p) :: _; _ } -> depose p
    | p -> p
  in
  let rec sep = function
    | [] -> []
    | [ p ] -> [ p ]
    | p :: rest -> p :: Workload.Barrier :: sep rest
  in
  { w with Workload.phases = sep (List.map depose w.Workload.phases) }

let crash_plan =
  Plan.make ~seed:5 [ Plan.crash ~rank:1 ~restart_delay:8 (Plan.At_io 4) ]

let qcheck_domain_determinism =
  QCheck.Test.make
    ~name:"workload traces are bit-identical for domains 1/2/4" ~count:8
    Wl_gen.arbitrary (fun w ->
      let w = determinize w in
      let body = Compile.body w in
      List.for_all
        (fun semantics ->
          List.for_all
            (fun faults ->
              let base = run_app ?faults ~semantics ~domains:1 body in
              List.for_all
                (fun d ->
                  run_app ?faults ~semantics ~domains:d body = base
                  || QCheck.Test.fail_reportf
                       "domains=%d diverged (engine %s, faults %b) on:\n%s" d
                       (Consistency.name semantics)
                       (faults <> None) (Workload.to_string w))
                [ 2; 4 ])
            [ None; Some crash_plan ])
        engines)

let suite =
  [
    Alcotest.test_case "all ranks run" `Quick test_all_ranks_run;
    Alcotest.test_case "self/nprocs" `Quick test_self_and_nprocs;
    Alcotest.test_case "ticks unique, domain-independent" `Quick
      test_ticks_unique_and_domain_independent;
    Alcotest.test_case "wait_until" `Quick test_wait_until_and_now;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagates;
    Alcotest.test_case "lowest-rank exception wins" `Quick
      test_lowest_rank_exception_wins;
    Alcotest.test_case "shard bounds" `Quick test_shard_bounds;
    Alcotest.test_case "barrier" `Quick test_barrier;
    Alcotest.test_case "send/recv fifo" `Quick test_send_recv_fifo;
    Alcotest.test_case "collectives" `Quick test_collectives;
    Alcotest.test_case "event log deterministic" `Quick
      test_event_log_deterministic;
    Alcotest.test_case "reentrancy guard" `Quick test_reentrancy_guard;
    Alcotest.test_case "debug monotonicity check" `Quick
      test_debug_monotonicity;
    Alcotest.test_case "app trace identical across domains" `Quick
      test_app_trace_identical;
    Alcotest.test_case "faulted app identical across domains" `Quick
      test_faulted_app_trace_identical;
    QCheck_alcotest.to_alcotest qcheck_domain_determinism;
  ]
