(* Tests for the cooperative scheduler and the MPI model. *)

module Sched = Hpcfs_sim.Sched
module Mpi = Hpcfs_mpi.Mpi
module Runner = Hpcfs_apps.Runner

let test_run_all_ranks () =
  let seen = Array.make 4 false in
  Sched.run ~nprocs:4 (fun r -> seen.(r) <- true);
  Alcotest.(check (array bool)) "all ranks ran" [| true; true; true; true |]
    seen

let test_self_and_nprocs () =
  Sched.run ~nprocs:3 (fun r ->
      Alcotest.(check int) "self" r (Sched.self ());
      Alcotest.(check int) "nprocs" 3 (Sched.nprocs ()))

let test_tick_monotone_unique () =
  let times = ref [] in
  Sched.run ~nprocs:4 (fun _ ->
      for _ = 1 to 10 do
        times := Sched.tick () :: !times;
        Sched.yield ()
      done);
  let ts = List.sort compare !times in
  let rec distinct = function
    | a :: (b :: _ as rest) -> a <> b && distinct rest
    | _ -> true
  in
  Alcotest.(check bool) "all timestamps unique" true (distinct ts);
  Alcotest.(check int) "count" 40 (List.length ts)

let test_wait_until () =
  let flag = ref false in
  let order = ref [] in
  Sched.run ~nprocs:2 (fun r ->
      if r = 0 then begin
        Sched.wait_until (fun () -> !flag);
        order := "waiter" :: !order
      end
      else begin
        Sched.yield ();
        flag := true;
        order := "setter" :: !order
      end);
  Alcotest.(check (list string)) "setter ran before waiter"
    [ "waiter"; "setter" ] !order

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock raises"
    (Sched.Deadlock "ranks blocked: 0,1") (fun () ->
      Sched.run ~nprocs:2 (fun _ -> Sched.wait_until (fun () -> false)))

let test_exception_propagates () =
  Alcotest.check_raises "body exception escapes" Exit (fun () ->
      Sched.run ~nprocs:2 (fun r -> if r = 1 then raise Exit))

let test_not_reentrant_outside () =
  Alcotest.check_raises "self outside run"
    (Invalid_argument "Sched.self: no simulation running") (fun () ->
      ignore (Sched.self ()))

let test_reentrancy_guard () =
  Alcotest.check_raises "Sched inside Sched"
    (Failure
       "Sched.run: a simulation is already running (the scheduler is not \
        reentrant; finish or fail the active run first)") (fun () ->
      Sched.run ~nprocs:1 (fun _ -> Sched.run ~nprocs:1 (fun _ -> ())));
  (* The guard releases once the run finishes. *)
  Sched.run ~nprocs:1 (fun _ -> ())

(* A predicate that observes true, then false: rank 0 un-makes it in the
   round after the snapshot saw it hold, before the waiting rank 1
   resumes.  Under HPCFS_SCHED_DEBUG the scheduler must call it out.  (The
   final [flag := true] lets the program complete when the check is
   off.) *)
let nonmonotone_body flag r =
  if r = 1 then Sched.wait_until (fun () -> !flag)
  else begin
    flag := true;
    Sched.yield ();
    flag := false;
    Sched.yield ();
    flag := true
  end

let with_sched_debug value f =
  let saved = Sys.getenv_opt "HPCFS_SCHED_DEBUG" in
  Unix.putenv "HPCFS_SCHED_DEBUG" value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv "HPCFS_SCHED_DEBUG" (Option.value saved ~default:""))

let test_debug_monotonicity () =
  with_sched_debug "1" (fun () ->
      match Sched.run ~nprocs:2 (nonmonotone_body (ref false)) with
      | () -> Alcotest.fail "non-monotone predicate not detected"
      | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "names the contract (got: %s)" msg)
          true
          (String.starts_with ~prefix:"Sched: wait_until predicate of rank 1"
             msg));
  (* Without the variable the same program runs to completion: the waiter
     eventually sees the predicate in a true state. *)
  with_sched_debug "" (fun () ->
      Sched.run ~nprocs:2 (nonmonotone_body (ref false)))

(* Words a run allocates when one rank yields [rounds] times while [idle]
   others sit out every round: half finished at once, half blocked on a
   predicate that stays false until the last round. *)
let idle_run_words ~idle ~rounds =
  let released = ref false in
  let before = Test_ownership.allocated_words () in
  Sched.run ~nprocs:(idle + 1) (fun r ->
      if r = idle then begin
        for _ = 1 to rounds do
          Sched.yield ()
        done;
        released := true
      end
      else if r >= idle / 2 then Sched.wait_until (fun () -> !released));
  Test_ownership.allocated_words () -. before

(* Only a fresh fiber needs an effect handler, so visiting a finished rank
   or a rank whose predicate is still false allocates nothing.  Building
   the handler on every visit cost 14 words each. *)
let test_idle_visits_allocate_nothing () =
  let idle = 32 and rounds = 1000 in
  let words =
    (idle_run_words ~idle ~rounds -. idle_run_words ~idle:0 ~rounds)
    /. float_of_int (idle * rounds)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per idle visit <= 1" words)
    true (words <= 1.)

let test_barrier_synchronizes () =
  let comm = Mpi.world () in
  let phase = Array.make 8 0 in
  Sched.run ~nprocs:8 (fun r ->
      phase.(r) <- 1;
      Mpi.barrier comm;
      (* After the barrier, every rank must have completed phase 1. *)
      Array.iter (fun p -> Alcotest.(check int) "phase complete" 1 p) phase;
      ignore r)

let test_barrier_repeated () =
  let comm = Mpi.world () in
  let counter = ref 0 in
  Sched.run ~nprocs:4 (fun _ ->
      for _ = 1 to 5 do
        incr counter;
        Mpi.barrier comm
      done);
  Alcotest.(check int) "all iterations" 20 !counter

let test_send_recv () =
  let comm = Mpi.world () in
  Sched.run ~nprocs:2 (fun r ->
      if r = 0 then Mpi.send comm ~dst:1 ~tag:7 (Mpi.P_int 99)
      else begin
        match Mpi.recv comm ~src:0 ~tag:7 with
        | Mpi.P_int v -> Alcotest.(check int) "payload" 99 v
        | _ -> Alcotest.fail "wrong payload"
      end)

let test_send_recv_fifo_per_channel () =
  let comm = Mpi.world () in
  Sched.run ~nprocs:2 (fun r ->
      if r = 0 then
        for i = 1 to 10 do
          Mpi.send comm ~dst:1 ~tag:0 (Mpi.P_int i)
        done
      else
        for i = 1 to 10 do
          match Mpi.recv comm ~src:0 ~tag:0 with
          | Mpi.P_int v -> Alcotest.(check int) "fifo order" i v
          | _ -> Alcotest.fail "wrong payload"
        done)

let test_gather () =
  let comm = Mpi.world () in
  Sched.run ~nprocs:5 (fun r ->
      match Mpi.gather comm ~root:0 (Mpi.P_int (r * r)) with
      | Some values ->
        Alcotest.(check int) "root is rank 0" 0 r;
        Array.iteri
          (fun i p ->
            match p with
            | Mpi.P_int v -> Alcotest.(check int) "gathered" (i * i) v
            | _ -> Alcotest.fail "wrong payload")
          values
      | None -> Alcotest.(check bool) "non-root gets None" true (r <> 0))

let test_allgather () =
  let comm = Mpi.world () in
  Sched.run ~nprocs:4 (fun r ->
      let values = Mpi.allgather comm (Mpi.P_int (100 + r)) in
      Array.iteri
        (fun i p ->
          match p with
          | Mpi.P_int v -> Alcotest.(check int) "allgathered" (100 + i) v
          | _ -> Alcotest.fail "wrong payload")
        values)

let test_reduce_allreduce () =
  let comm = Mpi.world () in
  Sched.run ~nprocs:4 (fun r ->
      let m = Mpi.allreduce comm Mpi.Max r in
      Alcotest.(check int) "allreduce max" 3 m;
      let s = Mpi.allreduce comm Mpi.Sum 1 in
      Alcotest.(check int) "allreduce count" 4 s;
      let mn = Mpi.allreduce comm Mpi.Min (10 - r) in
      Alcotest.(check int) "allreduce min" 7 mn)

let test_events_recorded () =
  let comm = Mpi.world () in
  Sched.run ~nprocs:2 (fun r ->
      if r = 0 then Mpi.send comm ~dst:1 ~tag:3 Mpi.P_unit
      else ignore (Mpi.recv comm ~src:0 ~tag:3);
      Mpi.barrier comm);
  let events = Mpi.events comm in
  let sends =
    List.filter (function Mpi.E_send _ -> true | _ -> false) events
  in
  let recvs =
    List.filter (function Mpi.E_recv _ -> true | _ -> false) events
  in
  let barriers =
    List.filter (function Mpi.E_barrier _ -> true | _ -> false) events
  in
  Alcotest.(check int) "one send" 1 (List.length sends);
  Alcotest.(check int) "one recv" 1 (List.length recvs);
  Alcotest.(check int) "two barrier records" 2 (List.length barriers);
  (* The send must timestamp before the matching receive completes. *)
  match (sends, recvs) with
  | [ Mpi.E_send s ], [ Mpi.E_recv r ] ->
    Alcotest.(check bool) "send before recv" true (s.time < r.time)
  | _ -> Alcotest.fail "unexpected events"

let test_send_happens_before_recv_many_ranks () =
  let comm = Mpi.world () in
  Sched.run ~nprocs:8 (fun r ->
      (* Ring: each rank sends to its successor. *)
      let next = (r + 1) mod 8 and prev = (r + 7) mod 8 in
      Mpi.send comm ~dst:next ~tag:1 (Mpi.P_int r);
      match Mpi.recv comm ~src:prev ~tag:1 with
      | Mpi.P_int v -> Alcotest.(check int) "ring value" prev v
      | _ -> Alcotest.fail "wrong payload");
  List.iter
    (fun e ->
      match e with
      | Mpi.E_recv _ | Mpi.E_send _ | Mpi.E_barrier _ | Mpi.E_coll _ -> ())
    (Mpi.events comm)

(* Random collective programs ------------------------------------------- *)

(* One step of a program every rank runs in the same order: a collective,
   a barrier, or a user send/recv ring. *)
type step =
  | Gather of int  (** root *)
  | Allgather
  | Allreduce of Mpi.reduce_op
  | Barrier
  | Ring of int  (** tag *)

(* What a rank observes from one step. *)
type seen = Nothing | Ints of int list | Int of int

(* Rank [rank]'s contribution to step [i]: small, signed, and different
   across ranks and steps, so a misplaced slot or a stale value shows. *)
let input ~i ~rank = (((i * 37) + (rank * 11)) mod 23) - 11

let int_of = function
  | Mpi.P_int v -> v
  | Mpi.P_unit | Mpi.P_ints _ | Mpi.P_bytes _ -> min_int

let run_program comm ~n steps =
  let r = Mpi.rank comm in
  List.mapi
    (fun i step ->
      let v = input ~i ~rank:r in
      match step with
      | Gather root -> (
        match Mpi.gather comm ~root (Mpi.P_int v) with
        | Some a -> Ints (Array.to_list (Array.map int_of a))
        | None -> Nothing)
      | Allgather ->
        Ints (Array.to_list (Array.map int_of (Mpi.allgather comm (Mpi.P_int v))))
      | Allreduce op -> Int (Mpi.allreduce comm op v)
      | Barrier ->
        Mpi.barrier comm;
        Nothing
      | Ring tag ->
        Mpi.send comm ~dst:((r + 1) mod n) ~tag (Mpi.P_int v);
        Int (int_of (Mpi.recv comm ~src:((r + n - 1) mod n) ~tag)))
    steps

(* The sequential reference: what rank [r] must observe. *)
let reference ~n steps r =
  List.mapi
    (fun i step ->
      let all = List.init n (fun k -> input ~i ~rank:k) in
      match step with
      | Gather root -> if r = root then Ints all else Nothing
      | Allgather -> Ints all
      | Allreduce op ->
        let f = match op with Mpi.Sum -> ( + ) | Mpi.Max -> max | Mpi.Min -> min in
        Int (List.fold_left f (List.hd all) (List.tl all))
      | Barrier -> Nothing
      | Ring _ -> Int (input ~i ~rank:((r + n - 1) mod n)))
    steps

let step_name = function
  | Gather root -> Printf.sprintf "gather(root=%d)" root
  | Allgather -> "allgather"
  | Allreduce Mpi.Sum -> "allreduce(sum)"
  | Allreduce Mpi.Max -> "allreduce(max)"
  | Allreduce Mpi.Min -> "allreduce(min)"
  | Barrier -> "barrier"
  | Ring tag -> Printf.sprintf "ring(tag=%d)" tag

let arbitrary_program =
  let open QCheck.Gen in
  let step n =
    oneof
      [
        map (fun root -> Gather root) (int_bound (n - 1));
        return Allgather;
        map (fun op -> Allreduce op) (oneofl Mpi.[ Sum; Max; Min ]);
        return Barrier;
        map (fun tag -> Ring tag) (int_bound 3);
      ]
  in
  let gen =
    int_range 1 17 >>= fun n ->
    list_size (int_range 1 12) (step n) >|= fun steps -> (n, steps)
  in
  QCheck.make gen ~print:(fun (n, steps) ->
      Printf.sprintf "%d ranks: %s" n (String.concat "; " (List.map step_name steps)))

(* Every rank's observations equal the sequential reference on a bare
   scheduler run and through [Runner.run]. *)
let qcheck_collective_programs =
  QCheck.Test.make ~name:"collective programs match the sequential reference"
    ~count:60 arbitrary_program (fun (n, steps) ->
      let expected = Array.init n (reference ~n steps) in
      let check what got =
        got = expected || QCheck.Test.fail_reportf "%s: results differ" what
      in
      let bare =
        let comm = Mpi.world () in
        Test_util.per_rank ~nprocs:n (fun _ -> run_program comm ~n steps)
      in
      let through_runner =
        let out = Array.make n [] in
        ignore
          (Runner.run ~nprocs:n (fun env ->
               let comm = env.Runner.comm in
               out.(Mpi.rank comm) <- run_program comm ~n steps));
        out
      in
      check "Sched.run" bare && check "Runner.run" through_runner)

let suite =
  [
    Alcotest.test_case "run all ranks" `Quick test_run_all_ranks;
    Alcotest.test_case "self/nprocs" `Quick test_self_and_nprocs;
    Alcotest.test_case "tick unique" `Quick test_tick_monotone_unique;
    Alcotest.test_case "wait_until" `Quick test_wait_until;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "no ambient outside run" `Quick test_not_reentrant_outside;
    Alcotest.test_case "reentrancy guard" `Quick test_reentrancy_guard;
    Alcotest.test_case "debug monotonicity check" `Quick
      test_debug_monotonicity;
    Alcotest.test_case "idle visits allocate nothing" `Quick
      test_idle_visits_allocate_nothing;
    Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
    Alcotest.test_case "barrier repeated" `Quick test_barrier_repeated;
    Alcotest.test_case "send/recv" `Quick test_send_recv;
    Alcotest.test_case "fifo per channel" `Quick test_send_recv_fifo_per_channel;
    Alcotest.test_case "gather" `Quick test_gather;
    Alcotest.test_case "allgather" `Quick test_allgather;
    Alcotest.test_case "reduce/allreduce" `Quick test_reduce_allreduce;
    Alcotest.test_case "events recorded" `Quick test_events_recorded;
    Alcotest.test_case "ring exchange" `Quick test_send_happens_before_recv_many_ranks;
    QCheck_alcotest.to_alcotest qcheck_collective_programs;
  ]
