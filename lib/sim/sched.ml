open Effect
open Effect.Deep
module Obs = Hpcfs_obs.Obs

exception Deadlock of string

type _ Effect.t +=
  | Yield : unit Effect.t
  | Wait : (unit -> bool) -> unit Effect.t

type proc =
  | Fresh of (unit -> unit)
  | Runnable of (unit, unit) continuation
  | Waiting of (unit -> bool) * (unit, unit) continuation
  | Finished

type state = {
  procs : proc array;
  mutable clock : int;
  mutable current : int;
  before_step : (int -> unit) option;
}

let current_sim : state option ref = ref None

let get_sim what =
  match !current_sim with
  | Some s -> s
  | None -> invalid_arg (what ^ ": no simulation running")

let self () = (get_sim "Sched.self").current
let nprocs () = Array.length (get_sim "Sched.nprocs").procs

let tick () =
  let s = get_sim "Sched.tick" in
  s.clock <- s.clock + 1;
  s.clock

let now () = (get_sim "Sched.now").clock

let yield () = perform Yield
let wait_until pred = perform (Wait pred)

(* The debug monotonicity check (HPCFS_SCHED_DEBUG): evaluate every
   waiting predicate at the top of the round, and again when its rank's
   turn comes; a predicate that was true and turned false was un-made by
   an earlier rank's step — exactly the nondeterminism class the
   [wait_until] contract rules out. *)
let debug_checks () =
  match Sys.getenv_opt "HPCFS_SCHED_DEBUG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let nonmonotone_failure r =
  failwith
    (Printf.sprintf
       "Sched: wait_until predicate of rank %d is not monotone (observed \
        true, then false before the rank resumed); see the wait_until \
        contract in sched.mli"
       r)

(* The deep handler of rank [r]'s fiber.  It is installed once, when the
   fiber first starts; every subsequent suspension is caught by that same
   handler (deep semantics), which stores the continuation and lets
   control return to the scheduler at the point of the [continue] that
   resumed the fiber. *)
let handler s r =
  {
    retc = (fun () -> s.procs.(r) <- Finished);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
          Some (fun (k : (a, unit) continuation) -> s.procs.(r) <- Runnable k)
        | Wait pred ->
          Some
            (fun (k : (a, unit) continuation) ->
              s.procs.(r) <- Waiting (pred, k))
        | _ -> None);
  }

(* Run one process until it yields, blocks or finishes; record the resulting
   proc state back into the array.  Only a fresh fiber needs a handler, so
   visits to finished or still-blocked ranks allocate nothing. *)
let step s r =
  s.current <- r;
  (* Fault hooks fire before the process runs, so a kill lands even while
     the victim is blocked (e.g. inside a barrier). *)
  (match (s.before_step, s.procs.(r)) with
  | Some hook, (Fresh _ | Runnable _ | Waiting _) -> hook r
  | _ -> ());
  match s.procs.(r) with
  | Fresh body ->
    Obs.incr "sim.steps";
    match_with body () (handler s r)
  | Runnable k ->
    Obs.incr "sim.steps";
    continue k ()
  | Waiting (pred, k) ->
    if pred () then begin
      Obs.incr "sim.steps";
      continue k ()
    end
  | Finished -> ()

let run ?(clock = 0) ?before_step ~nprocs body =
  if nprocs <= 0 then invalid_arg "Sched.run: nprocs must be positive";
  if !current_sim <> None then
    failwith
      "Sched.run: a simulation is already running (the scheduler is not \
       reentrant; finish or fail the active run first)";
  let s =
    {
      procs = Array.init nprocs (fun r -> Fresh (fun () -> body r));
      clock;
      current = 0;
      before_step;
    }
  in
  current_sim := Some s;
  (* The telemetry layer stamps spans with this simulation's Lamport clock
     for as long as the run lasts. *)
  Obs.set_logical_clock (fun () -> s.clock);
  let debug = debug_checks () in
  let snap = if debug then Array.make nprocs false else [||] in
  let all_finished () =
    Array.for_all (function Finished -> true | _ -> false) s.procs
  in
  let finish () =
    Obs.clear_logical_clock ();
    current_sim := None
  in
  let rec loop () =
    if all_finished () then ()
    else begin
      Obs.incr "sim.rounds";
      let clock_before = s.clock in
      let progressed = ref false in
      if debug then
        Array.iteri
          (fun r p ->
            snap.(r) <-
              (match p with Waiting (pred, _) -> pred () | _ -> false))
          s.procs;
      for r = 0 to nprocs - 1 do
        let before = s.procs.(r) in
        (if debug && snap.(r) then
           match s.procs.(r) with
           | Waiting (pred, _) when not (pred ()) ->
             nonmonotone_failure r
           | _ -> ());
        step s r;
        (match (before, s.procs.(r)) with
        | Waiting _, Waiting _ -> ()
        | Finished, Finished -> ()
        | _, _ -> progressed := true)
      done;
      if (not !progressed) && s.clock = clock_before && not (all_finished ())
      then begin
        let blocked =
          Array.to_list s.procs
          |> List.mapi (fun r p ->
                 match p with Waiting _ -> Some r | _ -> None)
          |> List.filter_map Fun.id
          |> List.map string_of_int
          |> String.concat ","
        in
        raise (Deadlock (Printf.sprintf "ranks blocked: %s" blocked))
      end;
      loop ()
    end
  in
  match loop () with
  | () -> finish ()
  | exception e ->
    finish ();
    raise e
