module Sched = Hpcfs_sim.Sched
module Obs = Hpcfs_obs.Obs
module Domctx = Hpcfs_util.Domctx

type payload =
  | P_unit
  | P_int of int
  | P_ints of int array
  | P_bytes of bytes

type event =
  | E_send of { src : int; dst : int; tag : int; time : int }
  | E_recv of { src : int; dst : int; tag : int; time : int }
  | E_barrier of { rank : int; gen : int; enter : int; exit : int }
  | E_coll of { rank : int; name : string; seq : int; enter : int; exit : int }

type comm = {
  mutable size : int option;
  mailboxes : (int * int * int, payload Queue.t) Hashtbl.t;
  mu : Mutex.t; (* guards mailboxes (table and queues) in parallel runs *)
  bar_gen : int ref;
  bar_count : int ref;
  (* Parallel-run barrier state: [bar_arrivals] only ever grows, so the
     wake predicate [arrivals >= n * (generation + 1)] is monotone, and
     [bar_seen.(r)] (ranks touch only their own slot) counts how many
     barriers rank r has entered. *)
  bar_arrivals : int Atomic.t;
  mutable bar_seen : int array;
  mutable coll_seq : int array; (* per-rank collective sequence numbers *)
  mutable log : event list;
  logs : event list array; (* per-domain logs of a parallel run *)
}

let world () =
  {
    size = None;
    mailboxes = Hashtbl.create 64;
    mu = Mutex.create ();
    bar_gen = ref 0;
    bar_count = ref 0;
    bar_arrivals = Atomic.make 0;
    bar_seen = [||];
    coll_seq = [||];
    log = [];
    logs = Array.make Domctx.max_slots [];
  }

(* Pre-size the lazily initialised per-rank arrays so no rank races on
   the first [size] call of a parallel run.  Idempotent; called by the
   runner before a domain-parallel simulation starts. *)
let prepare c ~nprocs =
  c.size <- Some nprocs;
  if Array.length c.coll_seq <> nprocs then c.coll_seq <- Array.make nprocs 0;
  if Array.length c.bar_seen <> nprocs then c.bar_seen <- Array.make nprocs 0

let size c =
  match c.size with
  | Some n -> n
  | None ->
    let n = Sched.nprocs () in
    prepare c ~nprocs:n;
    n

let rank _c = Sched.self ()
let wtime () = Sched.now ()

let log_event c e =
  if Domctx.parallel () then begin
    let k = Domctx.slot () in
    c.logs.(k) <- e :: c.logs.(k)
  end
  else c.log <- e :: c.log

(* Internal tag used by collective implementations; per-channel queues are
   FIFO, so one tag suffices for any sequence of collectives. *)
let coll_tag = -1

let locked c f = Domctx.locked c.mu f

let mailbox c ~src ~dst ~tag =
  let key = (src, dst, tag) in
  locked c (fun () ->
      match Hashtbl.find_opt c.mailboxes key with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add c.mailboxes key q;
        q)

(* Message order is deterministic under domain sharding: each channel
   queue is pushed only by its source rank (in that rank's program
   order) and popped only by its destination rank, so the lock serves
   memory safety alone. *)
let send c ~dst ~tag payload =
  let src = rank c in
  if dst < 0 || dst >= size c then invalid_arg "Mpi.send: bad destination";
  let time = Sched.tick () in
  let q = mailbox c ~src ~dst ~tag in
  locked c (fun () -> Queue.push payload q);
  Obs.incr "mpi.sends";
  log_event c (E_send { src; dst; tag; time })

let recv c ~src ~tag =
  let dst = rank c in
  if src < 0 || src >= size c then invalid_arg "Mpi.recv: bad source";
  let q = mailbox c ~src ~dst ~tag in
  Sched.wait_until (fun () -> not (Queue.is_empty q));
  let payload = locked c (fun () -> Queue.pop q) in
  let time = Sched.tick () in
  Obs.incr "mpi.recvs";
  log_event c (E_recv { src; dst; tag; time });
  payload

let barrier c =
  let n = size c in
  let r = rank c in
  let enter = Sched.tick () in
  let gen =
    if Domctx.parallel () then begin
      (* Every rank (the last arriver included) suspends and resumes at
         the next superstep boundary, so barrier exit ticks do not depend
         on arrival order or on how ranks are sharded across domains. *)
      let g = c.bar_seen.(r) in
      c.bar_seen.(r) <- g + 1;
      Atomic.incr c.bar_arrivals;
      Sched.wait_until (fun () -> Atomic.get c.bar_arrivals >= n * (g + 1));
      g
    end
    else begin
      let gen = !(c.bar_gen) in
      incr c.bar_count;
      if !(c.bar_count) = n then begin
        c.bar_count := 0;
        incr c.bar_gen
      end
      else Sched.wait_until (fun () -> !(c.bar_gen) > gen);
      gen
    end
  in
  let exit = Sched.tick () in
  Obs.incr "mpi.barriers";
  Obs.observe "mpi.barrier_wait_ticks" (float_of_int (exit - enter));
  Obs.span_at (Obs.T_rank r) ~t0:enter ~t1:exit "barrier";
  log_event c (E_barrier { rank = r; gen; enter; exit })

let with_coll c name body =
  let r = rank c in
  ignore (size c);
  let seq = c.coll_seq.(r) in
  c.coll_seq.(r) <- seq + 1;
  let enter = Sched.tick () in
  let result = body () in
  let exit = Sched.tick () in
  Obs.incr "mpi.collectives";
  Obs.span_at (Obs.T_rank r) ~t0:enter ~t1:exit name;
  log_event c (E_coll { rank = r; name; seq; enter; exit });
  result

(* Inner (unlogged) collective bodies, shared by the public operations. *)

let bcast_inner c ~root value =
  let r = rank c and n = size c in
  if r = root then begin
    for dst = 0 to n - 1 do
      if dst <> root then send c ~dst ~tag:coll_tag value
    done;
    value
  end
  else recv c ~src:root ~tag:coll_tag

let gather_inner c ~root value =
  let r = rank c and n = size c in
  if r = root then begin
    let out = Array.make n P_unit in
    out.(root) <- value;
    for src = 0 to n - 1 do
      if src <> root then out.(src) <- recv c ~src ~tag:coll_tag
    done;
    Some out
  end
  else begin
    send c ~dst:root ~tag:coll_tag value;
    None
  end

type reduce_op = Sum | Max | Min

let apply_op op a b =
  match op with Sum -> a + b | Max -> max a b | Min -> min a b

let int_of_payload = function
  | P_int v -> v
  | P_unit | P_ints _ | P_bytes _ -> invalid_arg "Mpi: expected P_int"

let reduce_inner c ~root op value =
  match gather_inner c ~root (P_int value) with
  | Some values ->
    let acc = ref (int_of_payload values.(0)) in
    for i = 1 to Array.length values - 1 do
      acc := apply_op op !acc (int_of_payload values.(i))
    done;
    Some !acc
  | None -> None

(* Public collectives: inner body wrapped in an E_coll log record. *)

let bcast c ~root value = with_coll c "bcast" (fun () -> bcast_inner c ~root value)

let gather c ~root value =
  with_coll c "gather" (fun () -> gather_inner c ~root value)

let allgather c value =
  with_coll c "allgather" (fun () ->
      let r = rank c and n = size c in
      for dst = 0 to n - 1 do
        if dst <> r then send c ~dst ~tag:coll_tag value
      done;
      let out = Array.make n P_unit in
      out.(r) <- value;
      for src = 0 to n - 1 do
        if src <> r then out.(src) <- recv c ~src ~tag:coll_tag
      done;
      out)

let reduce c ~root op value =
  with_coll c "reduce" (fun () -> reduce_inner c ~root op value)

let allreduce c op value =
  with_coll c "allreduce" (fun () ->
      let partial = reduce_inner c ~root:0 op value in
      let final =
        match partial with
        | Some v -> bcast_inner c ~root:0 (P_int v)
        | None -> bcast_inner c ~root:0 P_unit
      in
      int_of_payload final)

let scatter c ~root values =
  with_coll c "scatter" (fun () ->
      let r = rank c and n = size c in
      if r = root then begin
        match values with
        | None -> invalid_arg "Mpi.scatter: root must supply values"
        | Some vs ->
          if Array.length vs <> n then
            invalid_arg "Mpi.scatter: need one value per rank";
          for dst = 0 to n - 1 do
            if dst <> root then send c ~dst ~tag:coll_tag vs.(dst)
          done;
          vs.(root)
      end
      else recv c ~src:root ~tag:coll_tag)

let event_time = function
  | E_send { time; _ } | E_recv { time; _ } -> time
  | E_barrier { enter; _ } | E_coll { enter; _ } -> enter

(* Every event is stamped with a globally unique tick, so sorting by time
   is a total order: the merged per-domain logs of a parallel run and the
   single log of a legacy run yield the same sequence. *)
let events c =
  let all =
    c.log :: Array.to_list c.logs |> List.concat_map (fun l -> l)
  in
  List.sort (fun a b -> Int.compare (event_time a) (event_time b)) all
