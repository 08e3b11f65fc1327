module Sched = Hpcfs_sim.Sched
module Obs = Hpcfs_obs.Obs

type payload =
  | P_unit
  | P_int of int
  | P_ints of int array
  | P_bytes of bytes

type event =
  | E_send of { src : int; dst : int; tag : int; time : int }
  | E_recv of { src : int; dst : int; tag : int; time : int }
  | E_barrier of { rank : int; gen : int; enter : int; exit : int }
  | E_coll of {
      rank : int;
      name : string;
      seq : int;
      root : int option;
      enter : int;
      exit : int;
    }

(* A rendezvous point.  [arrivals] only ever grows, so the wake predicate
   [arrivals >= n * (k + 1)] of a rank's k-th arrival is monotone;
   [seen.(r)] (ranks touch only their own slot) counts rank r's
   arrivals. *)
type rendezvous = { mutable arrivals : int; mutable seen : int array }

type comm = {
  mutable size : int option;
  mailboxes : (int * int * int, payload Queue.t) Hashtbl.t;
  bar : rendezvous;
  coll : rendezvous;
  (* The collectives' deposit slots: two rows of one slot per rank, used
     alternately by collective sequence number parity. *)
  mutable slots : payload array array;
  mutable log : event list;
}

let rendezvous () = { arrivals = 0; seen = [||] }

let world () =
  {
    size = None;
    mailboxes = Hashtbl.create 64;
    bar = rendezvous ();
    coll = rendezvous ();
    slots = [| [||]; [||] |];
    log = [];
  }

(* The per-rank arrays are sized on the first [size] call, inside the
   run, when the rank count is known. *)
let size c =
  match c.size with
  | Some n -> n
  | None ->
    let n = Sched.nprocs () in
    c.size <- Some n;
    c.bar.seen <- Array.make n 0;
    c.coll.seen <- Array.make n 0;
    c.slots <- Array.init 2 (fun _ -> Array.make n P_unit);
    n

let rank _c = Sched.self ()

let log_event c e = c.log <- e :: c.log

let mailbox c ~src ~dst ~tag =
  let key = (src, dst, tag) in
  match Hashtbl.find_opt c.mailboxes key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add c.mailboxes key q;
    q

let send c ~dst ~tag payload =
  let src = rank c in
  if dst < 0 || dst >= size c then invalid_arg "Mpi.send: bad destination";
  let time = Sched.tick () in
  let q = mailbox c ~src ~dst ~tag in
  Queue.push payload q;
  Obs.incr "mpi.sends";
  log_event c (E_send { src; dst; tag; time })

let recv c ~src ~tag =
  let dst = rank c in
  if src < 0 || src >= size c then invalid_arg "Mpi.recv: bad source";
  let q = mailbox c ~src ~dst ~tag in
  Sched.wait_until (fun () -> not (Queue.is_empty q));
  let payload = Queue.pop q in
  let time = Sched.tick () in
  Obs.incr "mpi.recvs";
  log_event c (E_recv { src; dst; tag; time });
  payload

(* Arrive at [rv] and block until every rank has arrived as often as this
   one; returns this rank's arrival number (from 0).  The last arriver
   continues inline. *)
let arrive rv ~n ~rank =
  let k = rv.seen.(rank) in
  rv.seen.(rank) <- k + 1;
  let target = n * (k + 1) in
  rv.arrivals <- rv.arrivals + 1;
  if rv.arrivals < target then
    Sched.wait_until (fun () -> rv.arrivals >= target);
  k

let barrier c =
  let n = size c in
  let r = rank c in
  let enter = Sched.tick () in
  let gen = arrive c.bar ~n ~rank:r in
  let exit = Sched.tick () in
  Obs.incr "mpi.barriers";
  Obs.observe "mpi.barrier_wait_ticks" (float_of_int (exit - enter));
  Obs.span_at (Obs.T_rank r) ~t0:enter ~t1:exit "barrier";
  log_event c (E_barrier { rank = r; gen; enter; exit })

(* Every collective is one rendezvous: each rank deposits its value in
   its slot of row [seq land 1], arrives, and once all have arrived
   [finish] reads the whole row.  Two rows suffice: a rank reaches
   collective seq + 2 only after every rank has arrived at seq + 1, so
   after every rank has finished reading row seq. *)
let collective c name ?root value finish =
  let n = size c in
  let r = rank c in
  let enter = Sched.tick () in
  let row = c.slots.(c.coll.seen.(r) land 1) in
  row.(r) <- value;
  let seq = arrive c.coll ~n ~rank:r in
  let result = finish row in
  let exit = Sched.tick () in
  Obs.incr "mpi.collectives";
  Obs.span_at (Obs.T_rank r) ~t0:enter ~t1:exit name;
  log_event c (E_coll { rank = r; name; seq; root; enter; exit });
  result

let gather c ~root value =
  if root < 0 || root >= size c then invalid_arg "Mpi.gather: bad root";
  collective c "gather" ~root value (fun row ->
      if rank c = root then Some (Array.copy row) else None)

let allgather c value = collective c "allgather" value Array.copy

type reduce_op = Sum | Max | Min

let apply_op op a b =
  match op with Sum -> a + b | Max -> max a b | Min -> min a b

let int_of_payload = function
  | P_int v -> v
  | P_unit | P_ints _ | P_bytes _ -> invalid_arg "Mpi: expected P_int"

let allreduce c op value =
  collective c "allreduce" (P_int value) (fun row ->
      let acc = ref (int_of_payload row.(0)) in
      for i = 1 to Array.length row - 1 do
        acc := apply_op op !acc (int_of_payload row.(i))
      done;
      !acc)

let event_time = function
  | E_send { time; _ } | E_recv { time; _ } -> time
  | E_barrier { enter; _ } | E_coll { enter; _ } -> enter

(* Every event is stamped with a globally unique tick, so sorting by time
   is a total order. *)
let events c =
  List.sort (fun a b -> Int.compare (event_time a) (event_time b)) c.log
