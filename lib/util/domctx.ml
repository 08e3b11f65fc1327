(* Shared context for domain-parallel simulation.

   The parallel scheduler (Psched, in lib/sim) shards simulated ranks
   across OCaml domains.  Layers below the scheduler (fs, md, trace, obs)
   cannot depend on lib/sim, so the cross-cutting state they need lives
   here, at the bottom of the dependency order:

   - a global [parallel] flag, true exactly while a parallel run is
     active.  Every lock and deferral below is gated on it, so legacy
     single-domain runs pay one branch and stay byte-identical;
   - the per-domain slot index, for per-domain accumulation buffers;
   - the superstep counter, for epoch-scoped dirty tracking;
   - a boundary registry: closures the scheduler runs single-threaded at
     the next superstep boundary (deferred accounting replay, write-log
     canonicalization).  Boundary work must be commutative across
     registrations or internally ordered (e.g. replayed rank-major),
     because registration order across domains is not deterministic. *)

let max_slots = 16

(* One cache line of ints per slot, so per-domain counters do not false-
   share. *)
let stride = 16

let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let set_slot i = Domain.DLS.set slot_key i
let slot () = Domain.DLS.get slot_key

let parallel_flag = ref false
let[@inline] parallel () = !parallel_flag
let set_parallel b = parallel_flag := b

let locked mu f =
  if parallel () then begin
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  end
  else f ()

let superstep_counter = ref 0
let[@inline] superstep () = !superstep_counter
let set_superstep n = superstep_counter := n

(* Run epoch: bumped once per parallel scheduler run (each restart
   attempt of a faulted job is its own epoch).  Accumulation buffers
   stamp it on each entry so cross-epoch merges can preserve emission
   order: logical times are unique within one run but can collide across
   restart attempts (the restart clock rewinds behind ranks that ran
   ahead), and for those ties "earlier attempt first" is the order the
   single-domain scheduler produces. *)
let run_epoch_counter = ref 0
let[@inline] run_epoch () = !run_epoch_counter
let next_run_epoch () = incr run_epoch_counter

(* Per-domain counter: increments land in the calling domain's padded
   slot, reads sum every slot.  In legacy (single-domain) runs every
   increment hits slot 0, so [total] is exactly the plain counter. *)
type counter = int array

let counter () = Array.make (max_slots * stride) 0

let[@inline] add c by =
  let i = Domain.DLS.get slot_key * stride in
  Array.unsafe_set c i (Array.unsafe_get c i + by)

let total (c : counter) =
  let s = ref 0 in
  for k = 0 to max_slots - 1 do
    s := !s + c.(k * stride)
  done;
  !s

let reset (c : counter) = Array.fill c 0 (Array.length c) 0

(* Boundary registry ------------------------------------------------------- *)

let boundary_mu = Mutex.create ()
let boundary_work : (unit -> unit) list ref = ref []

(* Register [f] to run at the next superstep boundary.  Only meaningful
   while [parallel ()]; callers register at most once per superstep (they
   keep their own epoch flag).  [f] runs single-threaded. *)
let at_boundary f =
  Mutex.lock boundary_mu;
  boundary_work := f :: !boundary_work;
  Mutex.unlock boundary_mu

(* Run and drain the registered boundary work.  Called by the scheduler
   only, single-threaded, between supersteps and before finishing. *)
let run_boundary () =
  Mutex.lock boundary_mu;
  let work = !boundary_work in
  boundary_work := [];
  Mutex.unlock boundary_mu;
  List.iter (fun f -> f ()) (List.rev work)

let reset_boundary () =
  Mutex.lock boundary_mu;
  boundary_work := [];
  Mutex.unlock boundary_mu
