module Domctx = Hpcfs_util.Domctx

type spill = { path : string; chunk_records : int }

type disk = {
  config : spill;
  mutable oc : out_channel;
  mutable enc : Codec.encoder;
  mutable chunks_seen : int;
  mutable finished : bool;
}

(* The in-memory backend keeps one accumulation list per scheduler domain
   (indexed by Domctx.slot): ranks sharded across domains emit without
   contention, and [records] merges the slots.  Single-domain runs only
   ever touch slot 0, so their accumulation order — and therefore the
   trace — is exactly what it always was.  Each entry carries the run
   epoch at emission: times are unique within one scheduler run but can
   collide across restart attempts, and those ties must merge in attempt
   order, not slot order. *)
type backend =
  | Memory of { slots : (int * Record.t) list array }
  | Disk of disk

type t = { count : Domctx.counter; mu : Mutex.t; backend : backend }

let open_disk config =
  let oc = open_out_bin config.path in
  let enc = Codec.encoder ~chunk_records:config.chunk_records oc in
  { config; oc; enc; chunks_seen = 0; finished = false }

let create ?spill () =
  let backend =
    match spill with
    | None -> Memory { slots = Array.make Domctx.max_slots [] }
    | Some config -> Disk (open_disk config)
  in
  { count = Domctx.counter (); mu = Mutex.create (); backend }

let emit_disk d r =
  if d.finished then invalid_arg "Collector.emit: spill already finished";
  Codec.encode d.enc r;
  let chunks = (Codec.stats d.enc).Codec.chunks in
  if chunks > d.chunks_seen then begin
    Codec.tick "trace.codec.chunks_spilled" (chunks - d.chunks_seen);
    d.chunks_seen <- chunks
  end

let emit t r =
  (match t.backend with
  | Memory m ->
    let k = Domctx.slot () in
    m.slots.(k) <- (Domctx.run_epoch (), r) :: m.slots.(k)
  | Disk d ->
    (* The codec is not concurrency-safe; a parallel run serializes spill
       emission.  The file then holds arrival order, not timestamp order
       — spilling is for single-domain at-scale recording (see .mli). *)
    Domctx.locked t.mu (fun () -> emit_disk d r));
  Domctx.add t.count 1

let finish t =
  match t.backend with
  | Memory _ -> ()
  | Disk d ->
    if not d.finished then begin
      Codec.finish d.enc;
      let chunks = (Codec.stats d.enc).Codec.chunks in
      if chunks > d.chunks_seen then begin
        Codec.tick "trace.codec.chunks_spilled" (chunks - d.chunks_seen);
        d.chunks_seen <- chunks
      end;
      close_out d.oc;
      d.finished <- true
    end

let spill_path t =
  match t.backend with Memory _ -> None | Disk d -> Some d.config.path

(* Is a newest-first accumulation list already in (epoch, time) order,
   i.e. is every entry at or after its successor? *)
let rec newest_first_ordered = function
  | ((e1 : int), r1) :: ((e2, r2) :: _ as rest) ->
    (e1 > e2 || (e1 = e2 && r1.Record.time >= r2.Record.time))
    && newest_first_ordered rest
  | [ _ ] | [] -> true

(* Merge the per-slot lists.  Within one run epoch every timestamp is
   unique, so sorting by time is a total order there no matter how many
   domains emitted.  Across epochs (restart attempts of a faulted run)
   times can collide, so the sort key leads with the epoch: attempts
   stay in emission order, as the single-domain scheduler interleaves
   them.

   A single-domain run emits into slot 0 alone, in time order, so one
   pass confirms the order and one reversal yields the trace: the list a
   stable sort would return, since a stable sort keeps ties (within a
   slot) in emission order.  OCaml's [List.stable_sort] is not adaptive,
   so it is only paid for several slots (a parallel run) or an
   out-of-order emission. *)
let memory_records slots =
  match List.filter (fun l -> l <> []) (Array.to_list slots) with
  | [ l ] when newest_first_ordered l -> List.rev_map snd l
  | nonempty ->
    List.concat_map List.rev nonempty
    |> List.stable_sort (fun (e1, r1) (e2, r2) ->
           if e1 <> e2 then Int.compare e1 e2 else Record.compare_time r1 r2)
    |> List.map snd

let iter t ~f =
  match t.backend with
  | Memory m -> List.iter f (memory_records m.slots)
  | Disk d -> (
    finish t;
    match Tracefile.iter d.config.path ~f with
    | Ok _ -> ()
    | Error e ->
      failwith (Printf.sprintf "Collector: spill file %s: %s" d.config.path e))

(* A spill file holds arrival order, which a parallel run interleaves, so
   the records read back from it always go through the sort. *)
let records t =
  match t.backend with
  | Memory m -> memory_records m.slots
  | Disk _ ->
    let acc = ref [] in
    iter t ~f:(fun r -> acc := r :: !acc);
    List.stable_sort Record.compare_time (List.rev !acc)

let by_rank t =
  let rs = records t in
  let max_rank =
    List.fold_left (fun acc r -> max acc r.Record.rank) (-1) rs
  in
  let buckets = Array.make (max_rank + 1) [] in
  List.iter (fun r -> buckets.(r.Record.rank) <- r :: buckets.(r.Record.rank)) rs;
  Array.map List.rev buckets

let count t = Domctx.total t.count

let clear t =
  (match t.backend with
  | Memory m -> Array.fill m.slots 0 (Array.length m.slots) []
  | Disk d ->
    if not d.finished then close_out_noerr d.oc;
    let fresh = open_disk d.config in
    d.oc <- fresh.oc;
    d.enc <- fresh.enc;
    d.chunks_seen <- 0;
    d.finished <- false);
  Domctx.reset t.count
