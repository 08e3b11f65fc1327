type spill = { path : string; chunk_records : int }

type disk = {
  config : spill;
  mutable oc : out_channel;
  mutable enc : Codec.encoder;
  mutable chunks_seen : int;
  mutable finished : bool;
}

(* The in-memory backend appends to a doubling array, in emission order:
   a record costs at most two words of it where a list cell costs three,
   and no cell is promoted alongside each record.  [records] turns the
   array into a timestamp-ordered list. *)
type memory = { mutable recs : Record.t array; mutable len : int }

type backend = Memory of memory | Disk of disk

type t = { mutable count : int; backend : backend }

let open_disk config =
  let oc = open_out_bin config.path in
  let enc = Codec.encoder ~chunk_records:config.chunk_records oc in
  { config; oc; enc; chunks_seen = 0; finished = false }

let create ?spill () =
  let backend =
    match spill with
    | None -> Memory { recs = [||]; len = 0 }
    | Some config -> Disk (open_disk config)
  in
  { count = 0; backend }

let emit_disk d r =
  if d.finished then invalid_arg "Collector.emit: spill already finished";
  Codec.encode d.enc r;
  let chunks = (Codec.stats d.enc).Codec.chunks in
  if chunks > d.chunks_seen then begin
    Codec.tick "trace.codec.chunks_spilled" (chunks - d.chunks_seen);
    d.chunks_seen <- chunks
  end

let emit_memory m r =
  if m.len = Array.length m.recs then begin
    let grown = Array.make (max 64 (2 * m.len)) r in
    Array.blit m.recs 0 grown 0 m.len;
    m.recs <- grown
  end;
  m.recs.(m.len) <- r;
  m.len <- m.len + 1

let emit t r =
  (match t.backend with
  | Memory m -> emit_memory m r
  | Disk d -> emit_disk d r);
  t.count <- t.count + 1

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

(* The emission-order list. *)
let emitted m =
  let rec go i acc = if i < 0 then acc else go (i - 1) (m.recs.(i) :: acc) in
  go (m.len - 1) []

let rec ascending = function
  | (r1 : Record.t) :: (r2 :: _ as rest) ->
    r1.Record.time <= r2.Record.time && ascending rest
  | [ _ ] | [] -> true

(* The scheduler emits in timestamp order, so one pass confirms the order
   and the emission-order list is the trace: the list a stable sort would
   return, since a stable sort keeps ties in emission order.  OCaml's
   [List.stable_sort] is not adaptive, so it is only paid for an
   out-of-order emission. *)
let in_time_order emitted =
  if ascending emitted then emitted
  else List.stable_sort Record.compare_time emitted

let iter t ~f =
  match t.backend with
  | Memory m -> List.iter f (in_time_order (emitted m))
  | Disk d -> (
    finish t;
    match Tracefile.iter d.config.path ~f with
    | Ok _ -> ()
    | Error e ->
      failwith (Printf.sprintf "Collector: spill file %s: %s" d.config.path e))

let records t =
  match t.backend with
  | Memory m -> in_time_order (emitted m)
  | Disk _ ->
    let acc = ref [] in
    iter t ~f:(fun r -> acc := r :: !acc);
    in_time_order (List.rev !acc)

let by_rank t =
  let rs = records t in
  let max_rank =
    List.fold_left (fun acc r -> max acc r.Record.rank) (-1) rs
  in
  let buckets = Array.make (max_rank + 1) [] in
  List.iter (fun r -> buckets.(r.Record.rank) <- r :: buckets.(r.Record.rank)) rs;
  Array.map List.rev buckets

let count t = t.count

let clear t =
  (match t.backend with
  | Memory m ->
    m.recs <- [||];
    m.len <- 0
  | Disk d ->
    if not d.finished then close_out_noerr d.oc;
    let fresh = open_disk d.config in
    d.oc <- fresh.oc;
    d.enc <- fresh.enc;
    d.chunks_seen <- 0;
    d.finished <- false);
  t.count <- 0
