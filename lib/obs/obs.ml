type track = T_rank of int | T_fs | T_bb | T_sched | T_mpi | T_core

type span = {
  sp_name : string;
  sp_track : track;
  sp_t0 : int;
  sp_t1 : int;
  sp_w0 : float;
  sp_w1 : float;
  sp_args : (string * string) list;
}

type instant = {
  ev_name : string;
  ev_track : track;
  ev_t : int;
  ev_args : (string * string) list;
}

type metric =
  | Counter of int
  | Gauge of { value : int; series : (int * int) list }
  | Histogram of float array

(* Internal mutable metric cells; [metric] above is the immutable snapshot
   handed to exporters. *)
type cell =
  | C_counter of { mutable c : int }
  | C_gauge of { mutable g : int; mutable samples : (int * int) list }
  | C_hist of { mutable xs : float list; mutable n : int }

type sink = {
  cells : (string, cell) Hashtbl.t;
  mutable names : string list; (* registration order, newest first *)
  mutable sp : span list; (* completion order, newest first *)
  mutable ev : instant list; (* recording order, newest first *)
}

let create () =
  { cells = Hashtbl.create 64; names = []; sp = []; ev = [] }

(* One simulation runs at a time, on one domain (lib/sim's [Sched.run]), so
   every mutation of the installed sink is a plain unsynchronised update
   and the sink's lists are in recording order by construction. *)
let current : sink option ref = ref None
let install s = current := Some s
let uninstall () = current := None
let installed () = !current
let enabled () = !current <> None

let with_sink s f =
  let saved = !current in
  current := Some s;
  Fun.protect ~finally:(fun () -> current := saved) f

(* Clock hooks ------------------------------------------------------------- *)

let logical : (unit -> int) ref = ref (fun () -> 0)
let wall : (unit -> float) ref = ref Unix.gettimeofday
let set_logical_clock f = logical := f
let clear_logical_clock () = logical := fun () -> 0
let set_wall_clock f = wall := f
let logical_now () = !logical ()

(* Instrumentation --------------------------------------------------------- *)

let cell s name make =
  match Hashtbl.find_opt s.cells name with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.add s.cells name c;
    s.names <- name :: s.names;
    c

let incr ?(by = 1) name =
  match !current with
  | None -> ()
  | Some s ->
    match cell s name (fun () -> C_counter { c = 0 }) with
    | C_counter c -> c.c <- c.c + by
    | C_gauge _ | C_hist _ -> ()

let gauge name v =
  match !current with
  | None -> ()
  | Some s ->
    match cell s name (fun () -> C_gauge { g = 0; samples = [] }) with
    | C_gauge g ->
      g.g <- v;
      g.samples <- (!logical (), v) :: g.samples
    | C_counter _ | C_hist _ -> ()

let observe name x =
  match !current with
  | None -> ()
  | Some s ->
    match cell s name (fun () -> C_hist { xs = []; n = 0 }) with
    | C_hist h ->
      h.xs <- x :: h.xs;
      h.n <- h.n + 1
    | C_counter _ | C_gauge _ -> ()

let event track ?(args = []) name =
  match !current with
  | None -> ()
  | Some s ->
    s.ev <-
      { ev_name = name; ev_track = track; ev_t = !logical (); ev_args = args }
      :: s.ev

let record_span s track name ~t0 ~t1 ~w0 ~w1 args =
  s.sp <-
    {
      sp_name = name;
      sp_track = track;
      sp_t0 = t0;
      sp_t1 = t1;
      sp_w0 = w0;
      sp_w1 = w1;
      sp_args = args;
    }
    :: s.sp

let span track ?(args = []) name f =
  match !current with
  | None -> f ()
  | Some s ->
    let t0 = !logical () and w0 = !wall () in
    let finish () =
      record_span s track name ~t0 ~t1:(!logical ()) ~w0 ~w1:(!wall ()) args
    in
    let r =
      try f ()
      with e ->
        finish ();
        raise e
    in
    finish ();
    r

let span_at track ~t0 ~t1 ?(args = []) name =
  match !current with
  | None -> ()
  | Some s ->
    let w = !wall () in
    record_span s track name ~t0 ~t1 ~w0:w ~w1:w args

(* Reading ------------------------------------------------------------------ *)

let snapshot = function
  | C_counter { c } -> Counter c
  | C_gauge { g; samples } -> Gauge { value = g; series = List.rev samples }
  | C_hist { xs; _ } -> Histogram (Array.of_list (List.rev xs))

let metrics s =
  List.rev_map (fun n -> (n, snapshot (Hashtbl.find s.cells n))) s.names

let find_counter s name =
  match Hashtbl.find_opt s.cells name with
  | Some (C_counter { c }) -> c
  | _ -> 0

let find_gauge s name =
  match Hashtbl.find_opt s.cells name with
  | Some (C_gauge { g; _ }) -> g
  | _ -> 0

let spans s = List.rev s.sp
let instants s = List.rev s.ev

let span_summary s =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let count, ticks, secs =
        match Hashtbl.find_opt tbl sp.sp_name with
        | Some v -> v
        | None ->
          order := sp.sp_name :: !order;
          (0, 0, 0.0)
      in
      Hashtbl.replace tbl sp.sp_name
        (count + 1, ticks + (sp.sp_t1 - sp.sp_t0), secs +. (sp.sp_w1 -. sp.sp_w0)))
    (spans s);
  List.rev_map
    (fun name ->
      let count, ticks, secs = Hashtbl.find tbl name in
      (name, count, ticks, secs))
    !order

let reset s =
  Hashtbl.reset s.cells;
  s.names <- [];
  s.sp <- [];
  s.ev <- []

(* The trace codec sits below this library in the dependency order, so it
   cannot call [incr] itself; it exposes a meter hook, pointed here at the
   registry when this library is linked in.  With no sink installed the
   ticks stay single-branch no-ops, like every other call site. *)
let () = Hpcfs_trace.Codec.set_meter ~enabled (fun name by -> incr ~by name)
