module Staging = Hpcfs_fs.Staging

type row = {
  r_app : string;
  r_semantics : string;
  r_plan : string;
  r_crashed : bool;
  r_crash_rank : int;
  r_crash_time : int;
  r_restarts : int;
  r_lost_writes : int;
  r_lost_bytes : int;
  r_torn_writes : int;
  r_torn_bytes : int;
  r_bb_lost_bytes : int;
  r_drain_faults : int;
  r_post_files : int;
  r_post_corrupted : int;
  r_target_failures : int;
  r_replayed_bytes : int;
  r_journal_lost_bytes : int;
  r_fsck_clean : int;
  r_fsck_recovered : int;
  r_fsck_corrupted : int;
  r_wal : bool;
  r_log_faults : int;
  r_wal_recovered_bytes : int;
  r_wal_lost_bytes : int;
  r_wal_torn_bytes : int;
}

let survives r =
  r.r_lost_writes = 0 && r.r_torn_writes = 0 && r.r_bb_lost_bytes = 0
  && r.r_journal_lost_bytes = 0 && r.r_fsck_corrupted = 0
  && r.r_post_corrupted = 0 && r.r_wal_lost_bytes = 0
  && r.r_wal_torn_bytes = 0

let recovered r = r.r_post_corrupted = 0

let verdict r =
  if (not r.r_crashed) && r.r_target_failures = 0 then "no-crash"
  else if survives r then "survives"
  else if recovered r then "recovered"
  else "corrupted"

let row_of_outcome ~app ~semantics ~post_files ~post_corrupted
    (o : Injector.outcome) =
  let stats = Injector.crash_stats o in
  let rank, time =
    match o.Injector.o_crashes with
    | [] -> (-1, -1)
    | c :: _ -> (c.Injector.cr_rank, c.Injector.cr_time)
  in
  let fsck f = match o.Injector.o_check with Some c -> f c | None -> 0 in
  (* Bytes the check found gone for good: destroyed, or with no live
     target to replay to. *)
  let unrecoverable c = c.Staging.lost_bytes + c.Staging.pending_bytes in
  let has_journal = o.Injector.o_journal <> None in
  let has_wal = o.Injector.o_wal <> None in
  {
    r_app = app;
    r_semantics = semantics;
    r_plan = Plan.to_string o.Injector.o_plan;
    r_crashed = o.Injector.o_crashes <> [];
    r_crash_rank = rank;
    r_crash_time = time;
    r_restarts = o.Injector.o_restarts;
    r_lost_writes = stats.Hpcfs_fs.Fdata.lost_writes;
    r_lost_bytes = stats.Hpcfs_fs.Fdata.lost_bytes;
    r_torn_writes = stats.Hpcfs_fs.Fdata.torn_writes;
    r_torn_bytes = stats.Hpcfs_fs.Fdata.torn_bytes;
    r_bb_lost_bytes = Injector.bb_lost_bytes o;
    r_drain_faults = o.Injector.o_drain_faults;
    r_post_files = post_files;
    r_post_corrupted = post_corrupted;
    r_target_failures = Injector.target_failure_count o;
    r_replayed_bytes = Injector.replayed_bytes o;
    r_journal_lost_bytes = (if has_journal then fsck unrecoverable else 0);
    r_fsck_clean = fsck (fun c -> c.Staging.clean);
    r_fsck_recovered = fsck (fun c -> c.Staging.recovered);
    r_fsck_corrupted = fsck (fun c -> c.Staging.corrupted);
    r_wal = has_wal;
    r_log_faults = o.Injector.o_log_faults;
    r_wal_recovered_bytes = Injector.wal_recovered_bytes o;
    r_wal_lost_bytes = (if has_wal then fsck unrecoverable else 0);
    r_wal_torn_bytes =
      (if has_wal then fsck (fun c -> c.Staging.torn_bytes) else 0);
  }

(* Column sets.  The CSV holds the [Base] columns, the [Extended]
   (target-failure) ones when some row saw a storage failure, the [Walled]
   ones when some row ran through the WAL tier, then the verdict: legacy
   inputs render the exact historical CSV, byte for byte.  A table takes
   one layout — [Walled] over [Extended] over [Base] — and shows the
   columns that name it. *)
type set = Base | Extended | Walled | Verdict

type value = Str of string | Int of int | Flag of bool

(* [table] is the heading, the width (negative: left-aligned) and the
   layouts showing the column. *)
type column = {
  name : string;
  set : set;
  table : (string * int * set list) option;
  get : row -> value;
}

let all = [ Base; Extended; Walled ]
let col ?table set name get = { name; set; table; get }

(* In table order.  The CSV orders the sets as declared and keeps this
   order within each, so [post_corrupted], the tables' last count, stays
   the last base CSV column. *)
let columns =
  [
    col Base "app" ~table:("app", -14, all) (fun r -> Str r.r_app);
    col Base "semantics" ~table:("semantics", -10, all) (fun r ->
        Str r.r_semantics);
    col Base "plan" (fun r -> Str r.r_plan);
    col Base "crashed" ~table:("crashed", 7, all) (fun r -> Flag r.r_crashed);
    col Base "crash_rank" (fun r -> Int r.r_crash_rank);
    col Base "crash_time" (fun r -> Int r.r_crash_time);
    col Base "restarts" ~table:("restarts", 8, all) (fun r -> Int r.r_restarts);
    col Base "lost_writes" (fun r -> Int r.r_lost_writes);
    col Base "lost_bytes" ~table:("lost_bytes", 10, all) (fun r ->
        Int r.r_lost_bytes);
    col Base "torn_writes" ~table:("torn_wr", 7, [ Base; Extended ]) (fun r ->
        Int r.r_torn_writes);
    col Base "torn_bytes" ~table:("torn_bytes", 10, all) (fun r ->
        Int r.r_torn_bytes);
    col Base "bb_lost_bytes" ~table:("bb_lost", 8, [ Base; Extended ])
      (fun r -> Int r.r_bb_lost_bytes);
    col Base "drain_faults" (fun r -> Int r.r_drain_faults);
    col Base "post_files" (fun r -> Int r.r_post_files);
    col Extended "target_failures" ~table:("ost_fail", 8, [ Extended; Walled ])
      (fun r -> Int r.r_target_failures);
    col Extended "replayed_bytes" ~table:("replayed", 9, [ Extended ])
      (fun r -> Int r.r_replayed_bytes);
    col Extended "journal_lost_bytes" ~table:("jrnl_lost", 9, [ Extended ])
      (fun r -> Int r.r_journal_lost_bytes);
    col Extended "fsck_clean" (fun r -> Int r.r_fsck_clean);
    col Extended "fsck_recovered" (fun r -> Int r.r_fsck_recovered);
    col Extended "fsck_corrupted" (fun r -> Int r.r_fsck_corrupted);
    col Walled "log_faults" ~table:("log_fault", 10, [ Walled ]) (fun r ->
        Int r.r_log_faults);
    col Walled "wal_recovered_bytes" ~table:("wal_recov", 9, [ Walled ])
      (fun r -> Int r.r_wal_recovered_bytes);
    col Walled "wal_lost_bytes" ~table:("wal_lost", 8, [ Walled ]) (fun r ->
        Int r.r_wal_lost_bytes);
    col Walled "wal_torn_bytes" ~table:("wal_torn", 8, [ Walled ]) (fun r ->
        Int r.r_wal_torn_bytes);
    col Base "post_corrupted" ~table:("corrupt", 7, all) (fun r ->
        Int r.r_post_corrupted);
    col Verdict "verdict" ~table:("verdict", 10, all) (fun r ->
        Str (verdict r));
  ]

let extended rows = List.exists (fun r -> r.r_target_failures > 0) rows
let walled rows = List.exists (fun r -> r.r_wal) rows

let csv_columns ~ext ~wal =
  List.stable_sort (fun a b -> compare a.set b.set) columns
  |> List.filter (fun c ->
         match c.set with
         | Base | Verdict -> true
         | Extended -> ext
         | Walled -> wal)

let header ~ext ~wal =
  String.concat "," (List.map (fun c -> c.name) (csv_columns ~ext ~wal))

let csv_header = header ~ext:false ~wal:false
let csv_header_extended = header ~ext:true ~wal:false

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv rows =
  let ext = extended rows and wal = walled rows in
  let cols = csv_columns ~ext ~wal in
  let line r =
    String.concat ","
      (List.map
         (fun c ->
           match c.get r with
           | Str s -> csv_quote s
           | Int n -> string_of_int n
           | Flag b -> string_of_bool b)
         cols)
  in
  String.concat "\n" (header ~ext ~wal :: List.map line rows) ^ "\n"

let pp ppf rows =
  let layout =
    if walled rows then Walled else if extended rows then Extended else Base
  in
  let cells =
    List.filter_map
      (fun c ->
        match c.table with
        | Some (heading, width, layouts) when List.mem layout layouts ->
          Some (heading, width, c.get)
        | _ -> None)
      columns
  in
  let pad width s =
    if width < 0 then Printf.sprintf "%-*s" (-width) s
    else Printf.sprintf "%*s" width s
  in
  let line cell =
    Format.fprintf ppf "%s@."
      (String.concat " "
         (List.map (fun ((_, width, _) as c) -> pad width (cell c)) cells))
  in
  line (fun (heading, _, _) -> heading);
  List.iter
    (fun r ->
      line (fun (_, _, get) ->
          match get r with
          | Str s -> s
          | Int n -> string_of_int n
          | Flag b -> if b then "yes" else "no"))
    rows
