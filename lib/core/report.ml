type t = {
  nprocs : int;
  record_count : int;
  access_count : int;
  skipped : int;
  sharing : Sharing.t;
  local_mix : Pattern.mix;
  global_mix : Pattern.mix;
  session : Conflict.summary;
  commit : Conflict.summary;
  metadata : Metadata_report.usage;
  meta_counts : Metadata_report.counts;
  verdict : Recommend.verdict;
}

module Obs = Hpcfs_obs.Obs

type stream = {
  given_nprocs : int option;
  resolver : Offsets.stream;
  by_file : (string, Offsets.raw list ref) Hashtbl.t;
  meta : Metadata_report.collector;
  naccesses : int ref;
  mutable fed : int;
  mutable max_rank : int;
}

let stream ?nprocs () =
  let by_file = Hashtbl.create 64 in
  let naccesses = ref 0 in
  let emit raw =
    incr naccesses;
    match Hashtbl.find_opt by_file raw.Offsets.r_file with
    | Some l -> l := raw :: !l
    | None -> Hashtbl.add by_file raw.Offsets.r_file (ref [ raw ])
  in
  {
    given_nprocs = nprocs;
    resolver = Offsets.stream ~emit;
    by_file;
    meta = Metadata_report.collector ();
    naccesses;
    fed = 0;
    max_rank = -1;
  }

let feed s r =
  s.fed <- s.fed + 1;
  if r.Hpcfs_trace.Record.rank > s.max_rank then
    s.max_rank <- r.Hpcfs_trace.Record.rank;
  Metadata_report.record s.meta r;
  Offsets.feed s.resolver r

let check_ranks s =
  match s.given_nprocs with
  | Some n when n <= s.max_rank ->
    Error (Printf.sprintf "the trace has %d ranks, %d given" (s.max_rank + 1) n)
  | Some _ | None -> Ok ()

let finish s : t =
  Obs.span Obs.T_core "analyze.stream" @@ fun () ->
  let events = Offsets.seal s.resolver in
  let nprocs =
    match s.given_nprocs with Some n -> n | None -> max 1 (s.max_rank + 1)
  in
  let sharing_acc = Sharing.acc ~nprocs in
  let local = ref Pattern.zero in
  let global = ref Pattern.zero in
  let session = ref Conflict.empty_summary in
  let commit = ref Conflict.empty_summary in
  Hashtbl.iter
    (fun _file raws ->
      (* [rev_map] restores emission (= timestamp) order per file. *)
      let accesses = List.rev_map (Offsets.annotate events) !raws in
      Sharing.add_file sharing_acc accesses;
      local := Pattern.add !local (Pattern.local_mix accesses);
      global := Pattern.add !global (Pattern.classify_stream accesses);
      Overlap.iter_file_pairs accesses ~f:(fun pair ->
          (match Conflict.classify Conflict.Session_semantics pair with
          | Some c -> session := Conflict.count !session c
          | None -> ());
          match Conflict.classify Conflict.Commit_semantics pair with
          | Some c -> commit := Conflict.count !commit c
          | None -> ()))
    s.by_file;
  {
    nprocs;
    record_count = s.fed;
    access_count = !(s.naccesses);
    skipped = Offsets.skipped s.resolver;
    sharing = Sharing.finish sharing_acc;
    local_mix = !local;
    global_mix = !global;
    session = !session;
    commit = !commit;
    metadata = Metadata_report.usage s.meta;
    meta_counts = Metadata_report.counts s.meta;
    verdict = Recommend.of_summaries ~session:!session ~commit:!commit;
  }

let analyze ~nprocs records =
  let s = stream ~nprocs () in
  List.iter (feed s) records;
  finish s

let pp_mix ppf mix =
  let c, m, r = Pattern.percentages mix in
  Format.fprintf ppf "%.1f%% consecutive, %.1f%% monotonic, %.1f%% random" c m
    r

let pp_conflict_summary ppf (s : Conflict.summary) =
  Format.fprintf ppf "WAW-S:%d WAW-D:%d RAW-S:%d RAW-D:%d" s.Conflict.waw_s
    s.Conflict.waw_d s.Conflict.raw_s s.Conflict.raw_d

let pp_digest ppf (s : t) =
  Format.fprintf ppf "records analyzed : %d (%d data accesses, %d skipped)@."
    s.record_count s.access_count s.skipped;
  Format.fprintf ppf "sharing pattern  : %s, %s (%d ranks doing I/O on %d files)@."
    (Sharing.xy_name s.sharing.Sharing.xy)
    (Sharing.structure_name s.sharing.Sharing.structure)
    s.sharing.Sharing.io_ranks s.sharing.Sharing.files;
  Format.fprintf ppf "local pattern    : %a@." pp_mix s.local_mix;
  Format.fprintf ppf "global pattern   : %a@." pp_mix s.global_mix;
  Format.fprintf ppf "session conflicts: %a@." pp_conflict_summary s.session;
  Format.fprintf ppf "commit conflicts : %a@." pp_conflict_summary s.commit;
  Format.fprintf ppf "metadata ops     : %s@."
    (String.concat ", " (Metadata_report.used_ops s.metadata));
  Format.fprintf ppf "weakest semantics: %s@." (Recommend.describe s.verdict)

