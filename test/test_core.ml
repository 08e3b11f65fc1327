(* Tests for the analysis core: offset reconstruction, Algorithm 1,
   conflict detection under commit/session semantics, pattern and sharing
   classification, metadata inventory, happens-before. *)

module Interval = Hpcfs_util.Interval
module Record = Hpcfs_trace.Record
module Access = Hpcfs_core.Access
module Offsets = Hpcfs_core.Offsets
module Eventtab = Hpcfs_core.Eventtab
module Overlap = Hpcfs_core.Overlap
module Overlap_ref = Hpcfs_oracle.Overlap_ref
module Conflict = Hpcfs_core.Conflict
module Pattern = Hpcfs_core.Pattern
module Sharing = Hpcfs_core.Sharing
module Metadata_report = Hpcfs_core.Metadata_report
module Happens_before = Hpcfs_core.Happens_before
module Recommend = Hpcfs_core.Recommend
module Mpi = Hpcfs_mpi.Mpi
module Sched = Hpcfs_sim.Sched

(* Record builders ---------------------------------------------------------- *)

let clock = ref 0

let rec_ ?(rank = 0) ?file ?fd ?offset ?count ?(args = []) func =
  incr clock;
  Record.make ~time:!clock ~rank ~layer:Record.L_posix ~origin:Record.O_app
    ~func ?file ?fd ?offset ?count ~args ()

let reset () = clock := 0

(* List literals evaluate right-to-left; [seq] forces left-to-right clock
   assignment for the thunked record builders. *)
let seq thunks =
  List.rev (List.fold_left (fun acc f -> f () :: acc) [] thunks)

(* Access builder for algorithm-level tests. *)
let acc ?(rank = 0) ?(file = "/f") ?(op = Access.Write) ?(t_open = min_int)
    ?(t_commit = max_int) ?(t_close = max_int) ~time ~lo ~len () =
  {
    Access.time;
    rank;
    file;
    iv = Interval.of_len lo len;
    op;
    func = (match op with Access.Write -> "write" | Access.Read -> "read");
    t_open;
    t_commit;
    t_close;
  }

(* Offsets ------------------------------------------------------------------ *)

let test_offsets_sequential_writes () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~fd:3 ~file:"/f" ~args:[ ("flags", "O_WRONLY|O_CREAT") ] "open");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:10 "write");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:5 "write");
      (fun () -> rec_ ~fd:3 ~file:"/f" "close");
    ]
  in
  let r = Offsets.resolve records in
  (match r.Offsets.accesses with
  | [ a; b ] ->
    Alcotest.(check int) "first at 0" 0 a.Access.iv.Interval.lo;
    Alcotest.(check int) "second at 10" 10 b.Access.iv.Interval.lo;
    Alcotest.(check int) "second ends 15" 15 b.Access.iv.Interval.hi
  | _ -> Alcotest.fail "expected two accesses");
  Alcotest.(check int) "nothing skipped" 0 r.Offsets.skipped

let test_offsets_seek_whences () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~fd:3 ~file:"/f" ~args:[ ("flags", "O_RDWR|O_CREAT") ] "open");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:100 "write");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~offset:10 ~args:[ ("whence", "SEEK_SET") ] "lseek");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:5 "read");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~offset:5 ~args:[ ("whence", "SEEK_CUR") ] "lseek");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:5 "read");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~offset:(-8) ~args:[ ("whence", "SEEK_END") ] "lseek");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:8 "read");
    ]
  in
  let r = Offsets.resolve records in
  let reads =
    List.filter (fun a -> a.Access.op = Access.Read) r.Offsets.accesses
  in
  Alcotest.(check (list int)) "read offsets" [ 10; 20; 92 ]
    (List.map (fun a -> a.Access.iv.Interval.lo) reads)

let test_offsets_append_flag () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~fd:3 ~file:"/f" ~args:[ ("flags", "O_WRONLY|O_CREAT") ] "open");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:7 "write");
      (fun () -> rec_ ~fd:3 ~file:"/f" "close");
      (fun () -> rec_ ~fd:4 ~file:"/f" ~args:[ ("flags", "O_WRONLY|O_APPEND") ] "open");
      (fun () -> rec_ ~fd:4 ~file:"/f" ~count:3 "write");
    ]
  in
  let r = Offsets.resolve records in
  let last = List.nth r.Offsets.accesses 1 in
  Alcotest.(check int) "append lands at size" 7 last.Access.iv.Interval.lo

let test_offsets_trunc_resets_size () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~fd:3 ~file:"/f" ~args:[ ("flags", "O_WRONLY|O_CREAT") ] "open");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:50 "write");
      (fun () -> rec_ ~fd:3 ~file:"/f" "close");
      (fun () -> rec_ ~fd:4 ~file:"/f" ~args:[ ("flags", "O_WRONLY|O_TRUNC") ] "open");
      (fun () -> rec_ ~fd:4 ~file:"/f" ~offset:0 ~args:[ ("whence", "SEEK_END") ] "lseek");
      (fun () -> rec_ ~fd:4 ~file:"/f" ~count:4 "write");
    ]
  in
  let r = Offsets.resolve records in
  let last = List.nth r.Offsets.accesses 1 in
  Alcotest.(check int) "SEEK_END after O_TRUNC is 0" 0
    last.Access.iv.Interval.lo

let test_offsets_pwrite_explicit () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~fd:3 ~file:"/f" ~args:[ ("flags", "O_RDWR|O_CREAT") ] "open");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~offset:1000 ~count:10 "pwrite");
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:5 "write");
    ]
  in
  let r = Offsets.resolve records in
  (match r.Offsets.accesses with
  | [ p; w ] ->
    Alcotest.(check int) "pwrite offset" 1000 p.Access.iv.Interval.lo;
    Alcotest.(check int) "write unaffected by pwrite" 0 w.Access.iv.Interval.lo
  | _ -> Alcotest.fail "expected two accesses")

let test_offsets_annotations () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~fd:3 ~file:"/f" ~args:[ ("flags", "O_RDWR|O_CREAT") ] "open");
      (fun () -> (* t=1 *) rec_ ~fd:3 ~file:"/f" ~count:10 "write" (* t=2 *));
      (fun () -> rec_ ~fd:3 ~file:"/f" "fsync" (* t=3 *));
      (fun () -> rec_ ~fd:3 ~file:"/f" ~count:10 "write" (* t=4 *));
      (fun () -> rec_ ~fd:3 ~file:"/f" "close" (* t=5 *));
    ]
  in
  let r = Offsets.resolve records in
  (match r.Offsets.accesses with
  | [ w1; w2 ] ->
    Alcotest.(check int) "w1 open" 1 w1.Access.t_open;
    Alcotest.(check int) "w1 first commit is the fsync" 3 w1.Access.t_commit;
    Alcotest.(check int) "w1 first close" 5 w1.Access.t_close;
    Alcotest.(check int) "w2 commit is the close" 5 w2.Access.t_commit
  | _ -> Alcotest.fail "expected two accesses");
  Alcotest.(check bool) "commit between" true
    (Eventtab.exists_commit_between r.Offsets.events ~rank:0 ~file:"/f" 2 4)

let test_offsets_skip_unknown_fd () =
  reset ();
  let records = [ rec_ ~fd:9 ~file:"/f" ~count:10 "write" ] in
  let r = Offsets.resolve records in
  Alcotest.(check int) "skipped" 1 r.Offsets.skipped;
  Alcotest.(check int) "no accesses" 0 (List.length r.Offsets.accesses)

(* Overlap (Algorithm 1) ---------------------------------------------------- *)

let test_overlap_basic () =
  let accesses =
    [
      acc ~time:1 ~lo:0 ~len:10 ();
      acc ~time:2 ~lo:5 ~len:10 ();
      acc ~time:3 ~lo:20 ~len:5 ();
    ]
  in
  let pairs = Overlap.detect accesses in
  Alcotest.(check int) "one overlap" 1 (List.length pairs);
  let a, b = List.hd pairs in
  Alcotest.(check bool) "ordered by time" true (a.Access.time < b.Access.time)

let test_overlap_touching_is_not_overlap () =
  let accesses = [ acc ~time:1 ~lo:0 ~len:10 (); acc ~time:2 ~lo:10 ~len:10 () ] in
  Alcotest.(check int) "touching extents do not overlap" 0
    (List.length (Overlap.detect accesses))

let test_overlap_distinct_files_never_overlap () =
  let accesses =
    [ acc ~file:"/a" ~time:1 ~lo:0 ~len:10 (); acc ~file:"/b" ~time:2 ~lo:0 ~len:10 () ]
  in
  Alcotest.(check int) "different files" 0 (List.length (Overlap.detect accesses))

let test_overlap_rank_matrix () =
  let accesses =
    [ acc ~rank:2 ~time:1 ~lo:0 ~len:10 (); acc ~rank:5 ~time:2 ~lo:5 ~len:10 () ]
  in
  let m = Overlap.rank_matrix ~nprocs:8 (Overlap.detect accesses) in
  Alcotest.(check int) "cell (2,5)" 1 m.(2).(5)

let gen_accesses =
  QCheck.Gen.(
    let* n = int_range 0 60 in
    let* ops =
      list_repeat n
        (let* rank = int_bound 4 in
         let* lo = int_bound 100 in
         let* len = int_range 1 20 in
         let* is_write = bool in
         return (rank, lo, len, is_write))
    in
    return
      (List.mapi
         (fun i (rank, lo, len, is_write) ->
           acc ~rank ~time:(i + 1) ~lo ~len
             ~op:(if is_write then Access.Write else Access.Read)
             ())
         ops))

let norm pairs =
  List.map
    (fun ((a : Access.t), (b : Access.t)) -> (a.Access.time, b.Access.time))
    pairs
  |> List.sort compare

let qcheck_algorithm1_matches_naive =
  QCheck.Test.make ~name:"Algorithm 1 equals naive O(n^2)" ~count:200
    (QCheck.make gen_accesses) (fun accesses ->
      norm (Overlap.detect accesses)
      = norm (Overlap_ref.detect_naive accesses))

let qcheck_merge_matches_sort =
  QCheck.Test.make ~name:"merge variant equals sort variant" ~count:200
    (QCheck.make gen_accesses) (fun accesses ->
      norm (Overlap.detect accesses) = norm (Overlap.detect_merge accesses))

let qcheck_all_detectors_agree =
  (* Three-way: the heap k-way merge, the sort variant and the naive
     O(n^2) reference all find the same pair multiset. *)
  QCheck.Test.make ~name:"heap merge = sort = naive" ~count:200
    (QCheck.make gen_accesses) (fun accesses ->
      let d = norm (Overlap.detect accesses) in
      d = norm (Overlap.detect_merge accesses)
      && d = norm (Overlap_ref.detect_naive accesses))

let test_rank_matrix_out_of_range () =
  let pairs =
    Overlap.detect
      [ acc ~rank:2 ~time:1 ~lo:0 ~len:10 (); acc ~rank:5 ~time:2 ~lo:5 ~len:10 () ]
  in
  Alcotest.check_raises "rank 5 with nprocs 4"
    (Invalid_argument "Overlap.rank_matrix: pair ranks (2, 5) outside 0..3")
    (fun () -> ignore (Overlap.rank_matrix ~nprocs:4 pairs))

(* Conflicts ---------------------------------------------------------------- *)

let test_conflict_commit_condition () =
  (* w committed before the second access: no commit conflict. *)
  let w = acc ~rank:0 ~time:1 ~lo:0 ~len:10 ~t_commit:5 () in
  let r = acc ~rank:1 ~time:10 ~lo:0 ~len:10 ~op:Access.Read () in
  Alcotest.(check int) "commit clears" 0
    (List.length (Conflict.of_pairs Conflict.Commit_semantics [ (w, r) ]));
  let w2 = acc ~rank:0 ~time:1 ~lo:0 ~len:10 ~t_commit:20 () in
  match Conflict.of_pairs Conflict.Commit_semantics [ (w2, r) ] with
  | [ c ] ->
    Alcotest.(check bool) "RAW" true (c.Conflict.kind = Conflict.RAW);
    Alcotest.(check bool) "D" true (c.Conflict.scope = Conflict.Diff)
  | _ -> Alcotest.fail "expected one conflict"

let test_conflict_session_condition () =
  (* Writer closes at 5, reader opened at 7 before reading at 10: clean. *)
  let w = acc ~rank:0 ~time:1 ~lo:0 ~len:10 ~t_close:5 ~t_commit:5 () in
  let r =
    acc ~rank:1 ~time:10 ~lo:0 ~len:10 ~op:Access.Read ~t_open:7 ()
  in
  Alcotest.(check int) "close-to-open clears" 0
    (List.length (Conflict.of_pairs Conflict.Session_semantics [ (w, r) ]));
  (* Reader's open precedes the writer's close: conflict. *)
  let r_stale =
    acc ~rank:1 ~time:10 ~lo:0 ~len:10 ~op:Access.Read ~t_open:3 ()
  in
  Alcotest.(check int) "stale session read conflicts" 1
    (List.length (Conflict.of_pairs Conflict.Session_semantics [ (w, r_stale) ]))

let test_conflict_fsync_insufficient_for_session () =
  (* Commit at 5 but no close: commit semantics fine, session conflicts. *)
  let w = acc ~rank:0 ~time:1 ~lo:0 ~len:10 ~t_commit:5 ~t_close:max_int () in
  let r = acc ~rank:1 ~time:10 ~lo:0 ~len:10 ~op:Access.Read ~t_open:7 () in
  Alcotest.(check int) "commit ok" 0
    (List.length (Conflict.of_pairs Conflict.Commit_semantics [ (w, r) ]));
  Alcotest.(check int) "session conflicts" 1
    (List.length (Conflict.of_pairs Conflict.Session_semantics [ (w, r) ]))

let test_conflict_read_first_never_conflicts () =
  let r = acc ~rank:0 ~time:1 ~lo:0 ~len:10 ~op:Access.Read () in
  let w = acc ~rank:1 ~time:2 ~lo:0 ~len:10 () in
  Alcotest.(check int) "WAR is not a conflict" 0
    (List.length (Conflict.of_pairs Conflict.Session_semantics [ (r, w) ]))

let test_conflict_classification () =
  let w1 = acc ~rank:0 ~time:1 ~lo:0 ~len:10 () in
  let w2 = acc ~rank:0 ~time:2 ~lo:0 ~len:10 () in
  let w3 = acc ~rank:1 ~time:3 ~lo:0 ~len:10 () in
  let r1 = acc ~rank:0 ~time:4 ~lo:0 ~len:10 ~op:Access.Read () in
  let conflicts =
    Conflict.of_pairs Conflict.Session_semantics
      [ (w1, w2); (w2, w3); (w3, r1) ]
  in
  let s = Conflict.summarize conflicts in
  Alcotest.(check int) "waw_s" 1 s.Conflict.waw_s;
  Alcotest.(check int) "waw_d" 1 s.Conflict.waw_d;
  Alcotest.(check int) "raw_d" 1 s.Conflict.raw_d;
  Alcotest.(check bool) "not clean" false (Conflict.no_conflicts s);
  Alcotest.(check bool) "not same-only" false (Conflict.only_same_process s)

let test_conflict_modes_agree () =
  reset ();
  (* Build a trace with both commit and close events, then check that the
     annotated and table-based detectors agree. *)
  let records =
    seq
    [
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/f" ~args:[ ("flags", "O_RDWR|O_CREAT") ] "open");
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/f" ~count:10 "write");
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/f" "fsync");
      (fun () -> rec_ ~rank:1 ~fd:3 ~file:"/f" ~args:[ ("flags", "O_RDWR") ] "open");
      (fun () -> rec_ ~rank:1 ~fd:3 ~file:"/f" ~count:10 "write");
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/f" ~offset:0 ~args:[ ("whence", "SEEK_SET") ] "lseek");
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/f" ~count:10 "read");
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/f" "close");
      (fun () -> rec_ ~rank:1 ~fd:3 ~file:"/f" "close");
    ]
  in
  let resolved = Offsets.resolve records in
  let pairs = Overlap.detect resolved.Offsets.accesses in
  List.iter
    (fun semantics ->
      let annotated = Conflict.of_pairs ~mode:Conflict.Annotated semantics pairs in
      let tables =
        Conflict.of_pairs
          ~mode:(Conflict.Tables resolved.Offsets.events)
          semantics pairs
      in
      Alcotest.(check int) "modes agree" (List.length annotated)
        (List.length tables))
    [ Conflict.Commit_semantics; Conflict.Session_semantics ]

let qcheck_commit_conflicts_subset_of_session_overlaps =
  QCheck.Test.make
    ~name:"every conflict pair is an overlapping write-first pair" ~count:200
    (QCheck.make gen_accesses) (fun accesses ->
      let pairs = Overlap.detect accesses in
      let check semantics =
        List.for_all
          (fun c ->
            Access.is_write c.Conflict.first
            && c.Conflict.first.Access.time < c.Conflict.second.Access.time
            && Interval.overlaps c.Conflict.first.Access.iv
                 c.Conflict.second.Access.iv)
          (Conflict.of_pairs semantics pairs)
      in
      check Conflict.Commit_semantics && check Conflict.Session_semantics)

(* Patterns ----------------------------------------------------------------- *)

let test_pattern_consecutive () =
  let accesses =
    [ acc ~time:1 ~lo:0 ~len:10 (); acc ~time:2 ~lo:10 ~len:10 ();
      acc ~time:3 ~lo:20 ~len:10 () ]
  in
  let m = Pattern.classify_stream accesses in
  Alcotest.(check int) "all consecutive" 3 m.Pattern.consecutive

let test_pattern_monotonic_and_random () =
  let accesses =
    [ acc ~time:1 ~lo:0 ~len:10 (); acc ~time:2 ~lo:50 ~len:10 ();
      acc ~time:3 ~lo:5 ~len:10 () ]
  in
  let m = Pattern.classify_stream accesses in
  Alcotest.(check int) "consecutive" 1 m.Pattern.consecutive;
  Alcotest.(check int) "monotonic" 1 m.Pattern.monotonic;
  Alcotest.(check int) "random" 1 m.Pattern.random

let test_pattern_local_vs_global () =
  (* Two ranks, each locally consecutive, interleaved badly globally. *)
  let accesses =
    [
      acc ~rank:0 ~time:1 ~lo:0 ~len:10 ();
      acc ~rank:1 ~time:2 ~lo:100 ~len:10 ();
      acc ~rank:0 ~time:3 ~lo:10 ~len:10 ();
      acc ~rank:1 ~time:4 ~lo:110 ~len:10 ();
    ]
  in
  let local = Pattern.local_mix accesses in
  (* Rank 1's stream starts at offset 100, so its first access is monotonic;
     everything else chains consecutively. *)
  Alcotest.(check int) "locally consecutive" 3 local.Pattern.consecutive;
  Alcotest.(check int) "one monotonic stream head" 1 local.Pattern.monotonic;
  let global = Pattern.global_mix accesses in
  Alcotest.(check bool) "globally some random" true (global.Pattern.random > 0)

let test_pattern_percentages () =
  let m = { Pattern.consecutive = 1; monotonic = 1; random = 2 } in
  let c, mo, r = Pattern.percentages m in
  Alcotest.(check (float 0.01)) "cons" 25.0 c;
  Alcotest.(check (float 0.01)) "mono" 25.0 mo;
  Alcotest.(check (float 0.01)) "rand" 50.0 r

let test_offset_series () =
  let accesses =
    [ acc ~file:"/a" ~time:1 ~lo:0 ~len:5 (); acc ~file:"/b" ~time:2 ~lo:9 ~len:5 () ]
  in
  let series = Pattern.offset_series accesses ~file:"/b" in
  Alcotest.(check int) "filtered" 1 (List.length series)

(* Sharing ------------------------------------------------------------------ *)

let test_sharing_n_n () =
  let accesses =
    List.init 4 (fun r -> acc ~rank:r ~file:(Printf.sprintf "/f%d" r) ~time:(r + 1) ~lo:0 ~len:10 ())
  in
  let s = Sharing.classify ~nprocs:4 accesses in
  Alcotest.(check string) "N-N" "N-N" (Sharing.xy_name s.Sharing.xy)

let test_sharing_n_1_tiled () =
  let accesses =
    List.init 4 (fun r -> acc ~rank:r ~time:(r + 1) ~lo:(r * 10) ~len:10 ())
  in
  let s = Sharing.classify ~nprocs:4 accesses in
  Alcotest.(check string) "N-1" "N-1" (Sharing.xy_name s.Sharing.xy);
  Alcotest.(check bool) "tiles are consecutive" true
    (s.Sharing.structure = Sharing.Consecutive)

let test_sharing_strided () =
  let accesses =
    List.concat_map
      (fun seg ->
        List.init 4 (fun r ->
            acc ~rank:r ~time:((seg * 4) + r + 1) ~lo:((seg * 40) + (r * 5)) ~len:5 ()))
      [ 0; 1; 2 ]
  in
  let s = Sharing.classify ~nprocs:4 accesses in
  Alcotest.(check bool) "strided" true (s.Sharing.structure = Sharing.Strided)

let test_sharing_cyclic_needs_aggregation () =
  (* Many runs per rank, but written by a strict subset of ranks. *)
  let runs = Sharing.cyclic_runs_threshold + 1 in
  let aggregated =
    List.concat_map
      (fun k ->
        List.init 2 (fun r ->
            acc ~rank:r ~time:((k * 2) + r + 1) ~lo:((k * 100) + (r * 10)) ~len:5 ()))
      (List.init runs Fun.id)
  in
  let s = Sharing.classify ~nprocs:8 aggregated in
  Alcotest.(check bool) "cyclic when aggregated" true
    (s.Sharing.structure = Sharing.Strided_cyclic);
  (* The same shape written by all ranks is just strided. *)
  let all_ranks =
    List.concat_map
      (fun k ->
        List.init 8 (fun r ->
            acc ~rank:r ~time:((k * 8) + r + 1) ~lo:((k * 100) + (r * 10)) ~len:5 ()))
      (List.init runs Fun.id)
  in
  let s = Sharing.classify ~nprocs:8 all_ranks in
  Alcotest.(check bool) "strided when direct" true
    (s.Sharing.structure = Sharing.Strided)

let test_sharing_identical_full_reads () =
  (* LBANN: every rank reads the whole file: N-1 consecutive. *)
  let accesses =
    List.init 4 (fun r ->
        acc ~rank:r ~op:Access.Read ~time:(r + 1) ~lo:0 ~len:100 ())
  in
  let s = Sharing.classify ~nprocs:4 accesses in
  Alcotest.(check string) "N-1" "N-1" (Sharing.xy_name s.Sharing.xy);
  Alcotest.(check bool) "consecutive" true
    (s.Sharing.structure = Sharing.Consecutive)

let test_sharing_1_1 () =
  let accesses = [ acc ~rank:0 ~time:1 ~lo:0 ~len:10 () ] in
  let s = Sharing.classify ~nprocs:4 accesses in
  Alcotest.(check string) "1-1" "1-1" (Sharing.xy_name s.Sharing.xy)

let test_sharing_writes_dominate_reads () =
  (* Input reads are 1-1-ish but writes decide the classification. *)
  let accesses =
    acc ~rank:0 ~op:Access.Read ~file:"/input" ~time:1 ~lo:0 ~len:10 ()
    :: List.init 4 (fun r ->
           acc ~rank:r ~file:"/out" ~time:(r + 2) ~lo:(r * 10) ~len:10 ())
  in
  let s = Sharing.classify ~nprocs:4 accesses in
  Alcotest.(check string) "classified from writes" "N-1"
    (Sharing.xy_name s.Sharing.xy)

(* Metadata report ----------------------------------------------------------- *)

let test_metadata_inventory () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~rank:0 "getcwd");
      (fun () -> { (rec_ ~rank:0 ~file:"/f" "lstat") with Record.origin = Record.O_hdf5 });
      (fun () -> { (rec_ ~rank:1 ~file:"/f" "access") with Record.origin = Record.O_mpi });
      (fun () -> rec_ ~rank:0 ~file:"/f" ~count:10 "write");
    ]
  in
  let usage = Metadata_report.inventory records in
  Alcotest.(check (list string)) "ops in footnote order"
    [ "lstat"; "getcwd"; "access" ]
    (Metadata_report.used_ops usage);
  (match List.assoc_opt "lstat" usage with
  | Some issuers ->
    Alcotest.(check bool) "hdf5 issuer" true
      (List.mem Metadata_report.By_hdf5 issuers)
  | None -> Alcotest.fail "lstat missing");
  let never = Metadata_report.never_used [ usage ] in
  Alcotest.(check bool) "rename never used" true (List.mem "rename" never);
  Alcotest.(check bool) "getcwd was used" false (List.mem "getcwd" never)

(* Metadata conflicts (Section 7 extension) ---------------------------------- *)

let test_meta_conflict_mutate_observe () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~rank:0 ~file:"/d/f" "unlink");
      (fun () -> rec_ ~rank:1 ~file:"/d/f" "stat");
    ]
  in
  match Hpcfs_core.Meta_conflict.detect records with
  | [ c ] ->
    Alcotest.(check string) "path" "/d/f" c.Hpcfs_core.Meta_conflict.path;
    Alcotest.(check bool) "kind" true
      (c.Hpcfs_core.Meta_conflict.kind = Hpcfs_core.Meta_conflict.Mutate_observe)
  | l -> Alcotest.fail (Printf.sprintf "expected one conflict, got %d" (List.length l))

let test_meta_conflict_commit_discharges () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/d/f" ~args:[ ("flags", "O_WRONLY|O_CREAT") ] "open");
      (fun () -> rec_ ~rank:0 ~fd:3 ~file:"/d/f" "close");
      (fun () -> rec_ ~rank:1 ~file:"/d/f" "stat");
    ]
  in
  Alcotest.(check int) "close discharges the creation" 0
    (List.length (Hpcfs_core.Meta_conflict.detect records))

let test_meta_conflict_same_rank_ignored () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~rank:0 ~file:"/p" "mkdir");
      (fun () -> rec_ ~rank:0 ~file:"/p" "stat");
    ]
  in
  Alcotest.(check int) "same process not reported" 0
    (List.length (Hpcfs_core.Meta_conflict.detect records))

let test_meta_conflict_rename_two_paths () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~rank:0 ~file:"/a" ~args:[ ("dst", "/b") ] "rename");
      (fun () -> rec_ ~rank:1 ~file:"/b" "access");
    ]
  in
  match Hpcfs_core.Meta_conflict.detect records with
  | [ c ] -> Alcotest.(check string) "destination path" "/b" c.Hpcfs_core.Meta_conflict.path
  | l -> Alcotest.fail (Printf.sprintf "expected one conflict, got %d" (List.length l))

let test_meta_conflict_mutate_mutate () =
  reset ();
  let records =
    seq
    [
      (fun () -> rec_ ~rank:0 ~file:"/shared" "truncate");
      (fun () -> rec_ ~rank:1 ~file:"/shared" "unlink");
    ]
  in
  let conflicts = Hpcfs_core.Meta_conflict.detect records in
  let s = Hpcfs_core.Meta_conflict.summarize conflicts in
  Alcotest.(check int) "one mutate-mutate" 1
    s.Hpcfs_core.Meta_conflict.mutate_mutate;
  Alcotest.(check int) "one path" 1 s.Hpcfs_core.Meta_conflict.paths

(* Happens-before ------------------------------------------------------------ *)

let test_hb_send_recv_orders () =
  let module Mpi = Hpcfs_mpi.Mpi in
  let events =
    [
      Mpi.E_send { src = 0; dst = 1; tag = 0; time = 5 };
      Mpi.E_recv { src = 0; dst = 1; tag = 0; time = 8 };
    ]
  in
  let hb = Happens_before.build ~nprocs:2 events in
  Alcotest.(check bool) "op@3 on r0 precedes op@10 on r1" true
    (Happens_before.ordered hb ~r1:0 ~t1:3 ~r2:1 ~t2:10);
  Alcotest.(check bool) "op after the send is not ordered" false
    (Happens_before.ordered hb ~r1:0 ~t1:6 ~r2:1 ~t2:10);
  Alcotest.(check bool) "target before the recv is not ordered" false
    (Happens_before.ordered hb ~r1:0 ~t1:3 ~r2:1 ~t2:7)

let test_hb_barrier_orders_everyone () =
  let module Mpi = Hpcfs_mpi.Mpi in
  let events =
    [
      Mpi.E_barrier { rank = 0; gen = 0; enter = 10; exit = 13 };
      Mpi.E_barrier { rank = 1; gen = 0; enter = 11; exit = 14 };
      Mpi.E_barrier { rank = 2; gen = 0; enter = 12; exit = 15 };
    ]
  in
  let hb = Happens_before.build ~nprocs:3 events in
  Alcotest.(check bool) "pre-barrier r2 precedes post-barrier r0" true
    (Happens_before.ordered hb ~r1:2 ~t1:5 ~r2:0 ~t2:20);
  Alcotest.(check bool) "post-barrier not ordered backwards" false
    (Happens_before.ordered hb ~r1:0 ~t1:20 ~r2:2 ~t2:25)

let test_hb_same_rank () =
  let hb = Happens_before.build ~nprocs:2 [] in
  Alcotest.(check bool) "program order" true
    (Happens_before.ordered hb ~r1:0 ~t1:1 ~r2:0 ~t2:2);
  Alcotest.(check bool) "no time travel" false
    (Happens_before.ordered hb ~r1:0 ~t1:2 ~r2:0 ~t2:1)

(* Collectives, from a real 4-rank run: each rank draws one tick before
   the collective (its write) and one after it (its read).  [ordered]
   asks whether [writer]'s write happens-before [reader]'s read. *)
let hb_around_collective coll =
  let nprocs = 4 in
  let comm = Mpi.world () in
  let write = Array.make nprocs 0 and read = Array.make nprocs 0 in
  Sched.run ~nprocs (fun r ->
      write.(r) <- Sched.tick ();
      coll comm r;
      read.(r) <- Sched.tick ());
  let hb = Happens_before.build ~nprocs (Mpi.events comm) in
  let ordered ~writer ~reader =
    Happens_before.ordered hb ~r1:writer ~t1:write.(writer) ~r2:reader
      ~t2:read.(reader)
  in
  (nprocs, ordered)

let test_hb_allreduce_orders_everyone () =
  let nprocs, ordered =
    hb_around_collective (fun comm r ->
        ignore (Mpi.allreduce comm Mpi.Sum r))
  in
  for writer = 0 to nprocs - 1 do
    for reader = 0 to nprocs - 1 do
      if writer <> reader then
        Alcotest.(check bool)
          (Printf.sprintf "write on %d before read on %d" writer reader)
          true (ordered ~writer ~reader)
    done
  done

let gather_root = 2

let hb_around_gather () =
  hb_around_collective (fun comm r ->
      ignore (Mpi.gather comm ~root:gather_root (Mpi.P_int r)))

let test_hb_gather_orders_into_root () =
  let nprocs, ordered = hb_around_gather () in
  for writer = 0 to nprocs - 1 do
    if writer <> gather_root then
      Alcotest.(check bool)
        (Printf.sprintf "write on %d before root read" writer)
        true
        (ordered ~writer ~reader:gather_root)
  done

(* MPI_Gather lets a non-root return before the root has entered, so the
   root's earlier work is not ordered before a non-root's later work. *)
let test_hb_gather_not_out_of_root () =
  let nprocs, ordered = hb_around_gather () in
  for reader = 0 to nprocs - 1 do
    if reader <> gather_root then
      Alcotest.(check bool)
        (Printf.sprintf "root write not before read on %d" reader)
        false
        (ordered ~writer:gather_root ~reader)
  done

(* Recommend ------------------------------------------------------------------ *)

(* Both conflict detections on one access list, then the decision
   procedure — what [Report.analyze] does on a whole trace. *)
let recommend accesses =
  let pairs = Overlap.detect accesses in
  let summary semantics =
    Conflict.summarize (Conflict.of_pairs semantics pairs)
  in
  Recommend.of_summaries
    ~session:(summary Conflict.Session_semantics)
    ~commit:(summary Conflict.Commit_semantics)

let test_recommend_session_when_clean () =
  let accesses =
    [ acc ~rank:0 ~time:1 ~lo:0 ~len:10 (); acc ~rank:1 ~time:2 ~lo:20 ~len:10 () ]
  in
  let v = recommend accesses in
  Alcotest.(check bool) "session suffices" true
    (v.Recommend.semantics = Hpcfs_fs.Consistency.Session);
  Alcotest.(check bool) "no local ordering needed" false
    v.Recommend.needs_local_order

let test_recommend_commit_for_cross_process () =
  (* Cross-process WAW healed by the writer's commit, not by close/open. *)
  let w1 = acc ~rank:0 ~time:1 ~lo:0 ~len:10 ~t_commit:2 ~t_close:max_int () in
  let w2 = acc ~rank:1 ~time:5 ~lo:0 ~len:10 ~t_commit:6 ~t_close:max_int () in
  let v = recommend [ w1; w2 ] in
  Alcotest.(check bool) "commit recommended" true
    (v.Recommend.semantics = Hpcfs_fs.Consistency.Commit)

let test_recommend_strong_when_uncommitted_cross () =
  let w1 = acc ~rank:0 ~time:1 ~lo:0 ~len:10 () in
  let w2 = acc ~rank:1 ~time:5 ~lo:0 ~len:10 () in
  let v = recommend [ w1; w2 ] in
  Alcotest.(check bool) "strong required" true
    (v.Recommend.semantics = Hpcfs_fs.Consistency.Strong)

let test_recommend_session_with_local_note () =
  let w1 = acc ~rank:0 ~time:1 ~lo:0 ~len:10 () in
  let w2 = acc ~rank:0 ~time:5 ~lo:0 ~len:10 () in
  let v = recommend [ w1; w2 ] in
  Alcotest.(check bool) "session (same-process only)" true
    (v.Recommend.semantics = Hpcfs_fs.Consistency.Session);
  Alcotest.(check bool) "needs local order" true v.Recommend.needs_local_order

let suite =
  [
    Alcotest.test_case "offsets: sequential" `Quick test_offsets_sequential_writes;
    Alcotest.test_case "offsets: seek whences" `Quick test_offsets_seek_whences;
    Alcotest.test_case "offsets: append" `Quick test_offsets_append_flag;
    Alcotest.test_case "offsets: trunc" `Quick test_offsets_trunc_resets_size;
    Alcotest.test_case "offsets: pwrite" `Quick test_offsets_pwrite_explicit;
    Alcotest.test_case "offsets: annotations" `Quick test_offsets_annotations;
    Alcotest.test_case "offsets: unknown fd" `Quick test_offsets_skip_unknown_fd;
    Alcotest.test_case "overlap: basic" `Quick test_overlap_basic;
    Alcotest.test_case "overlap: touching" `Quick test_overlap_touching_is_not_overlap;
    Alcotest.test_case "overlap: files isolate" `Quick
      test_overlap_distinct_files_never_overlap;
    Alcotest.test_case "overlap: rank matrix" `Quick test_overlap_rank_matrix;
    QCheck_alcotest.to_alcotest qcheck_algorithm1_matches_naive;
    QCheck_alcotest.to_alcotest qcheck_merge_matches_sort;
    QCheck_alcotest.to_alcotest qcheck_all_detectors_agree;
    Alcotest.test_case "overlap: rank matrix range" `Quick
      test_rank_matrix_out_of_range;
    Alcotest.test_case "conflict: commit condition" `Quick test_conflict_commit_condition;
    Alcotest.test_case "conflict: session condition" `Quick
      test_conflict_session_condition;
    Alcotest.test_case "conflict: fsync not session" `Quick
      test_conflict_fsync_insufficient_for_session;
    Alcotest.test_case "conflict: WAR ok" `Quick test_conflict_read_first_never_conflicts;
    Alcotest.test_case "conflict: classification" `Quick test_conflict_classification;
    Alcotest.test_case "conflict: modes agree" `Quick test_conflict_modes_agree;
    QCheck_alcotest.to_alcotest qcheck_commit_conflicts_subset_of_session_overlaps;
    Alcotest.test_case "pattern: consecutive" `Quick test_pattern_consecutive;
    Alcotest.test_case "pattern: mono/random" `Quick test_pattern_monotonic_and_random;
    Alcotest.test_case "pattern: local vs global" `Quick test_pattern_local_vs_global;
    Alcotest.test_case "pattern: percentages" `Quick test_pattern_percentages;
    Alcotest.test_case "pattern: series" `Quick test_offset_series;
    Alcotest.test_case "sharing: N-N" `Quick test_sharing_n_n;
    Alcotest.test_case "sharing: N-1 tiled" `Quick test_sharing_n_1_tiled;
    Alcotest.test_case "sharing: strided" `Quick test_sharing_strided;
    Alcotest.test_case "sharing: cyclic needs aggregation" `Quick
      test_sharing_cyclic_needs_aggregation;
    Alcotest.test_case "sharing: identical reads" `Quick
      test_sharing_identical_full_reads;
    Alcotest.test_case "sharing: 1-1" `Quick test_sharing_1_1;
    Alcotest.test_case "sharing: writes dominate" `Quick
      test_sharing_writes_dominate_reads;
    Alcotest.test_case "metadata inventory" `Quick test_metadata_inventory;
    Alcotest.test_case "meta-conflict: mutate/observe" `Quick
      test_meta_conflict_mutate_observe;
    Alcotest.test_case "meta-conflict: commit discharges" `Quick
      test_meta_conflict_commit_discharges;
    Alcotest.test_case "meta-conflict: same rank" `Quick
      test_meta_conflict_same_rank_ignored;
    Alcotest.test_case "meta-conflict: rename paths" `Quick
      test_meta_conflict_rename_two_paths;
    Alcotest.test_case "meta-conflict: mutate/mutate" `Quick
      test_meta_conflict_mutate_mutate;
    Alcotest.test_case "hb: send/recv" `Quick test_hb_send_recv_orders;
    Alcotest.test_case "hb: barrier" `Quick test_hb_barrier_orders_everyone;
    Alcotest.test_case "hb: same rank" `Quick test_hb_same_rank;
    Alcotest.test_case "hb: allreduce" `Quick test_hb_allreduce_orders_everyone;
    Alcotest.test_case "hb: gather into root" `Quick
      test_hb_gather_orders_into_root;
    Alcotest.test_case "hb: gather not out of root" `Quick
      test_hb_gather_not_out_of_root;
    Alcotest.test_case "recommend: session" `Quick test_recommend_session_when_clean;
    Alcotest.test_case "recommend: commit" `Quick
      test_recommend_commit_for_cross_process;
    Alcotest.test_case "recommend: strong" `Quick
      test_recommend_strong_when_uncommitted_cross;
    Alcotest.test_case "recommend: local ordering note" `Quick
      test_recommend_session_with_local_note;
  ]
