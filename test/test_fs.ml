(* Tests for the PFS substrate: extents, visibility, namespace, striping,
   lock accounting. *)

module Interval = Hpcfs_util.Interval
module Consistency = Hpcfs_fs.Consistency
module Fdata = Hpcfs_fs.Fdata
module Namespace = Hpcfs_fs.Namespace
module Stripe = Hpcfs_fs.Stripe
module Lockmgr = Hpcfs_fs.Lockmgr
module Pfs = Hpcfs_fs.Pfs
module Target = Hpcfs_fs.Target

let b s = Bytes.of_string s

let read_str fd ~rank ~time ~off ~len =
  Bytes.to_string (Fdata.read fd ~rank ~time ~off ~len).Fdata.data

(* Fdata ------------------------------------------------------------------ *)

let test_fdata_write_read_strong () =
  let fd = Fdata.create Consistency.Strong in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "hello");
  Alcotest.(check string) "read back" "hello"
    (read_str fd ~rank:1 ~time:2 ~off:0 ~len:5);
  Alcotest.(check int) "size" 5 (Fdata.size fd)

let test_fdata_overwrite_order () =
  let fd = Fdata.create Consistency.Strong in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "aaaa");
  Fdata.write fd ~rank:1 ~time:2 ~off:2 (b "bb");
  Alcotest.(check string) "later write wins" "aabb"
    (read_str fd ~rank:2 ~time:3 ~off:0 ~len:4)

let test_fdata_unwritten_is_zero () =
  let fd = Fdata.create Consistency.Strong in
  Fdata.write fd ~rank:0 ~time:1 ~off:4 (b "x");
  let s =
    read_str fd ~rank:0 ~time:2 ~off:0 ~len:5
  in
  Alcotest.(check string) "hole is zero" "\000\000\000\000x" s

let test_fdata_read_own_writes_any_semantics () =
  List.iter
    (fun semantics ->
      let fd = Fdata.create semantics in
      Fdata.write fd ~rank:3 ~time:1 ~off:0 (b "mine");
      Alcotest.(check string) "own write visible" "mine"
        (read_str fd ~rank:3 ~time:2 ~off:0 ~len:4))
    [ Consistency.Strong; Consistency.Commit; Consistency.Session;
      Consistency.Eventual { delay = 1000 } ]

let test_fdata_commit_visibility () =
  let fd = Fdata.create Consistency.Commit in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "data");
  let before = Fdata.read fd ~rank:1 ~time:2 ~off:0 ~len:4 in
  Alcotest.(check int) "stale before commit" 4 before.Fdata.stale_bytes;
  Fdata.commit fd ~rank:0 ~time:3;
  let after = Fdata.read fd ~rank:1 ~time:4 ~off:0 ~len:4 in
  Alcotest.(check int) "visible after commit" 0 after.Fdata.stale_bytes;
  Alcotest.(check string) "contents" "data" (Bytes.to_string after.Fdata.data)

let test_fdata_session_visibility () =
  let fd = Fdata.create Consistency.Session in
  Fdata.session_open fd ~rank:0 ~time:0;
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "data");
  Fdata.session_close fd ~rank:0 ~time:2;
  (* Reader whose open precedes the writer's close: not visible. *)
  Fdata.session_open fd ~rank:1 ~time:1;
  let stale = Fdata.read fd ~rank:1 ~time:3 ~off:0 ~len:4 in
  Alcotest.(check int) "open-before-close: stale" 4 stale.Fdata.stale_bytes;
  (* Reader that re-opens after the close: visible. *)
  Fdata.session_open fd ~rank:1 ~time:4;
  let fresh = Fdata.read fd ~rank:1 ~time:5 ~off:0 ~len:4 in
  Alcotest.(check int) "close-to-open: visible" 0 fresh.Fdata.stale_bytes

let test_fdata_session_fsync_not_enough () =
  let fd = Fdata.create Consistency.Session in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "data");
  Fdata.commit fd ~rank:0 ~time:2;
  Fdata.session_open fd ~rank:1 ~time:3;
  let r = Fdata.read fd ~rank:1 ~time:4 ~off:0 ~len:4 in
  Alcotest.(check int) "fsync does not publish under session" 4
    r.Fdata.stale_bytes

let test_fdata_eventual_delay () =
  let fd = Fdata.create (Consistency.Eventual { delay = 5 }) in
  Fdata.write fd ~rank:0 ~time:10 ~off:0 (b "x");
  let early = Fdata.read fd ~rank:1 ~time:12 ~off:0 ~len:1 in
  Alcotest.(check int) "not yet propagated" 1 early.Fdata.stale_bytes;
  let late = Fdata.read fd ~rank:1 ~time:15 ~off:0 ~len:1 in
  Alcotest.(check int) "propagated" 0 late.Fdata.stale_bytes

let test_fdata_eventual_delay_edges () =
  let fd = Fdata.create (Consistency.Eventual { delay = 5 }) in
  Fdata.write fd ~rank:0 ~time:10 ~off:0 (b "x");
  (* Visibility is inclusive: the write is published at exactly
     write_time + delay, not one tick later. *)
  let boundary = Fdata.read fd ~rank:1 ~time:15 ~off:0 ~len:1 in
  Alcotest.(check int) "visible at exactly write_time + delay" 0
    boundary.Fdata.stale_bytes;
  let just_before = Fdata.read fd ~rank:1 ~time:14 ~off:0 ~len:1 in
  Alcotest.(check int) "hidden one tick earlier" 1
    just_before.Fdata.stale_bytes

let test_fdata_eventual_delay_zero () =
  (* delay = 0 degenerates to strong consistency: same contents, never
     stale, even for a read issued at the write's own timestamp. *)
  let fd = Fdata.create (Consistency.Eventual { delay = 0 }) in
  Fdata.write fd ~rank:0 ~time:7 ~off:0 (b "abc");
  let r = Fdata.read fd ~rank:1 ~time:7 ~off:0 ~len:3 in
  Alcotest.(check string) "contents" "abc" (Bytes.to_string r.Fdata.data);
  Alcotest.(check int) "never stale" 0 r.Fdata.stale_bytes;
  let strong = Fdata.oracle fd ~off:0 ~len:3 in
  Alcotest.(check string) "identical to strong"
    (Bytes.to_string strong)
    (Bytes.to_string r.Fdata.data)

let test_fdata_eventual_laminate_already_visible () =
  (* Laminating a file whose writes have already propagated must change
     nothing: reads stay correct, and the only new effect is read-only
     enforcement. *)
  let fd = Fdata.create (Consistency.Eventual { delay = 2 }) in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "done");
  let before = Fdata.read fd ~rank:1 ~time:10 ~off:0 ~len:4 in
  Alcotest.(check int) "already visible pre-lamination" 0
    before.Fdata.stale_bytes;
  Fdata.laminate fd ~time:11;
  let after = Fdata.read fd ~rank:1 ~time:12 ~off:0 ~len:4 in
  Alcotest.(check string) "contents unchanged" "done"
    (Bytes.to_string after.Fdata.data);
  Alcotest.(check int) "still not stale" 0 after.Fdata.stale_bytes;
  Alcotest.check_raises "now read-only"
    (Invalid_argument "Fdata.write: file is laminated") (fun () ->
      Fdata.write fd ~rank:0 ~time:13 ~off:0 (b "z"))

let test_fdata_waw_reorder_under_session () =
  let fd = Fdata.create Consistency.Session in
  (* Rank 5 writes first but closes last: under session semantics its stale
     value takes effect after rank 2's newer write. *)
  Fdata.write fd ~rank:5 ~time:1 ~off:0 (b "old");
  Fdata.write fd ~rank:2 ~time:2 ~off:0 (b "new");
  Fdata.session_close fd ~rank:2 ~time:3;
  Fdata.session_close fd ~rank:5 ~time:4;
  Fdata.session_open fd ~rank:9 ~time:5;
  let r = Fdata.read fd ~rank:9 ~time:6 ~off:0 ~len:3 in
  Alcotest.(check string) "close order wins" "old" (Bytes.to_string r.Fdata.data);
  Alcotest.(check bool) "reorder flagged stale" true (r.Fdata.stale_bytes > 0);
  (* The same history under strong semantics returns the newest write. *)
  let strong = Fdata.oracle fd ~off:0 ~len:3 in
  Alcotest.(check string) "strong keeps issue order" "new"
    (Bytes.to_string strong)

let test_fdata_truncate () =
  let fd = Fdata.create Consistency.Strong in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "abcdef");
  Fdata.truncate fd ~time:2 3;
  Alcotest.(check int) "size after truncate" 3 (Fdata.size fd);
  Alcotest.(check string) "kept prefix" "abc"
    (read_str fd ~rank:0 ~time:3 ~off:0 ~len:10);
  Fdata.truncate fd ~time:4 0;
  Alcotest.(check int) "empty" 0 (Fdata.size fd);
  Alcotest.(check int) "no writes left" 0 (Fdata.write_count fd)

let test_fdata_lamination () =
  let fd = Fdata.create Consistency.Commit in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "pub");
  (* Not visible under commit semantics (no commit)... *)
  let before = Fdata.read fd ~rank:1 ~time:2 ~off:0 ~len:3 in
  Alcotest.(check int) "hidden before lamination" 3 before.Fdata.stale_bytes;
  (* ...but lamination publishes everything at once. *)
  Fdata.laminate fd ~time:3;
  Alcotest.(check bool) "laminated" true (Fdata.is_laminated fd);
  let after = Fdata.read fd ~rank:1 ~time:4 ~off:0 ~len:3 in
  Alcotest.(check int) "visible after lamination" 0 after.Fdata.stale_bytes;
  Alcotest.(check string) "content" "pub" (Bytes.to_string after.Fdata.data);
  (* The file is now permanently read-only. *)
  Alcotest.check_raises "write after lamination"
    (Invalid_argument "Fdata.write: file is laminated") (fun () ->
      Fdata.write fd ~rank:0 ~time:5 ~off:0 (b "x"))

let test_fdata_lamination_restores_issue_order () =
  let fd = Fdata.create Consistency.Session in
  Fdata.write fd ~rank:5 ~time:1 ~off:0 (b "old");
  Fdata.write fd ~rank:2 ~time:2 ~off:0 (b "new");
  Fdata.laminate fd ~time:3;
  let r = Fdata.read fd ~rank:9 ~time:4 ~off:0 ~len:3 in
  Alcotest.(check string) "issue order after lamination" "new"
    (Bytes.to_string r.Fdata.data)

let test_fdata_double_lamination () =
  (* A second lamination must not move the publication point: the file
     stays published from the first one on, in both models. *)
  let fd = Fdata.create Consistency.Commit
  and fr = Hpcfs_fs.Fdata_ref.create () in
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "abcd");
  Hpcfs_fs.Fdata_ref.write fr ~rank:0 ~time:1 ~off:0 (b "abcd");
  let check label =
    let r =
      Fdata.read fd ~rank:1 ~time:7 ~off:0 ~len:4
    and rr =
      Hpcfs_fs.Fdata_ref.read fr ~semantics:Consistency.Commit ~rank:1 ~time:7
        ~off:0 ~len:4
    in
    Alcotest.(check string) (label ^ ": data") "abcd"
      (Bytes.to_string r.Fdata.data);
    Alcotest.(check int) (label ^ ": stale") 0 r.Fdata.stale_bytes;
    Alcotest.(check string) (label ^ ": reference data") "abcd"
      (Bytes.to_string rr.Hpcfs_fs.Fdata_ref.data);
    Alcotest.(check int) (label ^ ": reference stale") 0
      rr.Hpcfs_fs.Fdata_ref.stale_bytes
  in
  Fdata.laminate fd ~time:5;
  Hpcfs_fs.Fdata_ref.laminate fr ~time:5;
  check "first lamination";
  Fdata.laminate fd ~time:10;
  Hpcfs_fs.Fdata_ref.laminate fr ~time:10;
  check "second lamination"

let test_pfs_laminate () =
  let pfs = Pfs.create (Consistency.Eventual { delay = 1_000_000 }) in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "xy");
  Pfs.laminate pfs ~time:3 "/f";
  let r = Pfs.read pfs ~time:4 ~rank:1 "/f" ~off:0 ~len:2 in
  Alcotest.(check int) "published despite the delay" 0 r.Fdata.stale_bytes

let test_fdata_burstfs_no_local_order () =
  let fd = Fdata.create Consistency.Commit in
  (* Two same-process writes between commits: BurstFS may apply either
     last; the model applies them adversarially (reversed). *)
  Fdata.write fd ~rank:0 ~time:1 ~off:0 (b "first");
  Fdata.write fd ~rank:0 ~time:2 ~off:0 (b "secnd");
  Fdata.commit fd ~rank:0 ~time:3;
  let ordered = Fdata.read fd ~rank:1 ~time:4 ~off:0 ~len:5 in
  Alcotest.(check string) "ordered PFS returns the newest" "secnd"
    (Bytes.to_string ordered.Fdata.data);
  let burst =
    Fdata.read ~local_order:false fd ~rank:1 ~time:4 ~off:0 ~len:5
  in
  Alcotest.(check string) "BurstFS-like returns the other" "first"
    (Bytes.to_string burst.Fdata.data);
  Alcotest.(check bool) "flagged stale" true (burst.Fdata.stale_bytes > 0)

let test_pfs_burstfs_mode () =
  let pfs = Pfs.create ~local_order:false Consistency.Commit in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "aa");
  Pfs.write pfs ~time:3 ~rank:0 "/f" ~off:0 (b "bb");
  Pfs.close_file pfs ~time:4 ~rank:0 "/f";
  let r = Pfs.read_back pfs ~time:10 "/f" in
  Alcotest.(check string) "reordered final state" "aa"
    (Bytes.to_string r.Fdata.data)

(* Namespace -------------------------------------------------------------- *)

let test_namespace_tree () =
  let ns = Namespace.create Consistency.Strong in
  Namespace.mkdir ns ~time:1 "/a";
  Namespace.mkdir ns ~time:2 "/a/b";
  ignore (Namespace.create_file ns ~time:3 "/a/b/f");
  Alcotest.(check bool) "file exists" true (Namespace.exists ns "/a/b/f");
  Alcotest.(check bool) "dir check" true (Namespace.is_dir ns "/a/b");
  Alcotest.(check (list string)) "readdir" [ "b" ] (Namespace.readdir ns "/a");
  Alcotest.(check (list string)) "all files" [ "/a/b/f" ]
    (Namespace.all_files ns)

let test_namespace_errors () =
  let ns = Namespace.create Consistency.Strong in
  Namespace.mkdir ns ~time:1 "/d";
  Alcotest.check_raises "mkdir exists" (Namespace.Exists "/d") (fun () ->
      Namespace.mkdir ns ~time:2 "/d");
  Alcotest.check_raises "lookup missing" (Namespace.Not_found_path "/nope")
    (fun () -> ignore (Namespace.lookup_file ns "/nope"));
  ignore (Namespace.create_file ns ~time:3 "/d/f");
  Alcotest.check_raises "rmdir non-empty" (Namespace.Not_empty "/d") (fun () ->
      Namespace.rmdir ns "/d");
  Namespace.unlink ns "/d/f";
  Namespace.rmdir ns "/d";
  Alcotest.(check bool) "gone" false (Namespace.exists ns "/d")

let test_namespace_rename () =
  let ns = Namespace.create Consistency.Strong in
  Namespace.mkdir ns ~time:1 "/x";
  let fd = Namespace.create_file ns ~time:2 "/x/old" in
  Fdata.write fd ~rank:0 ~time:3 ~off:0 (b "keep");
  Namespace.rename ns ~time:4 "/x/old" "/x/new";
  Alcotest.(check bool) "old gone" false (Namespace.exists ns "/x/old");
  let fd' = Namespace.lookup_file ns "/x/new" in
  Alcotest.(check int) "payload moved" 4 (Fdata.size fd')

let test_namespace_rename_onto_existing () =
  let ns = Namespace.create Consistency.Strong in
  Namespace.mkdir ns ~time:1 "/x";
  let fd = Namespace.create_file ns ~time:2 "/x/a" in
  Fdata.write fd ~rank:0 ~time:2 ~off:0 (b "new");
  Namespace.mkdir ns ~time:3 "/x/d";
  ignore (Namespace.create_file ns ~time:4 "/x/d/child");
  (* A file cannot replace a directory (EISDIR)... *)
  Alcotest.check_raises "rename file onto dir" (Namespace.Is_a_directory "/x/d")
    (fun () -> Namespace.rename ns ~time:5 "/x/a" "/x/d");
  Alcotest.(check bool) "source untouched" true (Namespace.exists ns "/x/a");
  Alcotest.(check bool) "dest subtree untouched" true
    (Namespace.exists ns "/x/d/child");
  (* ...nor a directory a file (ENOTDIR)... *)
  Alcotest.check_raises "rename dir onto file"
    (Namespace.Not_a_directory "/x/a") (fun () ->
      Namespace.rename ns ~time:6 "/x/d" "/x/a");
  (* ...nor anything a non-empty directory (ENOTEMPTY). *)
  Namespace.mkdir ns ~time:7 "/x/e";
  Alcotest.check_raises "rename dir onto non-empty dir"
    (Namespace.Not_empty "/x/d") (fun () ->
      Namespace.rename ns ~time:7 "/x/e" "/x/d");
  (* POSIX: an existing regular-file destination is atomically replaced. *)
  let old = Namespace.create_file ns ~time:8 "/x/b" in
  Fdata.write old ~rank:0 ~time:8 ~off:0 (b "stale!");
  Namespace.rename ns ~time:9 "/x/a" "/x/b";
  Alcotest.(check bool) "source gone" false (Namespace.exists ns "/x/a");
  let fd' = Namespace.lookup_file ns "/x/b" in
  Alcotest.(check int) "destination replaced by source payload" 3
    (Fdata.size fd');
  (* An empty directory destination is replaced by a directory source. *)
  Namespace.rename ns ~time:10 "/x/d" "/x/e";
  Alcotest.(check bool) "dir source gone" false (Namespace.exists ns "/x/d");
  Alcotest.(check bool) "subtree moved onto empty dir" true
    (Namespace.exists ns "/x/e/child")

let test_namespace_rename_into_own_subtree () =
  let ns = Namespace.create Consistency.Strong in
  Namespace.mkdir ns ~time:1 "/a";
  Namespace.mkdir ns ~time:2 "/a/b";
  (* Moving a directory under itself would orphan the subtree (EINVAL). *)
  Alcotest.check_raises "rename dir into own child"
    (Namespace.Invalid_rename "/a/b/c") (fun () ->
      Namespace.rename ns ~time:3 "/a" "/a/b/c");
  Alcotest.check_raises "rename dir into itself deeper"
    (Namespace.Invalid_rename "/a/b/b") (fun () ->
      Namespace.rename ns ~time:4 "/a/b" "/a/b/b");
  Alcotest.(check bool) "tree untouched" true (Namespace.is_dir ns "/a/b");
  (* Renaming a path to itself is a successful no-op. *)
  Namespace.rename ns ~time:5 "/a/b" "/a/b";
  Namespace.rename ns ~time:6 "/a//b" "/a/b";
  Alcotest.(check bool) "still there" true (Namespace.is_dir ns "/a/b")

let test_namespace_rename_dir_across_parents () =
  let ns = Namespace.create Consistency.Strong in
  Namespace.mkdir ns ~time:1 "/src";
  Namespace.mkdir ns ~time:2 "/dst";
  Namespace.mkdir ns ~time:3 "/src/sub";
  let fd = Namespace.create_file ns ~time:4 "/src/sub/f" in
  Fdata.write fd ~rank:0 ~time:5 ~off:0 (b "abc");
  Namespace.rename ns ~time:6 "/src/sub" "/dst/moved";
  Alcotest.(check bool) "old dir gone" false (Namespace.exists ns "/src/sub");
  Alcotest.(check bool) "moved is dir" true (Namespace.is_dir ns "/dst/moved");
  (* The subtree moved with its parent, payload intact. *)
  let fd' = Namespace.lookup_file ns "/dst/moved/f" in
  Alcotest.(check int) "payload moved with subtree" 3 (Fdata.size fd');
  Alcotest.(check (list string)) "all files reflect the move"
    [ "/dst/moved/f" ] (Namespace.all_files ns);
  Alcotest.(check (list string)) "source parent now empty" []
    (Namespace.readdir ns "/src")

let test_namespace_readdir_after_unlink () =
  let ns = Namespace.create Consistency.Strong in
  Namespace.mkdir ns ~time:1 "/d";
  List.iter
    (fun n -> ignore (Namespace.create_file ns ~time:2 ("/d/" ^ n)))
    [ "c"; "a"; "b" ];
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    (Namespace.readdir ns "/d");
  Namespace.unlink ns "/d/b";
  Alcotest.(check (list string)) "sorted after unlink" [ "a"; "c" ]
    (Namespace.readdir ns "/d");
  ignore (Namespace.create_file ns ~time:3 "/d/b");
  Alcotest.(check (list string)) "recreated entry re-sorts" [ "a"; "b"; "c" ]
    (Namespace.readdir ns "/d")

let test_namespace_stat () =
  let ns = Namespace.create Consistency.Strong in
  let fd = Namespace.create_file ns ~time:5 "/f" in
  Fdata.write fd ~rank:0 ~time:6 ~off:0 (b "123");
  Namespace.touch_mtime ns ~time:7 "/f";
  let st = Namespace.stat ns "/f" in
  Alcotest.(check int) "size" 3 st.Namespace.st_size;
  Alcotest.(check int) "mtime" 7 st.Namespace.st_mtime;
  Alcotest.(check bool) "regular" true (st.Namespace.st_kind = Namespace.Regular)

(* Stripe ------------------------------------------------------------------ *)

let test_stripe_layout () =
  let s = Stripe.create ~stripe_size:10 ~server_count:4 in
  Alcotest.(check int) "first stripe" 0 (Stripe.server_of_offset s 9);
  Alcotest.(check int) "second stripe" 1 (Stripe.server_of_offset s 10);
  Alcotest.(check int) "wraps" 0 (Stripe.server_of_offset s 40);
  let pieces = Stripe.split_extent s (Interval.make 5 25) in
  Alcotest.(check int) "three pieces" 3 (List.length pieces);
  let load = Stripe.server_load s [ Interval.make 0 40 ] in
  Alcotest.(check (array int)) "even load" [| 10; 10; 10; 10 |] load

let test_stripe_requests () =
  let s = Stripe.create ~stripe_size:10 ~server_count:2 in
  let reqs = Stripe.requests_per_server s [ Interval.make 0 20; Interval.make 0 5 ] in
  Alcotest.(check (array int)) "request counts" [| 2; 1 |] reqs

let test_stripe_split_edges () =
  let s = Stripe.create ~stripe_size:10 ~server_count:4 in
  (* Empty interval: no pieces, no load. *)
  Alcotest.(check int) "empty interval has no pieces" 0
    (List.length (Stripe.split_extent s (Interval.make 5 5)));
  Alcotest.(check (array int)) "empty extent loads nothing" [| 0; 0; 0; 0 |]
    (Stripe.server_load s [ Interval.make 5 5 ]);
  (* Extent exactly on stripe boundaries: whole stripes, no slivers. *)
  (match Stripe.split_extent s (Interval.make 10 30) with
  | [ (s1, i1); (s2, i2) ] ->
    Alcotest.(check int) "first piece on server 1" 1 s1;
    Alcotest.(check int) "second piece on server 2" 2 s2;
    Alcotest.(check bool) "boundaries preserved" true
      (i1 = Interval.make 10 20 && i2 = Interval.make 20 30)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 pieces, got %d" (List.length l)));
  (* Single-server layout: every piece lands on server 0 and the lengths
     re-assemble the extent. *)
  let solo = Stripe.create ~stripe_size:10 ~server_count:1 in
  let pieces = Stripe.split_extent solo (Interval.make 3 47) in
  Alcotest.(check bool) "all on server 0" true
    (List.for_all (fun (srv, _) -> srv = 0) pieces);
  Alcotest.(check int) "lengths add up" 44
    (List.fold_left (fun a (_, i) -> a + Interval.length i) 0 pieces);
  Alcotest.(check (array int)) "single server takes the whole load" [| 44 |]
    (Stripe.server_load solo [ Interval.make 3 47 ])

let qcheck_stripe_split_reconcatenates =
  (* split_extent is a partition: the pieces are contiguous, in order,
     cover exactly the input extent, stay within one stripe each, and name
     the server that owns their bytes. *)
  QCheck.Test.make ~name:"stripe split_extent pieces re-concatenate" ~count:500
    QCheck.(
      quad (int_range 1 16) (int_range 1 8) (int_bound 100) (int_bound 100))
    (fun (stripe_size, server_count, lo, len) ->
      let s = Stripe.create ~stripe_size ~server_count in
      let iv = Interval.of_len lo len in
      let pieces = Stripe.split_extent s iv in
      let contiguous =
        let rec go at = function
          | [] -> at = iv.Interval.hi
          | (_, p) :: rest -> p.Interval.lo = at && go p.Interval.hi rest
        in
        (if Interval.is_empty iv then pieces = [] else true)
        && go iv.Interval.lo pieces
      in
      let well_placed =
        List.for_all
          (fun (srv, p) ->
            (not (Interval.is_empty p))
            && srv = Stripe.server_of_offset s p.Interval.lo
            && srv = Stripe.server_of_offset s (p.Interval.hi - 1)
            && p.Interval.lo / stripe_size = (p.Interval.hi - 1) / stripe_size)
          pieces
      in
      contiguous && well_placed)

(* Lock manager ------------------------------------------------------------ *)

let test_lockmgr_accounting () =
  let lm = Lockmgr.create ~granularity:10 in
  Lockmgr.access lm ~file:"f" ~client:0 Lockmgr.Write (Interval.make 0 10);
  Lockmgr.access lm ~file:"f" ~client:0 Lockmgr.Write (Interval.make 0 10);
  let c = Lockmgr.counters lm in
  Alcotest.(check int) "one acquisition" 1 c.Lockmgr.acquisitions;
  Alcotest.(check int) "one hit" 1 c.Lockmgr.hits;
  Lockmgr.access lm ~file:"f" ~client:1 Lockmgr.Write (Interval.make 0 10);
  let c = Lockmgr.counters lm in
  Alcotest.(check int) "revocation on conflict" 1 c.Lockmgr.revocations

let test_lockmgr_shared_readers () =
  let lm = Lockmgr.create ~granularity:10 in
  Lockmgr.access lm ~file:"f" ~client:0 Lockmgr.Read (Interval.make 0 10);
  Lockmgr.access lm ~file:"f" ~client:1 Lockmgr.Read (Interval.make 0 10);
  let c = Lockmgr.counters lm in
  Alcotest.(check int) "readers share" 0 c.Lockmgr.revocations;
  Lockmgr.access lm ~file:"f" ~client:2 Lockmgr.Write (Interval.make 0 10);
  let c = Lockmgr.counters lm in
  Alcotest.(check int) "writer revokes both readers" 2 c.Lockmgr.revocations

let test_lockmgr_release () =
  let lm = Lockmgr.create ~granularity:10 in
  Lockmgr.access lm ~file:"f" ~client:0 Lockmgr.Write (Interval.make 0 10);
  Lockmgr.release_client lm ~file:"f" ~client:0;
  Lockmgr.access lm ~file:"f" ~client:1 Lockmgr.Write (Interval.make 0 10);
  let c = Lockmgr.counters lm in
  Alcotest.(check int) "no revocation after release" 0 c.Lockmgr.revocations

let test_lockmgr_evict_client () =
  let lm = Lockmgr.create ~granularity:10 in
  (* Client 0 holds write grants on two files, a read grant on a third;
     client 1 shares the read block. *)
  Lockmgr.access lm ~file:"a" ~client:0 Lockmgr.Write (Interval.make 0 20);
  Lockmgr.access lm ~file:"b" ~client:0 Lockmgr.Write (Interval.make 0 10);
  Lockmgr.access lm ~file:"c" ~client:0 Lockmgr.Read (Interval.make 0 10);
  Lockmgr.access lm ~file:"c" ~client:1 Lockmgr.Read (Interval.make 0 10);
  let before = Lockmgr.counters lm in
  let evicted = Lockmgr.evict_client lm ~client:0 in
  Alcotest.(check int) "four grants recalled" 4 evicted;
  let after = Lockmgr.counters lm in
  Alcotest.(check int) "recalls count as revocations" 4
    (after.Lockmgr.revocations - before.Lockmgr.revocations);
  Alcotest.(check bool) "recall+release messages accounted" true
    (after.Lockmgr.messages > before.Lockmgr.messages);
  (* The grants really are gone: re-acquiring revokes nothing new, and the
     surviving reader still holds its block. *)
  Lockmgr.access lm ~file:"a" ~client:2 Lockmgr.Write (Interval.make 0 20);
  Alcotest.(check int) "no conflict with evicted grants" 4
    (Lockmgr.counters lm).Lockmgr.revocations;
  Lockmgr.access lm ~file:"c" ~client:1 Lockmgr.Read (Interval.make 0 10);
  Alcotest.(check bool) "survivor's grant still cached" true
    ((Lockmgr.counters lm).Lockmgr.hits > before.Lockmgr.hits);
  Alcotest.(check int) "evicting a stranger recalls nothing" 0
    (Lockmgr.evict_client lm ~client:99)

(* Pfs --------------------------------------------------------------------- *)

let test_pfs_end_to_end () =
  let pfs = Pfs.create Consistency.Strong in
  Hpcfs_fs.Namespace.mkdir (Pfs.namespace pfs) ~time:0 "/d";
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/d/f");
  Pfs.write pfs ~time:2 ~rank:0 "/d/f" ~off:0 (b "payload");
  Pfs.close_file pfs ~time:3 ~rank:0 "/d/f";
  let r = Pfs.read pfs ~time:4 ~rank:1 "/d/f" ~off:0 ~len:7 in
  Alcotest.(check string) "read" "payload" (Bytes.to_string r.Fdata.data);
  let st = Pfs.stats pfs in
  Alcotest.(check int) "one write" 1 st.Pfs.writes;
  Alcotest.(check int) "one read" 1 st.Pfs.reads;
  Alcotest.(check int) "bytes written" 7 st.Pfs.bytes_written;
  Alcotest.(check int) "no stale reads" 0 st.Pfs.stale_reads

let test_pfs_stale_accounting () =
  let pfs = Pfs.create Consistency.Commit in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "abc");
  let _ = Pfs.read pfs ~time:3 ~rank:1 "/f" ~off:0 ~len:3 in
  let st = Pfs.stats pfs in
  Alcotest.(check int) "stale read counted" 1 st.Pfs.stale_reads;
  Alcotest.(check int) "stale bytes counted" 3 st.Pfs.stale_bytes

let test_pfs_lock_stats_only_strong () =
  let run semantics =
    let pfs = Pfs.create semantics in
    ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
    Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "abc");
    (Pfs.stats pfs).Pfs.locks.Lockmgr.acquisitions
  in
  Alcotest.(check bool) "strong acquires locks" true (run Consistency.Strong > 0);
  Alcotest.(check int) "session acquires none" 0 (run Consistency.Session)

let test_pfs_read_back () =
  let pfs = Pfs.create Consistency.Session in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "xyz");
  Pfs.close_file pfs ~time:3 ~rank:0 "/f";
  let r = Pfs.read_back pfs ~time:10 "/f" in
  Alcotest.(check string) "observer sees closed data" "xyz"
    (Bytes.to_string r.Fdata.data);
  Alcotest.(check int) "nothing stale" 0 r.Fdata.stale_bytes

(* Storage targets --------------------------------------------------------- *)

let test_pfs_target_states () =
  let pfs =
    Pfs.create
      ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4)
      Consistency.Strong
  in
  let tg = Pfs.targets pfs in
  Alcotest.(check bool) "all up at creation" true (Target.all_up tg);
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "aaaaaaaabbbbbbbb");
  let _ = Pfs.fail_target pfs ~time:3 1 in
  Alcotest.(check bool) "target 1 down" true (Target.state tg 1 = Target.Down);
  Alcotest.(check bool) "not all up" false (Target.all_up tg);
  (* Writes touching the down target are refused before applying anything. *)
  (try
     Pfs.write pfs ~time:4 ~rank:0 "/f" ~off:8 (b "XXXXXXXX");
     Alcotest.fail "write to a down target must raise"
   with Target.Target_down { target; _ } ->
     Alcotest.(check int) "typed error names the target" 1 target);
  (* Reads confined to healthy targets still work; reads touching the down
     one are refused. *)
  let r = Pfs.read pfs ~time:5 ~rank:0 "/f" ~off:0 ~len:8 in
  Alcotest.(check string) "healthy chunk readable" "aaaaaaaa"
    (Bytes.to_string r.Fdata.data);
  (try
     ignore (Pfs.read pfs ~time:5 ~rank:0 "/f" ~off:8 ~len:8);
     Alcotest.fail "read of a down target must raise"
   with Target.Target_down _ -> ());
  (* The degraded read never refuses: unreachable chunks come back as
     zeroes (the data is durable — under strong it settled on arrival —
     just unreachable). *)
  let r = Pfs.read_degraded pfs ~time:6 ~rank:0 "/f" ~off:0 ~len:16 in
  Alcotest.(check string) "down chunk reads as zeroes"
    ("aaaaaaaa" ^ String.make 8 '\000')
    (Bytes.to_string r.Fdata.data);
  (* Recovery restores the durable bytes: strong settled them on arrival,
     so nothing was dropped with the volatile state. *)
  Pfs.recover_target pfs ~time:7 1;
  Alcotest.(check bool) "all up again" true (Target.all_up tg);
  let r = Pfs.read pfs ~time:8 ~rank:0 "/f" ~off:8 ~len:8 in
  Alcotest.(check string) "settled data survived the outage" "bbbbbbbb"
    (Bytes.to_string r.Fdata.data);
  let c = Target.counters tg in
  Alcotest.(check int) "failure counted" 1 c.Target.failures;
  Alcotest.(check int) "recovery counted" 1 c.Target.recoveries;
  Alcotest.(check bool) "rejections counted" true (c.Target.rejected_ops >= 2)

let test_pfs_target_failover () =
  let pfs =
    Pfs.create
      ~stripe:(Stripe.create ~stripe_size:8 ~server_count:4)
      Consistency.Strong
  in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "aaaaaaaabbbbbbbb");
  let _ = Pfs.fail_target pfs ~time:3 ~failover:true 1 in
  let tg = Pfs.targets pfs in
  Alcotest.(check bool) "degraded, not down" true
    (Target.state tg 1 = Target.Degraded);
  Alcotest.(check bool) "still available" true (Target.available tg 1);
  (* The standby replica keeps serving reads and accepting writes. *)
  let r = Pfs.read pfs ~time:4 ~rank:0 "/f" ~off:8 ~len:8 in
  Alcotest.(check string) "replica serves settled data" "bbbbbbbb"
    (Bytes.to_string r.Fdata.data);
  Pfs.write pfs ~time:5 ~rank:0 "/f" ~off:8 (b "CCCCCCCC");
  let r = Pfs.read pfs ~time:6 ~rank:0 "/f" ~off:8 ~len:8 in
  Alcotest.(check string) "replica accepts writes" "CCCCCCCC"
    (Bytes.to_string r.Fdata.data)

let test_pfs_mds_failure () =
  let pfs = Pfs.create Consistency.Strong in
  ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
  Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (b "abc");
  Pfs.fail_mds pfs ~time:3;
  (* Metadata operations are refused; the data path is unaffected (data
     goes to the OSTs, not the MDS). *)
  (try
     ignore (Pfs.open_file pfs ~time:4 ~rank:1 "/f");
     Alcotest.fail "open must raise while the MDS is down"
   with Target.Mds_down _ -> ());
  (try
     Pfs.truncate pfs ~time:4 "/f" 1;
     Alcotest.fail "truncate must raise while the MDS is down"
   with Target.Mds_down _ -> ());
  let r = Pfs.read pfs ~time:5 ~rank:0 "/f" ~off:0 ~len:3 in
  Alcotest.(check string) "data path unaffected" "abc"
    (Bytes.to_string r.Fdata.data);
  Pfs.recover_mds pfs ~time:6;
  ignore (Pfs.open_file pfs ~time:7 ~rank:1 "/f");
  let c = Target.counters (Pfs.targets pfs) in
  Alcotest.(check int) "mds failure counted" 1 c.Target.mds_failures;
  Alcotest.(check int) "mds recovery counted" 1 c.Target.mds_recoveries

(* Consistency table ------------------------------------------------------- *)

let test_consistency_strength_order () =
  let open Consistency in
  Alcotest.(check bool) "strong > commit" true
    (compare_strength Strong Commit > 0);
  Alcotest.(check bool) "commit > session" true
    (compare_strength Commit Session > 0);
  Alcotest.(check bool) "session > eventual" true
    (compare_strength Session (Eventual { delay = 0 }) > 0)

let test_consistency_to_string_round_trip () =
  List.iter
    (fun e ->
      let s = Consistency.to_string e in
      Alcotest.(check bool) (s ^ " parses back") true
        (Consistency.of_string s = Ok e))
    [
      Consistency.Strong;
      Consistency.Commit;
      Consistency.Session;
      Consistency.Eventual { delay = Consistency.default_eventual_delay };
      Consistency.Eventual { delay = 0 };
      Consistency.Eventual { delay = 250 };
    ];
  Alcotest.(check string) "eventual names its delay" "eventual:7"
    (Consistency.to_string (Consistency.Eventual { delay = 7 }));
  Alcotest.(check string) "key drops the delay" "eventual"
    (Consistency.key (Consistency.Eventual { delay = 7 }))

let test_consistency_table1 () =
  Alcotest.(check int) "four categories" 4 (List.length Consistency.table1);
  Alcotest.(check bool) "lustre is strong" true
    (Consistency.category_of_pfs "Lustre" = Some Consistency.Strong);
  Alcotest.(check bool) "unifyfs is commit" true
    (Consistency.category_of_pfs "UnifyFS" = Some Consistency.Commit);
  Alcotest.(check bool) "nfs is session" true
    (Consistency.category_of_pfs "NFS" = Some Consistency.Session);
  Alcotest.(check bool) "unknown fs" true
    (Consistency.category_of_pfs "ext4" = None)

let qcheck_fdata_strong_matches_flat =
  (* Under strong semantics, replaying random writes into Fdata must match a
     flat byte-array model. *)
  QCheck.Test.make ~name:"fdata strong equals flat array model" ~count:200
    QCheck.(small_list (tup3 (int_bound 3) (int_bound 50) (int_bound 20)))
    (fun ops ->
      let fd = Fdata.create Consistency.Strong in
      let flat = Bytes.make 100 '\000' in
      let maxhi = ref 0 in
      List.iteri
        (fun i (rank, off, len) ->
          let len = max 1 len in
          let data = Bytes.make len (Char.chr (65 + (i mod 26))) in
          Fdata.write fd ~rank ~time:(i + 1) ~off data;
          Bytes.blit data 0 flat off len;
          maxhi := max !maxhi (off + len))
        ops;
      let r = Fdata.read fd ~rank:9 ~time:1000 ~off:0 ~len:!maxhi in
      Bytes.to_string r.Fdata.data = Bytes.sub_string flat 0 !maxhi)

let suite =
  [
    Alcotest.test_case "fdata write/read strong" `Quick test_fdata_write_read_strong;
    Alcotest.test_case "fdata overwrite order" `Quick test_fdata_overwrite_order;
    Alcotest.test_case "fdata holes read zero" `Quick test_fdata_unwritten_is_zero;
    Alcotest.test_case "fdata read-your-writes" `Quick
      test_fdata_read_own_writes_any_semantics;
    Alcotest.test_case "fdata commit visibility" `Quick test_fdata_commit_visibility;
    Alcotest.test_case "fdata session visibility" `Quick test_fdata_session_visibility;
    Alcotest.test_case "fdata fsync is not close-to-open" `Quick
      test_fdata_session_fsync_not_enough;
    Alcotest.test_case "fdata eventual delay" `Quick test_fdata_eventual_delay;
    Alcotest.test_case "fdata eventual delay boundary" `Quick
      test_fdata_eventual_delay_edges;
    Alcotest.test_case "fdata eventual delay zero" `Quick
      test_fdata_eventual_delay_zero;
    Alcotest.test_case "fdata eventual laminate visible file" `Quick
      test_fdata_eventual_laminate_already_visible;
    Alcotest.test_case "fdata WAW reorder under session" `Quick
      test_fdata_waw_reorder_under_session;
    Alcotest.test_case "fdata truncate" `Quick test_fdata_truncate;
    Alcotest.test_case "fdata lamination" `Quick test_fdata_lamination;
    Alcotest.test_case "fdata lamination ordering" `Quick
      test_fdata_lamination_restores_issue_order;
    Alcotest.test_case "fdata double lamination" `Quick
      test_fdata_double_lamination;
    Alcotest.test_case "pfs laminate" `Quick test_pfs_laminate;
    Alcotest.test_case "fdata BurstFS mode" `Quick
      test_fdata_burstfs_no_local_order;
    Alcotest.test_case "pfs BurstFS mode" `Quick test_pfs_burstfs_mode;
    Alcotest.test_case "namespace tree" `Quick test_namespace_tree;
    Alcotest.test_case "namespace errors" `Quick test_namespace_errors;
    Alcotest.test_case "namespace rename" `Quick test_namespace_rename;
    Alcotest.test_case "namespace rename onto existing" `Quick
      test_namespace_rename_onto_existing;
    Alcotest.test_case "namespace rename into own subtree" `Quick
      test_namespace_rename_into_own_subtree;
    Alcotest.test_case "namespace rename dir across parents" `Quick
      test_namespace_rename_dir_across_parents;
    Alcotest.test_case "namespace readdir after unlink" `Quick
      test_namespace_readdir_after_unlink;
    Alcotest.test_case "namespace stat" `Quick test_namespace_stat;
    Alcotest.test_case "stripe layout" `Quick test_stripe_layout;
    Alcotest.test_case "stripe requests" `Quick test_stripe_requests;
    Alcotest.test_case "stripe split edge cases" `Quick test_stripe_split_edges;
    Alcotest.test_case "lockmgr accounting" `Quick test_lockmgr_accounting;
    Alcotest.test_case "lockmgr shared readers" `Quick test_lockmgr_shared_readers;
    Alcotest.test_case "lockmgr release" `Quick test_lockmgr_release;
    Alcotest.test_case "lockmgr evict client" `Quick test_lockmgr_evict_client;
    Alcotest.test_case "pfs end to end" `Quick test_pfs_end_to_end;
    Alcotest.test_case "pfs stale accounting" `Quick test_pfs_stale_accounting;
    Alcotest.test_case "pfs locks only under strong" `Quick
      test_pfs_lock_stats_only_strong;
    Alcotest.test_case "pfs read_back" `Quick test_pfs_read_back;
    Alcotest.test_case "pfs target states" `Quick test_pfs_target_states;
    Alcotest.test_case "pfs target failover" `Quick test_pfs_target_failover;
    Alcotest.test_case "pfs mds failure" `Quick test_pfs_mds_failure;
    Alcotest.test_case "consistency strength order" `Quick
      test_consistency_strength_order;
    Alcotest.test_case "consistency table 1" `Quick test_consistency_table1;
    Alcotest.test_case "consistency to_string round trip" `Quick
      test_consistency_to_string_round_trip;
    QCheck_alcotest.to_alcotest qcheck_fdata_strong_matches_flat;
    QCheck_alcotest.to_alcotest qcheck_stripe_split_reconcatenates;
  ]
