(* Tests for the sharded metadata service (lib/md): the shard map, the
   per-engine cache protocol with ground-truth staleness, shard failover,
   deep trees, readdir snapshot semantics, the ESTALE model, and the
   determinism of the metadata-storm accounting. *)

module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Namespace = Hpcfs_fs.Namespace
module Shardmap = Hpcfs_fs.Shardmap
module Target = Hpcfs_fs.Target
module Md = Hpcfs_md.Service
module Posix = Hpcfs_posix.Posix
module Sched = Hpcfs_sim.Sched
module Collector = Hpcfs_trace.Collector
module Runner = Hpcfs_apps.Runner
module Registry = Hpcfs_apps.Registry

(* shard map ---------------------------------------------------------------- *)

let test_shardmap () =
  Alcotest.(check string) "parent of nested" "/a/b" (Shardmap.parent "/a/b/c");
  Alcotest.(check string) "parent of top-level" "/" (Shardmap.parent "/f");
  Alcotest.(check string) "parent of root" "/" (Shardmap.parent "/");
  Alcotest.(check int) "single shard" 0 (Shardmap.shard ~shards:1 "/a/b/c");
  List.iter
    (fun p ->
      let k = Shardmap.shard ~shards:4 p in
      Alcotest.(check bool) ("in range: " ^ p) true (k >= 0 && k < 4);
      Alcotest.(check int) ("stable: " ^ p) k (Shardmap.shard ~shards:4 p))
    [ "/a"; "/a/b"; "/out/ckpt/file.0001"; "/d/e/f/g" ];
  (* Siblings share their directory's shard (directory partitioning)... *)
  Alcotest.(check int) "siblings colocated"
    (Shardmap.shard ~shards:16 "/shared/f0")
    (Shardmap.shard ~shards:16 "/shared/f1");
  (* ...while per-rank subdirectories spread. *)
  let distinct =
    List.init 16 (fun r -> Shardmap.shard ~shards:4 (Printf.sprintf "/out/r%d/f" r))
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "fpp dirs spread over shards" true
    (List.length distinct >= 2)

(* engine-governed staleness ------------------------------------------------ *)

(* One PFS with /d/f created at t=0, driven directly (explicit time and
   client ids — no scheduler). *)
let make_md ?(mds_shards = 1) semantics =
  let pfs = Pfs.create ~mds_shards semantics in
  let ns = Pfs.namespace pfs in
  Namespace.mkdir ns ~time:0 "/d";
  ignore (Namespace.create_file ns ~time:0 "/d/f");
  (pfs, ns, Md.create pfs)

(* The locked per-engine rows: client 1 stats /d/f at t=10, the truth
   changes behind its back at t=20 (mtime touch), and it stats again at
   t=30.  (hits, misses, stale_stats, mtime the second stat observed). *)
let test_engine_staleness () =
  List.iter
    (fun (name, sem, expected) ->
      let _, ns, md = make_md sem in
      ignore (Md.stat md ~time:10 ~client:1 "/d/f");
      Namespace.touch_mtime (Namespace.lookup ns "/d/f") ~time:20;
      let st = Md.stat md ~time:30 ~client:1 "/d/f" in
      let s = Md.stats md in
      Alcotest.(check (list int)) name expected
        [ s.Md.cache_hits; s.Md.cache_misses; s.Md.stale_stats;
          st.Namespace.st_mtime ])
    [
      (* strong: every stat looks through — never a hit, never stale *)
      ("strong", Consistency.Strong, [ 0; 2; 0; 20 ]);
      (* commit/session: entry valid until a protocol point, so the
         second stat is a hit serving the stale t=0 attributes *)
      ("commit", Consistency.Commit, [ 1; 1; 1; 0 ]);
      ("session", Consistency.Session, [ 1; 1; 1; 0 ]);
      (* eventual, long TTL: still within the window — served stale *)
      ("eventual:100", Consistency.Eventual { delay = 100 }, [ 1; 1; 1; 0 ]);
      (* eventual, short TTL: entry expired at t=30 — revalidated *)
      ("eventual:5", Consistency.Eventual { delay = 5 }, [ 0; 2; 0; 20 ]);
    ]

let test_protocol_revalidation () =
  (* Commit semantics: fsync (note_commit) clears the committing
     client's cache, so the next stat round-trips and sees truth. *)
  let _, ns, md = make_md Consistency.Commit in
  ignore (Md.stat md ~time:10 ~client:1 "/d/f");
  Namespace.touch_mtime (Namespace.lookup ns "/d/f") ~time:20;
  Md.note_commit md ~time:25 ~client:1;
  let st = Md.stat md ~time:30 ~client:1 "/d/f" in
  Alcotest.(check int) "commit revalidates" 20 st.Namespace.st_mtime;
  Alcotest.(check int) "stale after revalidation"
    0 (Md.stats md).Md.stale_stats;
  (* Session semantics: reopening the path refreshes the opener's view. *)
  let _, ns, md = make_md Consistency.Session in
  ignore (Md.stat md ~time:10 ~client:1 "/d/f");
  Namespace.touch_mtime (Namespace.lookup ns "/d/f") ~time:20;
  Md.note_open md ~time:25 ~client:1 ~create:false "/d/f";
  let st = Md.stat md ~time:30 ~client:1 "/d/f" in
  Alcotest.(check int) "open revalidates" 20 st.Namespace.st_mtime;
  Alcotest.(check bool) "open counted a revalidation" true
    ((Md.stats md).Md.revalidations >= 1)

let test_stale_dents () =
  (* Another client's unlink goes write-through; the reader's cached
     listing is served anyway and counted stale against ground truth. *)
  let _, _, md = make_md Consistency.Session in
  let first = Md.readdir md ~time:10 ~client:1 "/d" in
  Alcotest.(check (list string)) "first listing" [ "f" ] first;
  Md.unlink md ~time:20 ~client:2 "/d/f";
  let second = Md.readdir md ~time:30 ~client:1 "/d" in
  Alcotest.(check (list string)) "stale cached listing" [ "f" ] second;
  let s = Md.stats md in
  Alcotest.(check int) "stale_dents counted" 1 s.Md.stale_dents;
  (* The unlinker's own caches were invalidated: it sees the truth. *)
  Alcotest.(check (list string)) "writer sees own unlink" []
    (Md.readdir md ~time:40 ~client:2 "/d")

(* shard failover ----------------------------------------------------------- *)

(* Two top-level directories guaranteed to land on different shards of a
   4-way map (searched, not hard-coded, so a hash change cannot silently
   degrade the test). *)
let two_dirs_on_distinct_shards () =
  let dirs = List.init 16 (fun i -> Printf.sprintf "/d%d" i) in
  let shard d = Shardmap.shard ~shards:4 (d ^ "/f") in
  let d0 = List.hd dirs in
  let d1 = List.find (fun d -> shard d <> shard d0) (List.tl dirs) in
  (d0, d1)

let test_shard_failover () =
  let d0, d1 = two_dirs_on_distinct_shards () in
  let pfs = Pfs.create ~mds_shards:4 Consistency.Session in
  let ns = Pfs.namespace pfs in
  List.iter
    (fun d ->
      Namespace.mkdir ns ~time:0 d;
      ignore (Namespace.create_file ns ~time:0 (d ^ "/f")))
    [ d0; d1 ];
  let md = Md.create pfs in
  (* Client 1 warms its cache on both paths before the failure. *)
  ignore (Md.stat md ~time:10 ~client:1 (d0 ^ "/f"));
  ignore (Md.stat md ~time:10 ~client:1 (d1 ^ "/f"));
  let k0 = Shardmap.shard ~shards:4 (d0 ^ "/f") in
  Pfs.fail_mds ~shard:k0 pfs ~time:20;
  (* A cold client's round-trip to the down shard is refused... *)
  (match Md.stat md ~time:30 ~client:2 (d0 ^ "/f") with
  | _ -> Alcotest.fail "stat on down shard should raise"
  | exception Target.Mds_down _ -> ());
  (* ...other shards keep serving... *)
  ignore (Md.stat md ~time:30 ~client:2 (d1 ^ "/f"));
  (* ...and the warm client rides out the outage on its cache. *)
  ignore (Md.stat md ~time:30 ~client:1 (d0 ^ "/f"));
  let s = Md.stats md in
  Alcotest.(check int) "one rejected op" 1 s.Md.rejected;
  Pfs.recover_mds ~shard:k0 pfs ~time:40;
  ignore (Md.stat md ~time:50 ~client:2 (d0 ^ "/f"));
  (* Legacy plan shape: mdsfail without a shard downs every shard (a
     cold client — client 2 could still ride on what it cached above). *)
  Pfs.fail_mds pfs ~time:60;
  (match Md.stat md ~time:70 ~client:3 (d1 ^ "/f") with
  | _ -> Alcotest.fail "whole-MDS failure should refuse every shard"
  | exception Target.Mds_down _ -> ());
  Pfs.recover_mds pfs ~time:80;
  ignore (Md.stat md ~time:90 ~client:3 (d1 ^ "/f"))

(* deep trees --------------------------------------------------------------- *)

let test_deep_tree () =
  let _, _, md = make_md ~mds_shards:4 Consistency.Session in
  let depth = 12 in
  let path_to n =
    "/t" ^ String.concat "" (List.init n (fun i -> Printf.sprintf "/l%d" i))
  in
  Md.mkdir md ~time:1 ~client:0 "/t";
  for n = 1 to depth do
    Md.mkdir md ~time:(1 + n) ~client:0 (path_to n)
  done;
  for n = 1 to depth do
    Alcotest.(check bool)
      (Printf.sprintf "is_dir depth %d" n)
      true
      (Md.is_dir md ~time:50 ~client:1 (path_to n));
    Alcotest.(check (list string))
      (Printf.sprintf "readdir depth %d" n)
      [ Printf.sprintf "l%d" (n - 1) ]
      (Md.readdir md ~time:60 ~client:1 (path_to (n - 1)))
  done;
  let s = Md.stats md in
  (* mkdir chain + stats + readdirs all reached a shard; nothing stale. *)
  Alcotest.(check int) "no staleness in a static tree" 0
    (s.Md.stale_stats + s.Md.stale_dents);
  Alcotest.(check int) "every level accounted" (depth + 1)
    (List.assoc "mkdir" s.Md.by_op)

(* POSIX-level semantics ---------------------------------------------------- *)

let with_ctx ?(semantics = Consistency.Strong) body =
  let pfs = Pfs.create semantics in
  let collector = Collector.create () in
  let ctx = Posix.make_ctx pfs collector in
  let result = ref None in
  Sched.run ~nprocs:1 (fun _ -> result := Some (body ctx));
  Option.get !result

let test_readdir_snapshot () =
  with_ctx ~semantics:Consistency.Session (fun ctx ->
      Posix.mkdir ctx "/dir";
      for i = 0 to 3 do
        let fd =
          Posix.openf ctx
            (Printf.sprintf "/dir/f%d" i)
            [ Posix.O_WRONLY; Posix.O_CREAT ]
        in
        Posix.close ctx fd
      done;
      let entries = Posix.opendir ctx "/dir" in
      Alcotest.(check int) "four entries" 4 (List.length entries);
      (* The listing is a snapshot: unlinking while iterating it neither
         perturbs the iteration nor raises. *)
      List.iter (fun e -> Posix.unlink ctx ("/dir/" ^ e)) entries;
      Alcotest.(check (list string)) "emptied directory" []
        (Posix.opendir ctx "/dir"))

let test_unlink_while_open_estale () =
  with_ctx (fun ctx ->
      let fd = Posix.openf ctx "/x" [ Posix.O_WRONLY; Posix.O_CREAT ] in
      ignore (Posix.write ctx fd (Bytes.make 8 'a'));
      Posix.close ctx fd;
      let fd = Posix.openf ctx "/x" [ Posix.O_RDONLY ] in
      Posix.unlink ctx "/x";
      (* NFS-style documented deviation: descriptor operations on an
         unlinked path fail with a stale file handle, not success. *)
      (match Posix.read ctx fd 8 with
      | _ -> Alcotest.fail "read after unlink should fail"
      | exception Posix.Posix_error { msg; _ } ->
        Alcotest.(check string) "ESTALE" "stale file handle" msg);
      match Posix.fstat ctx fd with
      | _ -> Alcotest.fail "fstat after unlink should fail"
      | exception Posix.Posix_error { msg; _ } ->
        Alcotest.(check string) "ESTALE on fstat" "stale file handle" msg)

(* storm accounting --------------------------------------------------------- *)

let storm_stats ~semantics ~mds_shards name =
  let entry = Option.get (Registry.find name) in
  let result = Runner.run ~nprocs:8 ~semantics ~mds_shards entry.Registry.body in
  result.Runner.md

let test_strong_storm_never_stale () =
  List.iter
    (fun name ->
      List.iter
        (fun mds_shards ->
          let s = storm_stats ~semantics:Consistency.Strong ~mds_shards name in
          Alcotest.(check int) (name ^ ": strong stale stats") 0 s.Md.stale_stats;
          Alcotest.(check int) (name ^ ": strong stale dents") 0 s.Md.stale_dents;
          Alcotest.(check int) (name ^ ": strong never hits cache") 0
            s.Md.cache_hits)
        [ 1; 4 ])
    [ "Compile-Storm"; "DataLoader-Storm" ]

let test_warm_cache_beats_baseline () =
  let base =
    storm_stats ~semantics:Consistency.Strong ~mds_shards:1 "DataLoader-Storm"
  and warm =
    storm_stats ~semantics:Consistency.Session ~mds_shards:4 "DataLoader-Storm"
  in
  Alcotest.(check bool) "cache absorbs the stat storm" true
    (Md.hit_ratio warm > 0.5);
  Alcotest.(check bool) "sharded warm makespan beats single cold MDS" true
    (Md.makespan warm < Md.makespan base);
  Alcotest.(check bool) "relaxed engine observes staleness" true
    (warm.Md.stale_stats > 0)

let test_storm_deterministic () =
  let s1 =
    storm_stats ~semantics:Consistency.Session ~mds_shards:4 "DataLoader-Storm"
  and s2 =
    storm_stats ~semantics:Consistency.Session ~mds_shards:4 "DataLoader-Storm"
  in
  Alcotest.(check bool) "same seed, bit-identical metadata accounting" true
    (s1 = s2)

let suite =
  [
    Alcotest.test_case "shard map: parent hashing" `Quick test_shardmap;
    Alcotest.test_case "per-engine stat staleness (locked)" `Quick
      test_engine_staleness;
    Alcotest.test_case "commit/open revalidation" `Quick
      test_protocol_revalidation;
    Alcotest.test_case "stale cached listing" `Quick test_stale_dents;
    Alcotest.test_case "shard failover" `Quick test_shard_failover;
    Alcotest.test_case "deep directory tree" `Quick test_deep_tree;
    Alcotest.test_case "readdir is a snapshot" `Quick test_readdir_snapshot;
    Alcotest.test_case "unlink while open is ESTALE" `Quick
      test_unlink_while_open_estale;
    Alcotest.test_case "strong storms never stale" `Quick
      test_strong_storm_never_stale;
    Alcotest.test_case "warm sharded cache beats cold single MDS" `Quick
      test_warm_cache_beats_baseline;
    Alcotest.test_case "storm accounting deterministic" `Quick
      test_storm_deterministic;
  ]
