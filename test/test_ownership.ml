(* Buffer ownership along the write and read paths.

   A write hands its buffer over: {!Fdata}, {!Pfs}, the burst buffer and
   the write-ahead log keep the caller's bytes as written instead of
   copying them, so none of them may change those bytes either.
   Truncation and crash clipping replace a stored buffer with a cut copy;
   they never cut it in place.  The first cases write distinct buffers
   through every layer and compare each against a copy taken before the
   write, after drains, truncation, crashes, target failures and replay.

   A read returns a fresh buffer the caller owns: mutating it never
   changes the next read.

   The allocation cases prove the handover from the other side: a
   4096-byte write allocates fewer words than its own payload, so no layer
   copied it.  The last cases pin {!App_common.payload}: its contents, and
   one shared buffer per (start, length) within a run. *)

module Consistency = Hpcfs_fs.Consistency
module Fdata = Hpcfs_fs.Fdata
module Pfs = Hpcfs_fs.Pfs
module Tier = Hpcfs_bb.Tier
module Drain = Hpcfs_bb.Drain
module Wal = Hpcfs_wal.Wal
module Backoff = Hpcfs_util.Backoff
module Runner = Hpcfs_apps.Runner
module App_common = Hpcfs_apps.App_common
module Obs = Hpcfs_obs.Obs

let engines =
  Consistency.[ Strong; Commit; Session; Eventual { delay = 8 } ]

(* The caller's side of every write: each buffer with a copy taken before
   it was handed over, newest first. *)
let ledger () = ref []

let hand l len seed =
  let b = Bytes.init len (fun i -> Char.chr (((seed * 37) + i) land 0xff)) in
  l := (b, Bytes.copy b) :: !l;
  b

let intact l what =
  List.iteri
    (fun i (b, orig) ->
      if not (Bytes.equal b orig) then
        Alcotest.failf "%s: written buffer %d changed" what i)
    (List.rev !l)

(* Mutate a read's buffer; the next read must not see it. *)
let fresh what read =
  let first = read () in
  let before = Bytes.copy first in
  Bytes.fill first 0 (Bytes.length first) 'X';
  let again = read () in
  if not (Bytes.equal again before) then
    Alcotest.failf "%s: mutating a returned buffer changed the next read"
      what;
  if Bytes.length first > 0 && first == again then
    Alcotest.failf "%s: two reads returned one buffer" what

let stripe = 16

(* Write ownership ---------------------------------------------------------- *)

let test_fdata_writes () =
  List.iter
    (fun sem ->
      let name = Consistency.to_string sem in
      let l = ledger () in
      let fd = Fdata.create sem in
      let w ~rank ~time ~off len =
        Fdata.write fd ~rank ~time ~off (hand l len time)
      in
      w ~rank:0 ~time:1 ~off:0 100;
      w ~rank:1 ~time:2 ~off:50 100;
      w ~rank:0 ~time:3 ~off:120 64;
      ignore (Fdata.read fd ~rank:2 ~time:4 ~off:0 ~len:200);
      Fdata.commit fd ~rank:0 ~time:5;
      Fdata.session_close fd ~rank:1 ~time:6;
      intact l (name ^ " after publishing");
      Fdata.truncate fd ~time:7 130;
      intact l (name ^ " after truncate");
      w ~rank:0 ~time:8 ~off:10 90;
      w ~rank:1 ~time:9 ~off:140 70;
      ignore
        (Fdata.crash fd ~time:10 ~stripe_size:stripe
           ~keep_stripes:(fun ~total -> total / 2));
      intact l (name ^ " after crash");
      w ~rank:2 ~time:11 ~off:0 96;
      w ~rank:3 ~time:12 ~off:64 96;
      ignore
        (Fdata.crash_target fd ~time:13 ~stripe_size:stripe ~server_count:4
           ~target:1);
      intact l (name ^ " after a target failure");
      ignore (Fdata.read fd ~rank:0 ~time:14 ~off:0 ~len:200);
      ignore (Fdata.oracle fd ~off:0 ~len:200);
      intact l (name ^ " after reads"))
    engines

let test_pfs_writes () =
  List.iter
    (fun sem ->
      let name = Consistency.to_string sem in
      let l = ledger () in
      let pfs =
        Pfs.create
          ~stripe:(Hpcfs_fs.Stripe.create ~stripe_size:stripe ~server_count:4)
          sem
      in
      let path = "/f" in
      ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true path);
      ignore (Pfs.open_file pfs ~time:1 ~rank:1 path);
      let w ~rank ~time ~off len =
        Pfs.write pfs ~time ~rank path ~off (hand l len time)
      in
      w ~rank:0 ~time:2 ~off:0 100;
      w ~rank:1 ~time:3 ~off:40 100;
      Pfs.fsync pfs ~time:4 ~rank:0 path;
      Pfs.close_file pfs ~time:5 ~rank:1 path;
      intact l (name ^ " after fsync and close");
      Pfs.truncate pfs ~time:6 path 90;
      intact l (name ^ " after truncate");
      ignore (Pfs.open_file pfs ~time:7 ~rank:2 path);
      w ~rank:2 ~time:8 ~off:30 80;
      w ~rank:2 ~time:9 ~off:100 50;
      ignore
        (Pfs.crash pfs ~time:10 ~keep_stripes:(fun ~total -> total - 1) ());
      intact l (name ^ " after crash");
      w ~rank:0 ~time:11 ~off:0 128;
      ignore (Pfs.fail_target pfs ~time:12 1);
      Pfs.recover_target pfs ~time:13 1;
      intact l (name ^ " after a target failure");
      ignore (Pfs.read_back pfs ~time:14 path);
      intact l (name ^ " after read-back"))
    engines

let tier_policies =
  [ Drain.Sync_on_close; Drain.default_async; Drain.On_laminate ]

let test_tier_writes () =
  List.iter
    (fun policy ->
      let name = Drain.name policy in
      let l = ledger () in
      let pfs = Pfs.create Consistency.Commit in
      let tier =
        Tier.create
          ~config:
            {
              Tier.ranks_per_node = 2;
              policy;
              capacity_per_node = None;
              retry = Backoff.default;
            }
          pfs
      in
      let w ~rank ~time ~off len =
        Tier.write tier ~time ~rank "/f" ~off (hand l len time)
      in
      ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
      ignore (Tier.open_file tier ~time:1 ~rank:2 "/f");
      w ~rank:0 ~time:2 ~off:0 100;
      w ~rank:2 ~time:3 ~off:60 100;
      ignore (Tier.read tier ~time:4 ~rank:0 "/f" ~off:0 ~len:160);
      Tier.fsync tier ~time:100 ~rank:0 "/f";
      Tier.close_file tier ~time:101 ~rank:2 "/f";
      intact l (name ^ " after close");
      Tier.truncate tier ~time:102 "/f" 120;
      intact l (name ^ " after truncate");
      w ~rank:0 ~time:103 ~off:20 200;
      w ~rank:2 ~time:104 ~off:300 50;
      ignore (Tier.crash_node tier ~node:1);
      intact l (name ^ " after a node crash");
      ignore (Tier.drain_all tier ());
      intact l (name ^ " after drain");
      w ~rank:0 ~time:106 ~off:400 64;
      Tier.laminate tier ~time:107 "/f";
      intact l (name ^ " after laminate"))
    tier_policies

let test_wal_writes () =
  List.iter
    (fun sem ->
      let name = Consistency.to_string sem in
      let l = ledger () in
      let pfs = Pfs.create sem in
      let wal = Wal.create pfs in
      let w ~rank ~time ~off len =
        Wal.write wal ~time ~rank "/f" ~off (hand l len time)
      in
      ignore (Wal.open_file wal ~time:1 ~rank:0 ~create:true "/f");
      ignore (Wal.open_file wal ~time:1 ~rank:4 "/f");
      w ~rank:0 ~time:2 ~off:0 100;
      w ~rank:4 ~time:3 ~off:50 100;
      Wal.fsync wal ~time:4 ~rank:0 "/f";
      intact l (name ^ " after fsync");
      w ~rank:0 ~time:5 ~off:200 80;
      Wal.truncate wal ~time:6 "/f" 240;
      intact l (name ^ " after truncate");
      w ~rank:0 ~time:7 ~off:0 64;
      w ~rank:4 ~time:8 ~off:100 64;
      ignore (Wal.on_crash wal ~victim:(Wal.node_of_rank wal 4) ~time:9 ());
      ignore (Pfs.crash pfs ~time:9 ());
      intact l (name ^ " after crash");
      ignore (Wal.drain_all wal);
      intact l (name ^ " after replay");
      ignore (Wal.read wal ~time:10 ~rank:0 "/f" ~off:0 ~len:300);
      intact l (name ^ " after a read"))
    engines

(* Read freshness ----------------------------------------------------------- *)

let test_reads_are_fresh () =
  List.iter
    (fun sem ->
      let name = Consistency.to_string sem in
      let l = ledger () in
      let fd = Fdata.create sem in
      Fdata.write fd ~rank:0 ~time:1 ~off:0 (hand l 64 1);
      Fdata.write fd ~rank:1 ~time:2 ~off:32 (hand l 64 2);
      Fdata.commit fd ~rank:0 ~time:3;
      Fdata.session_close fd ~rank:0 ~time:4;
      Fdata.session_open fd ~rank:2 ~time:5;
      List.iter
        (fun rank ->
          fresh
            (Printf.sprintf "%s Fdata.read rank %d" name rank)
            (fun () ->
              (Fdata.read fd ~rank ~time:20 ~off:0 ~len:96).Fdata.data))
        [ 0; 1; 2 ];
      fresh (name ^ " Fdata.read, BurstFS order") (fun () ->
          (Fdata.read ~local_order:false fd ~rank:2 ~time:20 ~off:0 ~len:96)
            .Fdata.data);
      fresh (name ^ " Fdata.oracle") (fun () ->
          Fdata.oracle fd ~off:0 ~len:96);
      let pfs = Pfs.create sem in
      ignore (Pfs.open_file pfs ~time:1 ~rank:0 ~create:true "/f");
      Pfs.write pfs ~time:2 ~rank:0 "/f" ~off:0 (hand l 80 3);
      Pfs.close_file pfs ~time:3 ~rank:0 "/f";
      fresh (name ^ " Pfs.read") (fun () ->
          (Pfs.read pfs ~time:4 ~rank:0 "/f" ~off:0 ~len:80).Fdata.data);
      fresh (name ^ " Pfs.read_back") (fun () ->
          (Pfs.read_back pfs ~time:5 "/f").Fdata.data);
      fresh (name ^ " Pfs.read_oracle") (fun () ->
          Pfs.read_oracle pfs "/f" ~off:0 ~len:80);
      let wal = Wal.create (Pfs.create sem) in
      ignore (Wal.open_file wal ~time:1 ~rank:0 ~create:true "/f");
      Wal.write wal ~time:2 ~rank:0 "/f" ~off:0 (hand l 80 4);
      Wal.write wal ~time:3 ~rank:4 "/f" ~off:40 (hand l 80 5);
      fresh (name ^ " Wal.read") (fun () ->
          (Wal.read wal ~time:4 ~rank:0 "/f" ~off:0 ~len:120).Fdata.data);
      intact l name)
    engines

(* A read whose range is exactly one write's extent assembles from a single
   piece, where a read path could hand back that write's own buffer; every
   [Fdata.read] above spans two writes.  Rank 0's write is settled in the
   cache; rank 1's is still pending (unpublished, or inside the eventual
   delay) and reaches its own writer through the overlay.  Both reads must
   take the fast path: [fresh] reads twice. *)
let test_whole_write_reads_are_fresh () =
  List.iter
    (fun sem ->
      let name = Consistency.to_string sem in
      let l = ledger () in
      let fd = Fdata.create sem in
      Fdata.write fd ~rank:0 ~time:1 ~off:0 (hand l 64 6);
      Fdata.commit fd ~rank:0 ~time:2;
      Fdata.session_close fd ~rank:0 ~time:3;
      Fdata.session_open fd ~rank:1 ~time:12;
      Fdata.session_open fd ~rank:2 ~time:12;
      Fdata.write fd ~rank:1 ~time:13 ~off:64 (hand l 64 7);
      let sink = Obs.create () in
      Obs.with_sink sink (fun () ->
          fresh (name ^ " Fdata.read of a whole settled write") (fun () ->
              (Fdata.read fd ~rank:2 ~time:20 ~off:0 ~len:64).Fdata.data);
          fresh (name ^ " Fdata.read of a whole pending write") (fun () ->
              (Fdata.read fd ~rank:1 ~time:20 ~off:64 ~len:64).Fdata.data));
      Alcotest.(check int)
        (name ^ " reads on the fast path")
        4
        (Obs.find_counter sink "fs.extent.fast_reads");
      intact l name)
    engines

let test_tier_reads_are_fresh () =
  let l = ledger () in
  let pfs = Pfs.create Consistency.Session in
  let tier = Tier.create pfs in
  ignore (Tier.open_file tier ~time:1 ~rank:0 ~create:true "/f");
  Tier.write tier ~time:2 ~rank:0 "/f" ~off:0 (hand l 64 1);
  (* Served whole from the node log. *)
  fresh "Tier.read, node log" (fun () ->
      (Tier.read tier ~time:3 ~rank:0 "/f" ~off:0 ~len:64).Fdata.data);
  Tier.close_file tier ~time:4 ~rank:0 "/f";
  (* Another node: a PFS read with nothing to paint. *)
  ignore (Tier.open_file tier ~time:5 ~rank:4 "/f");
  fresh "Tier.read, PFS" (fun () ->
      (Tier.read tier ~time:6 ~rank:4 "/f" ~off:0 ~len:64).Fdata.data);
  (* A stage-in snapshot. *)
  ignore (Tier.stage_in tier ~time:7 ~rank:4 "/f");
  fresh "Tier.read, whole stage-in snapshot" (fun () ->
      (Tier.read tier ~time:8 ~rank:4 "/f" ~off:0 ~len:64).Fdata.data);
  fresh "Tier.read, part of a stage-in snapshot" (fun () ->
      (Tier.read tier ~time:8 ~rank:4 "/f" ~off:8 ~len:32).Fdata.data);
  intact l "tier"

(* Allocation --------------------------------------------------------------- *)

let block = 4096
let writes = 256

(* Words allocated so far, minor and major heaps together (a 4096-byte
   buffer goes to the major heap directly): the minor heap's count, plus
   the major words not promoted from it.  [Gc.minor_words] rather than the
   minor figure of [Gc.counters], which can lag the allocation pointer. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words [run ()] allocates per write. *)
let per_write run =
  let before = allocated_words () in
  run ();
  (allocated_words () -. before) /. float_of_int writes

let each_write f =
  for i = 0 to writes - 1 do
    f i
  done

(* Fewer words than one copy of the payload: no layer copied it. *)
let no_copy what words =
  Printf.printf "%s: %.0f words per %d-byte write\n" what words block;
  if words >= 512. then
    Alcotest.failf "%s: %.0f words per %d-byte write (a copy is %d)" what
      words block ((block / (Sys.word_size / 8)) + 1)

let test_fdata_write_alloc () =
  let data = Bytes.make block 'a' in
  List.iter
    (fun sem ->
      let fd = Fdata.create sem in
      no_copy
        ("Fdata.write " ^ Consistency.to_string sem)
        (per_write (fun () ->
             each_write (fun i ->
                 Fdata.write fd ~rank:0 ~time:(i + 1) ~off:(i * block) data))))
    engines

let test_staged_write_alloc () =
  let data = Bytes.make block 'a' in
  let pfs = Pfs.create Consistency.Commit in
  let tier = Tier.create pfs in
  ignore (Tier.open_file tier ~time:0 ~rank:0 ~create:true "/bb");
  no_copy "Tier.write"
    (per_write (fun () ->
         each_write (fun i ->
             Tier.write tier ~time:(i + 1) ~rank:0 "/bb" ~off:(i * block)
               data)));
  no_copy "Tier drain on close"
    (per_write (fun () ->
         Tier.close_file tier ~time:(writes + 1) ~rank:0 "/bb"));
  let pfs = Pfs.create Consistency.Commit in
  let wal = Wal.create pfs in
  ignore (Wal.open_file wal ~time:0 ~rank:0 ~create:true "/wal");
  no_copy "Wal.write and replay"
    (per_write (fun () ->
         each_write (fun i ->
             Wal.write wal ~time:(i + 1) ~rank:0 "/wal" ~off:(i * block) data);
         Wal.fsync wal ~time:(writes + 1) ~rank:0 "/wal"))

(* Payloads ----------------------------------------------------------------- *)

let payload_lengths = [ 0; 1; 255; 256; 512; 4096; 4097 ]

let test_payload_contents () =
  let got = Hashtbl.create 16 in
  ignore
    (Runner.run ~nprocs:2 (fun env ->
         let rank = App_common.rank env in
         List.iter
           (fun tag ->
             List.iter
               (fun len ->
                 let b = App_common.payload ~len env tag in
                 Alcotest.(check int) "length" len (Bytes.length b);
                 Bytes.iteri
                   (fun i c ->
                     if Char.code c <> (tag + rank + i) land 0xff then
                       Alcotest.failf
                         "payload tag=%d rank=%d len=%d: byte %d is %d" tag
                         rank len i (Char.code c))
                   b;
                 Hashtbl.replace got (rank, tag, len) b)
               payload_lengths)
           [ 0; 1; 4; 5; 255; 256; 261; 1000 ];
         Alcotest.(check int) "default length" App_common.block
           (Bytes.length (App_common.payload env 0))));
  let p rank tag len = Hashtbl.find got (rank, tag, len) in
  (* One buffer per (start, length), whichever rank and tag asked. *)
  Alcotest.(check bool) "same start across ranks" true
    (p 0 5 512 == p 1 4 512);
  Alcotest.(check bool) "same start across tags" true
    (p 0 5 512 == p 0 261 512);
  Alcotest.(check bool) "other start" false (p 0 4 512 == p 0 5 512);
  Alcotest.(check bool) "other length" false (p 0 5 256 == p 0 5 512)

(* The cache belongs to the run: a second run builds its own buffers. *)
let test_payload_per_run () =
  let first env = App_common.payload ~len:64 env (App_common.rank env) in
  let grab () =
    let got = ref None in
    ignore (Runner.run ~nprocs:1 (fun env -> got := Some (first env)));
    Option.get !got
  in
  let a = grab () and b = grab () in
  Alcotest.(check bool) "equal contents" true (Bytes.equal a b);
  Alcotest.(check bool) "separate buffers" false (a == b)

let suite =
  [
    Alcotest.test_case "fdata keeps written buffers" `Quick test_fdata_writes;
    Alcotest.test_case "pfs keeps written buffers" `Quick test_pfs_writes;
    Alcotest.test_case "tier keeps written buffers" `Quick test_tier_writes;
    Alcotest.test_case "wal keeps written buffers" `Quick test_wal_writes;
    Alcotest.test_case "reads return fresh buffers" `Quick
      test_reads_are_fresh;
    Alcotest.test_case "tier reads return fresh buffers" `Quick
      test_tier_reads_are_fresh;
    Alcotest.test_case "reads of one whole write are fresh" `Quick
      test_whole_write_reads_are_fresh;
    Alcotest.test_case "fdata write copies no payload" `Quick
      test_fdata_write_alloc;
    Alcotest.test_case "staged write copies no payload" `Quick
      test_staged_write_alloc;
    Alcotest.test_case "payload contents" `Quick test_payload_contents;
    Alcotest.test_case "payload cache per run" `Quick test_payload_per_run;
  ]
