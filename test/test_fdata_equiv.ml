(* Differential suite: the extent-store {!Fdata} against the reference
   log-repaint model {!Fdata_ref} on randomized interleavings of
   write / commit / open / close / truncate / crash / laminate, under all
   four consistency engines.  Every probe compares returned bytes AND the
   stale-byte count, plus sizes, write counts and crash statistics — the
   extent store must be bit-for-bit the same observable machine. *)

open Hpcfs_fs
module Fdata_ref = Hpcfs_oracle.Fdata_ref
module Obs = Hpcfs_obs.Obs

type op =
  | Write of int * int * int * int  (* rank, clock delta, off, len *)
  | Commit of int * int  (* rank, clock delta *)
  | Open of int * int
  | Close of int * int
  | Truncate of int * int  (* clock delta, new length *)
  | Crash of int * int  (* clock delta, prng seed *)
  | Laminate of int  (* clock delta *)

let pp_op = function
  | Write (r, dt, off, len) -> Printf.sprintf "W(r%d,%+d,%d+%d)" r dt off len
  | Commit (r, dt) -> Printf.sprintf "C(r%d,%+d)" r dt
  | Open (r, dt) -> Printf.sprintf "O(r%d,%+d)" r dt
  | Close (r, dt) -> Printf.sprintf "X(r%d,%+d)" r dt
  | Truncate (dt, len) -> Printf.sprintf "T(%+d,%d)" dt len
  | Crash (dt, seed) -> Printf.sprintf "K(%+d,#%d)" dt seed
  | Laminate dt -> Printf.sprintf "L(%+d)" dt

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map
            (fun ((r, dt), (off, len)) -> Write (r, dt, off, len))
            (pair
               (pair (int_bound 3) (int_range (-2) 4))
               (pair (int_bound 48) (int_range 1 16))) );
        (3, map2 (fun r dt -> Commit (r, dt)) (int_bound 3) (int_range (-2) 4));
        (3, map2 (fun r dt -> Open (r, dt)) (int_bound 3) (int_range (-2) 4));
        (3, map2 (fun r dt -> Close (r, dt)) (int_bound 3) (int_range (-2) 4));
        (1, map2 (fun dt len -> Truncate (dt, len)) (int_range 0 4) (int_bound 64));
        (1, map2 (fun dt seed -> Crash (dt, seed)) (int_range 0 4) (int_bound 999));
        (1, map (fun dt -> Laminate dt) (int_range 0 4));
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 1 50) gen_op)

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat " " (List.map pp_op ops))

(* Deterministic payload so mismatches localize to an operation. *)
let mk_data rank time off len =
  Bytes.init len (fun i -> Char.chr (((rank * 31) + (time * 7) + off + i) land 0xff))

(* A tiny LCG so both implementations see the same keep_stripes draws —
   *provided* they make the same tear calls in the same order, which is
   itself part of the contract under test. *)
let mk_keep seed =
  let s = ref seed in
  fun ~total ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod (total + 1)

exception Mismatch of string

let run_case sem ops =
  let a = Fdata.create sem and b = Fdata_ref.create () in
  let clock = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt in
  let check_read ?(local_order = true) ~rank ~time ~off ~len () =
    let ra = Fdata.read ~local_order a ~rank ~time ~off ~len in
    let rb = Fdata_ref.read ~local_order b ~semantics:sem ~rank ~time ~off ~len in
    if not (Bytes.equal ra.Fdata.data rb.Fdata_ref.data) then
      fail "data mismatch rank=%d time=%d off=%d len=%d lo=%b: %S vs %S" rank
        time off len local_order
        (Bytes.to_string ra.Fdata.data)
        (Bytes.to_string rb.Fdata_ref.data);
    if ra.Fdata.stale_bytes <> rb.Fdata_ref.stale_bytes then
      fail "stale mismatch rank=%d time=%d off=%d len=%d lo=%b: %d vs %d" rank
        time off len local_order ra.Fdata.stale_bytes rb.Fdata_ref.stale_bytes
  in
  let probe () =
    if Fdata.size a <> Fdata_ref.size b then
      fail "size mismatch: %d vs %d" (Fdata.size a) (Fdata_ref.size b);
    if Fdata.write_count a <> Fdata_ref.write_count b then
      fail "write_count mismatch: %d vs %d" (Fdata.write_count a)
        (Fdata_ref.write_count b);
    let now = !clock in
    let whole = Fdata.size a + 4 in
    check_read ~rank:0 ~time:now ~off:0 ~len:whole ();
    check_read ~rank:5 ~time:(now + 3) ~off:0 ~len:whole ();
    check_read ~rank:2 ~time:(max 0 (now - 3)) ~off:0 ~len:whole ();
    check_read ~local_order:false ~rank:1 ~time:now ~off:0 ~len:whole ();
    check_read ~rank:1 ~time:now ~off:7 ~len:13 ();
    (* The Pfs oracle reads the strong view of the same instance on every
       call; it must match the reference's strong read whatever the file's
       engine. *)
    let oa = Fdata.oracle a ~off:0 ~len:whole
    and ob =
      Fdata_ref.read b ~semantics:Consistency.Strong ~rank:(-1)
        ~time:(now + 100) ~off:0 ~len:whole
    in
    if not (Bytes.equal oa ob.Fdata_ref.data) then fail "oracle data mismatch"
  in
  List.iter
    (fun op ->
      (match op with
      | Write (rank, dt, off, len) ->
        clock := max 0 (!clock + dt);
        let data = mk_data rank !clock off len in
        let wa =
          try
            Fdata.write a ~rank ~time:!clock ~off data;
            true
          with Invalid_argument _ -> false
        in
        let wb =
          try
            Fdata_ref.write b ~rank ~time:!clock ~off (Bytes.copy data);
            true
          with Invalid_argument _ -> false
        in
        if wa <> wb then fail "write acceptance mismatch: %b vs %b" wa wb
      | Commit (rank, dt) ->
        clock := max 0 (!clock + dt);
        Fdata.commit a ~rank ~time:!clock;
        Fdata_ref.commit b ~rank ~time:!clock
      | Open (rank, dt) ->
        clock := max 0 (!clock + dt);
        Fdata.session_open a ~rank ~time:!clock;
        Fdata_ref.session_open b ~rank ~time:!clock
      | Close (rank, dt) ->
        clock := max 0 (!clock + dt);
        Fdata.session_close a ~rank ~time:!clock;
        Fdata_ref.session_close b ~rank ~time:!clock
      | Truncate (dt, len) ->
        clock := max 0 (!clock + dt);
        Fdata.truncate a ~time:!clock len;
        Fdata_ref.truncate b ~time:!clock len
      | Crash (dt, seed) ->
        clock := max 0 (!clock + dt);
        let sa =
          Fdata.crash a ~time:!clock ~stripe_size:8 ~keep_stripes:(mk_keep seed)
        and sb =
          Fdata_ref.crash b ~semantics:sem ~time:!clock ~stripe_size:8
            ~keep_stripes:(mk_keep seed)
        in
        if
          sa.Fdata.lost_writes <> sb.Fdata_ref.lost_writes
          || sa.Fdata.lost_bytes <> sb.Fdata_ref.lost_bytes
          || sa.Fdata.torn_writes <> sb.Fdata_ref.torn_writes
          || sa.Fdata.torn_bytes <> sb.Fdata_ref.torn_bytes
        then
          fail "crash stats mismatch: (%d,%d,%d,%d) vs (%d,%d,%d,%d)"
            sa.Fdata.lost_writes sa.Fdata.lost_bytes sa.Fdata.torn_writes
            sa.Fdata.torn_bytes sb.Fdata_ref.lost_writes
            sb.Fdata_ref.lost_bytes sb.Fdata_ref.torn_writes
            sb.Fdata_ref.torn_bytes
      | Laminate dt ->
        clock := max 0 (!clock + dt);
        Fdata.laminate a ~time:!clock;
        Fdata_ref.laminate b ~time:!clock;
        if Fdata.is_laminated a <> Fdata_ref.is_laminated b then
          fail "lamination state mismatch");
      probe ())
    ops;
  true

(* [Fdata.settled] against the formal publication rule, kept test-side from
   the same history: each rank's commits and closes and the (earliest)
   lamination time.  A write [rank] issued at [issued] is settled at [time]
   when the file was laminated by [time], or when its engine's publishing
   event happened in (issued, time]. *)
let run_settled_case sem ops =
  let a = Fdata.create sem in
  let clock = ref 0 in
  let commits = Hashtbl.create 4 and closes = Hashtbl.create 4 in
  let laminated = ref None in
  let events tbl rank = Option.value ~default:[] (Hashtbl.find_opt tbl rank) in
  let note tbl rank time = Hashtbl.replace tbl rank (time :: events tbl rank) in
  let expected ~rank ~issued ~time =
    let published evs = List.exists (fun e -> issued < e && e <= time) evs in
    (match !laminated with Some tl -> tl <= time | None -> false)
    ||
    match (sem : Consistency.t) with
    | Strong -> issued < time
    | Commit -> published (events commits rank @ events closes rank)
    | Session -> published (events closes rank)
    | Eventual { delay } -> issued + delay <= time
  in
  let probe () =
    let now = !clock in
    for rank = 0 to 3 do
      for issued = max 0 (now - 4) to now do
        for time = issued - 1 to now + 4 do
          let got = Fdata.settled a ~rank ~issued ~time in
          if got <> expected ~rank ~issued ~time then
            raise
              (Mismatch
                 (Printf.sprintf "settled rank=%d issued=%d time=%d: got %b"
                    rank issued time got))
        done
      done
    done
  in
  List.iter
    (fun op ->
      (match op with
      | Write (rank, dt, off, len) -> (
        clock := max 0 (!clock + dt);
        try Fdata.write a ~rank ~time:!clock ~off (mk_data rank !clock off len)
        with Invalid_argument _ -> ())
      | Commit (rank, dt) ->
        clock := max 0 (!clock + dt);
        Fdata.commit a ~rank ~time:!clock;
        note commits rank !clock
      | Open (rank, dt) ->
        clock := max 0 (!clock + dt);
        Fdata.session_open a ~rank ~time:!clock
      | Close (rank, dt) ->
        clock := max 0 (!clock + dt);
        Fdata.session_close a ~rank ~time:!clock;
        note closes rank !clock
      | Truncate (dt, len) ->
        clock := max 0 (!clock + dt);
        Fdata.truncate a ~time:!clock len
      | Crash (dt, seed) ->
        clock := max 0 (!clock + dt);
        ignore
          (Fdata.crash a ~time:!clock ~stripe_size:8
             ~keep_stripes:(mk_keep seed))
      | Laminate dt ->
        clock := max 0 (!clock + dt);
        Fdata.laminate a ~time:!clock;
        laminated :=
          Some (match !laminated with Some tl -> min tl !clock | None -> !clock));
      probe ())
    ops;
  true

let settled_test sem name =
  QCheck.Test.make ~name ~count:150 arb_ops (fun ops ->
      try run_settled_case sem ops
      with Mismatch msg -> QCheck.Test.fail_report msg)

let equiv_test sem name =
  QCheck.Test.make ~name ~count:150 arb_ops (fun ops ->
      try run_case sem ops
      with Mismatch msg -> QCheck.Test.fail_report msg)

(* The slow path is covered, not only reachable: a session reader whose
   open predates the last fold of the settled cache reads through it, in
   both [local_order] modes, and matches the reference. *)
let test_slow_path_covered () =
  let a = Fdata.create Consistency.Session and b = Fdata_ref.create () in
  let write ~time off len =
    let data = mk_data 0 time off len in
    Fdata.write a ~rank:0 ~time ~off data;
    Fdata_ref.write b ~rank:0 ~time ~off (Bytes.copy data)
  and close ~time =
    Fdata.session_close a ~rank:0 ~time;
    Fdata_ref.session_close b ~rank:0 ~time
  in
  write ~time:1 0 16;
  write ~time:2 8 16;
  close ~time:3;
  Fdata.session_open a ~rank:1 ~time:4;
  Fdata_ref.session_open b ~rank:1 ~time:4;
  write ~time:5 4 8;
  close ~time:6;
  List.iter
    (fun local_order ->
      let mode = if local_order then "local order" else "BurstFS" in
      let sink = Obs.create () in
      let ra =
        Obs.with_sink sink (fun () ->
            Fdata.read ~local_order a ~rank:1 ~time:7 ~off:0 ~len:24)
      and rb =
        Fdata_ref.read ~local_order b ~semantics:Consistency.Session ~rank:1
          ~time:7 ~off:0 ~len:24
      in
      Alcotest.(check bool) (mode ^ ": slow reads") true
        (Obs.find_counter sink "fs.extent.slow_reads" > 0);
      Alcotest.(check string) (mode ^ ": data")
        (Bytes.to_string rb.Fdata_ref.data) (Bytes.to_string ra.Fdata.data);
      Alcotest.(check int) (mode ^ ": stale bytes") rb.Fdata_ref.stale_bytes
        ra.Fdata.stale_bytes)
    [ true; false ]

let suite =
  [
    QCheck_alcotest.to_alcotest
      (equiv_test Consistency.Strong "extent store equals reference: strong");
    QCheck_alcotest.to_alcotest
      (equiv_test Consistency.Commit "extent store equals reference: commit");
    QCheck_alcotest.to_alcotest
      (equiv_test Consistency.Session "extent store equals reference: session");
    QCheck_alcotest.to_alcotest
      (equiv_test
         (Consistency.Eventual { delay = 3 })
         "extent store equals reference: eventual");
    QCheck_alcotest.to_alcotest
      (settled_test Consistency.Strong "settled follows publication: strong");
    QCheck_alcotest.to_alcotest
      (settled_test Consistency.Commit "settled follows publication: commit");
    QCheck_alcotest.to_alcotest
      (settled_test Consistency.Session "settled follows publication: session");
    QCheck_alcotest.to_alcotest
      (settled_test
         (Consistency.Eventual { delay = 3 })
         "settled follows publication: eventual");
    Alcotest.test_case "slow path covered in both orders" `Quick
      test_slow_path_covered;
  ]
