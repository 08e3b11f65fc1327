(* Unit and property tests for lib/util. *)

module Prng = Hpcfs_util.Prng
module Interval = Hpcfs_util.Interval
module Extmap = Hpcfs_util.Extmap
module Table = Hpcfs_util.Table
module Stats = Hpcfs_util.Stats

(* [per_rank ~nprocs body] runs [body] on every rank, keeps the value
   each rank returns, and hands back the observations indexed by rank once
   the run is over. *)
let per_rank ~nprocs body =
  let seen = Array.make nprocs None in
  Hpcfs_sim.Sched.run ~nprocs (fun r -> seen.(r) <- Some (body r));
  Array.map Option.get seen

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10);
    let w = Prng.int_in g 5 9 in
    Alcotest.(check bool) "in closed range" true (w >= 5 && w <= 9)
  done

let test_prng_split_independent () =
  let g = Prng.create 1 in
  let h = Prng.split g in
  let a = Prng.bits64 g and b = Prng.bits64 h in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_prng_shuffle_permutation () =
  let g = Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_interval_basics () =
  let i = Interval.of_len 10 5 in
  Alcotest.(check int) "length" 5 (Interval.length i);
  Alcotest.(check bool) "contains lo" true (Interval.contains i 10);
  Alcotest.(check bool) "excludes hi" false (Interval.contains i 15);
  Alcotest.(check bool) "empty" true (Interval.is_empty (Interval.make 3 3))

let test_interval_overlap () =
  let a = Interval.make 0 10 and b = Interval.make 5 15 in
  Alcotest.(check bool) "overlap" true (Interval.overlaps a b);
  let c = Interval.make 10 20 in
  Alcotest.(check bool) "touching intervals do not overlap" false
    (Interval.overlaps a c)

let test_interval_subtract () =
  let a = Interval.make 0 10 in
  (match Interval.subtract a (Interval.make 3 7) with
  | [ l; r ] ->
    Alcotest.(check int) "left hi" 3 l.Interval.hi;
    Alcotest.(check int) "right lo" 7 r.Interval.lo
  | _ -> Alcotest.fail "expected two pieces");
  Alcotest.(check int) "covering subtract empties" 0
    (List.length (Interval.subtract a (Interval.make 0 10)))

let test_interval_invalid () =
  Alcotest.check_raises "make rejects hi < lo"
    (Invalid_argument "Interval.make: hi < lo") (fun () ->
      ignore (Interval.make 5 4))

let prop_intersect_commutes =
  QCheck.Test.make ~name:"interval intersect commutes" ~count:500
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let i1 = Interval.make (min a b) (max a b) in
      let i2 = Interval.make (min c d) (max c d) in
      Interval.intersect i1 i2 = Interval.intersect i2 i1)

let prop_subtract_disjoint =
  QCheck.Test.make ~name:"subtract pieces never overlap subtrahend" ~count:500
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let i1 = Interval.make (min a b) (max a b) in
      let i2 = Interval.make (min c d) (max c d) in
      List.for_all
        (fun piece ->
          Interval.is_empty piece || not (Interval.overlaps piece i2))
        (Interval.subtract i1 i2))

(* merge_runs against a per-byte model: the runs are non-empty, sorted,
   neither overlap nor touch, and cover exactly the input's bytes. *)
let merge_domain = 200

let prop_merge_runs_matches_bytes =
  QCheck.Test.make ~name:"merge_runs = per-byte model"
    ~count:500
    QCheck.(
      list_of_size Gen.(0 -- 30)
        (pair (int_bound (merge_domain - 1)) (int_range 1 40)))
    (fun spans ->
      let ivs =
        List.map
          (fun (lo, len) -> Interval.make lo (min merge_domain (lo + len)))
          spans
      in
      let bytes ivs =
        let covered = Array.make merge_domain false in
        List.iter
          (fun (iv : Interval.t) ->
            for i = iv.lo to iv.hi - 1 do
              covered.(i) <- true
            done)
          ivs;
        covered
      in
      let runs = Interval.merge_runs ivs in
      let rec apart = function
        | (a : Interval.t) :: (b :: _ as rest) -> a.hi < b.lo && apart rest
        | [ _ ] | [] -> true
      in
      List.for_all (fun iv -> not (Interval.is_empty iv)) runs
      && apart runs
      && bytes runs = bytes ivs)

(* Extmap against a per-byte array: random sets and updates over a small
   domain, then every byte of a query's pieces must match the array, the
   pieces must come clipped, non-empty and ascending, and no covered byte
   may be missing. *)
let extmap_domain = 200

let prop_extmap_matches_flat =
  QCheck.Test.make ~name:"extmap set/update/query equal a flat array"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 120)
           (quad bool (int_bound (extmap_domain - 1)) (int_bound 40)
              small_nat))
        (pair (int_bound extmap_domain) (int_bound extmap_domain)))
    (fun (ops, (qa, qb)) ->
      let flat = Array.make extmap_domain None in
      let m =
        List.fold_left
          (fun m (is_set, lo, len, v) ->
            let hi = min extmap_domain (lo + len) in
            let iv = Interval.make lo hi in
            if is_set then begin
              for i = lo to hi - 1 do
                flat.(i) <- Some v
              done;
              Extmap.set iv v m
            end
            else begin
              let f = function None -> v | Some old -> (old * 7) + v in
              for i = lo to hi - 1 do
                flat.(i) <- Some (f flat.(i))
              done;
              Extmap.update iv f m
            end)
          Extmap.empty ops
      in
      let check lo hi =
        let seen = Array.make extmap_domain None in
        let pieces = Extmap.query (Interval.make lo hi) m in
        let rec ascending pos = function
          | [] -> true
          | ((iv : Interval.t), _) :: rest ->
            iv.lo >= pos && iv.hi > iv.lo && iv.lo >= lo && iv.hi <= hi
            && ascending iv.hi rest
        in
        List.iter
          (fun ((iv : Interval.t), v) ->
            for i = iv.lo to iv.hi - 1 do
              seen.(i) <- Some v
            done)
          pieces;
        ascending lo pieces
        && Array.for_all Fun.id
             (Array.init extmap_domain (fun i ->
                  if i >= lo && i < hi then seen.(i) = flat.(i)
                  else seen.(i) = None))
      in
      check 0 extmap_domain && check (min qa qb) (max qa qb))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && contains_sub s "name" && contains_sub s "alpha")

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_stats_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [| 1.; 2.; 3. |]);
  Alcotest.(check (float 1e-9)) "stddev of constant" 0.0
    (Stats.stddev [| 5.; 5.; 5. |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean [||])

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  let total = Array.fold_left (fun a (_, _, c) -> a + c) 0 h in
  Alcotest.(check int) "all samples binned" 4 total

let test_stats_pct () =
  Alcotest.(check (float 1e-9)) "half" 50.0 (Stats.pct 1 2);
  Alcotest.(check (float 1e-9)) "zero whole" 0.0 (Stats.pct 1 0)

let test_stats_empty_edges () =
  Alcotest.check_raises "percentile raises on empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.(check (option (float 1e-9))) "percentile_opt empty" None
    (Stats.percentile_opt [||] 50.0);
  Alcotest.(check bool) "histogram_opt empty" true
    (Stats.histogram_opt ~bins:4 [||] = None)

let test_stats_single_sample () =
  let xs = [| 7.5 |] in
  Alcotest.(check (float 1e-9)) "p0 of singleton" 7.5 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50 of singleton" 7.5
    (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100 of singleton" 7.5
    (Stats.percentile xs 100.0);
  Alcotest.(check (option (float 1e-9))) "percentile_opt singleton"
    (Some 7.5)
    (Stats.percentile_opt xs 95.0);
  match Stats.histogram_opt ~bins:3 xs with
  | None -> Alcotest.fail "histogram_opt singleton should be Some"
  | Some h ->
    let total = Array.fold_left (fun a (_, _, c) -> a + c) 0 h in
    Alcotest.(check int) "singleton binned once" 1 total

let test_stats_opt_agrees () =
  let xs = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  List.iter
    (fun p ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "p%g agrees" p)
        (Some (Stats.percentile xs p))
        (Stats.percentile_opt xs p))
    [ 0.0; 25.0; 50.0; 95.0; 100.0 ]

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "interval basics" `Quick test_interval_basics;
    Alcotest.test_case "interval overlap" `Quick test_interval_overlap;
    Alcotest.test_case "interval subtract" `Quick test_interval_subtract;
    Alcotest.test_case "interval invalid" `Quick test_interval_invalid;
    QCheck_alcotest.to_alcotest prop_intersect_commutes;
    QCheck_alcotest.to_alcotest prop_subtract_disjoint;
    QCheck_alcotest.to_alcotest prop_extmap_matches_flat;
    QCheck_alcotest.to_alcotest prop_merge_runs_matches_bytes;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads" `Quick test_table_pads_short_rows;
    Alcotest.test_case "stats mean/stddev" `Quick test_stats_mean_stddev;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "stats pct" `Quick test_stats_pct;
    Alcotest.test_case "stats empty edges" `Quick test_stats_empty_edges;
    Alcotest.test_case "stats single sample" `Quick test_stats_single_sample;
    Alcotest.test_case "stats opt agrees" `Quick test_stats_opt_agrees;
  ]
