(* Differential suite: the indexed {!Namespace} against the top-down
   reference {!Namespace_ref} on random operation sequences over a small
   alphabet of names, so paths collide, nest under files and move with
   their subtrees.  Every step compares the result or the exception
   (path included), and the full file listing after it.  Paths come in
   several spellings of one canonical form, and {!Shardmap}'s parent and
   shard are checked against the component-list definition on each. *)

open Hpcfs_fs
module Namespace_ref = Hpcfs_oracle.Namespace_ref

type op =
  | Mkdir of string
  | Create of string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Lookup of string
  | Lookup_opt of string
  | Stat of string
  | Exists of string
  | Is_dir of string
  | Readdir of string
  | Touch_m of string
  | Touch_a of string
  | Parent of string

let pp_op = function
  | Mkdir p -> "mkdir " ^ p
  | Create p -> "create " ^ p
  | Unlink p -> "unlink " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Rename (s, d) -> Printf.sprintf "rename %s %s" s d
  | Lookup p -> "lookup " ^ p
  | Lookup_opt p -> "lookup_opt " ^ p
  | Stat p -> "stat " ^ p
  | Exists p -> "exists " ^ p
  | Is_dir p -> "is_dir " ^ p
  | Readdir p -> "readdir " ^ p
  | Touch_m p -> "touch_mtime " ^ p
  | Touch_a p -> "touch_atime " ^ p
  | Parent p -> "parent " ^ p

let op_paths = function
  | Rename (s, d) -> [ s; d ]
  | Mkdir p | Create p | Unlink p | Rmdir p | Lookup p | Lookup_opt p | Stat p
  | Exists p | Is_dir p | Readdir p | Touch_m p | Touch_a p | Parent p ->
    [ p ]

(* One of several spellings of a component list: canonical, doubled or
   trailing separators, or no leading one. *)
let gen_path =
  QCheck.Gen.(
    let comps = list_size (frequency [ (1, return 0); (9, int_range 1 3) ])
        (oneofl [ "a"; "b"; "c" ]) in
    map2
      (fun cs spelling ->
        let body = String.concat "/" cs in
        match spelling with
        | 0 | 1 | 2 -> "/" ^ body
        | 3 -> "//" ^ body
        | 4 -> "/" ^ body ^ "/"
        | 5 -> body
        | _ -> "/" ^ String.concat "//" cs)
      comps (int_bound 6))

let gen_op =
  QCheck.Gen.(
    let p f = map f gen_path in
    frequency
      [
        (5, p (fun x -> Mkdir x));
        (5, p (fun x -> Create x));
        (1, p (fun x -> Unlink x));
        (1, p (fun x -> Rmdir x));
        (5, map2 (fun s d -> Rename (s, d)) gen_path gen_path);
        (3, p (fun x -> Lookup x));
        (1, p (fun x -> Lookup_opt x));
        (2, p (fun x -> Stat x));
        (1, p (fun x -> Exists x));
        (1, p (fun x -> Is_dir x));
        (2, p (fun x -> Readdir x));
        (1, p (fun x -> Touch_m x));
        (1, p (fun x -> Touch_a x));
        (1, p (fun x -> Parent x));
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 1 60) gen_op)

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops ->
      String.concat "; " (List.map pp_op ops))

(* How often a run met each shape the property must cover. *)
type coverage = {
  mutable noncanonical : int;
  mutable through_file : int;
  mutable dir_rename_with_descendants : int;
  mutable rename_onto_file : int;
  mutable rename_onto_empty_dir : int;
  mutable failed_rename : int;
}

let coverage () =
  {
    noncanonical = 0;
    through_file = 0;
    dir_rename_with_descendants = 0;
    rename_onto_file = 0;
    rename_onto_empty_dir = 0;
    failed_rename = 0;
  }

exception Mismatch of string

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let show = function Ok s -> s | Error e -> "raised " ^ e

let pp_stat (s : Namespace.stat) =
  Printf.sprintf "%s size=%d m=%d c=%d a=%d"
    (match s.st_kind with Namespace.Regular -> "file" | Directory -> "dir")
    s.st_size s.st_mtime s.st_ctime s.st_atime

let run_case ?(cov = coverage ()) ops =
  let ns = Namespace.create Consistency.Strong in
  let r = Namespace_ref.create () in
  (* The reference serial each real payload was created under. *)
  let ids = ref [] in
  let name_fd ?fresh fd =
    match List.assq_opt fd !ids with
    | Some i -> Printf.sprintf "file#%d" i
    | None -> (
      match fresh with
      | Some (Ok i) when not (List.exists (fun (_, j) -> j = i) !ids) ->
        ids := (fd, i) :: !ids;
        Printf.sprintf "file#%d" i
      | _ -> "file#unknown")
  in
  let ref_ok f = try Some (f ()) with _ -> None in
  List.iteri
    (fun step op ->
      let time = step + 1 in
      (* [canonical] returns a canonical argument itself. *)
      if List.exists (fun p -> Namespace.canonical p != p) (op_paths op) then
        cov.noncanonical <- cov.noncanonical + 1;
      let unit_ok f = outcome (fun () -> f (); "ok") in
      let real, expected =
        match op with
        | Mkdir p ->
          (unit_ok (fun () -> Namespace.mkdir ns ~time p),
           unit_ok (fun () -> Namespace_ref.mkdir r ~time p))
        | Create p ->
          let e = outcome (fun () -> Namespace_ref.create_file r ~time p) in
          ( outcome (fun () ->
                name_fd ~fresh:e (Namespace.create_file ns ~time p)),
            Result.map (Printf.sprintf "file#%d") e )
        | Unlink p ->
          (unit_ok (fun () -> Namespace.unlink ns p),
           unit_ok (fun () -> Namespace_ref.unlink r p))
        | Rmdir p ->
          (unit_ok (fun () -> Namespace.rmdir ns p),
           unit_ok (fun () -> Namespace_ref.rmdir r p))
        | Rename (s, d) ->
          let src_dir_full =
            ref_ok (fun () -> Namespace_ref.readdir r s <> []) = Some true
          and dst_file = ref_ok (fun () -> Namespace_ref.lookup_opt r d) in
          let dst_dir = Namespace_ref.is_dir r d in
          let e = unit_ok (fun () -> Namespace_ref.rename r ~time s d) in
          (match e with
          | Error _ -> cov.failed_rename <- cov.failed_rename + 1
          | Ok _ when Namespace.canonical s <> Namespace.canonical d ->
            if src_dir_full then
              cov.dir_rename_with_descendants <-
                cov.dir_rename_with_descendants + 1;
            if (match dst_file with Some (Some _) -> true | _ -> false) then
              cov.rename_onto_file <- cov.rename_onto_file + 1;
            if dst_dir then
              cov.rename_onto_empty_dir <- cov.rename_onto_empty_dir + 1
          | Ok _ -> ());
          (unit_ok (fun () -> Namespace.rename ns ~time s d), e)
        | Lookup p ->
          let e = outcome (fun () -> Namespace_ref.lookup_file r p) in
          (match e with
          | Error m when m = Printexc.to_string (Namespace.Not_a_directory p) ->
            cov.through_file <- cov.through_file + 1
          | _ -> ());
          ( outcome (fun () -> name_fd (Namespace.lookup_file ns p)),
            Result.map (Printf.sprintf "file#%d") e )
        | Lookup_opt p ->
          let some = function None -> "none" | Some s -> "some " ^ s in
          ( outcome (fun () ->
                some
                  (Option.map
                     (fun f -> name_fd (Namespace.data f))
                     (Namespace.lookup_opt ns p))),
            outcome (fun () ->
                some
                  (Option.map (Printf.sprintf "file#%d")
                     (Namespace_ref.lookup_opt r p))) )
        | Stat p ->
          (outcome (fun () -> pp_stat (Namespace.stat ns p)),
           outcome (fun () -> pp_stat (Namespace_ref.stat r p)))
        | Exists p ->
          (outcome (fun () -> string_of_bool (Namespace.exists ns p)),
           outcome (fun () -> string_of_bool (Namespace_ref.exists r p)))
        | Is_dir p ->
          (outcome (fun () -> string_of_bool (Namespace.is_dir ns p)),
           outcome (fun () -> string_of_bool (Namespace_ref.is_dir r p)))
        | Readdir p ->
          (outcome (fun () -> String.concat "," (Namespace.readdir ns p)),
           outcome (fun () -> String.concat "," (Namespace_ref.readdir r p)))
        | Touch_m p ->
          (unit_ok (fun () ->
               Namespace.touch_mtime (Namespace.lookup ns p) ~time),
           unit_ok (fun () -> Namespace_ref.touch_mtime r ~time p))
        | Touch_a p ->
          (unit_ok (fun () ->
               Namespace.touch_atime (Namespace.lookup ns p) ~time),
           unit_ok (fun () -> Namespace_ref.touch_atime r ~time p))
        | Parent p ->
          let answer parent shard =
            Printf.sprintf "%s shard=%d/%d" (parent p) (shard ~shards:4 p)
              (shard ~shards:1 p)
          in
          (outcome (fun () -> answer Shardmap.parent Shardmap.shard),
           outcome (fun () -> answer Namespace_ref.parent Namespace_ref.shard))
      in
      let real = show real and expected = show expected in
      if real <> expected then
        raise
          (Mismatch
             (Printf.sprintf "step %d (%s): index %S, reference %S" step
                (pp_op op) real expected));
      let files = Namespace.all_files ns in
      let ref_files = Namespace_ref.all_files r in
      if files <> ref_files then
        raise
          (Mismatch
             (Printf.sprintf "step %d (%s): all_files [%s], reference [%s]" step
                (pp_op op) (String.concat " " files)
                (String.concat " " ref_files))))
    ops;
  true

let equiv_property =
  QCheck.Test.make ~name:"indexed namespace equals top-down reference"
    ~count:500 arb_ops (fun ops ->
      try run_case ops with Mismatch msg -> QCheck.Test.fail_report msg)

(* A fixed-seed batch of the property's own sequences must meet every
   shape the equivalence is about, or a passing run proves little. *)
let test_coverage () =
  let cov = coverage () in
  let rand = Random.State.make [| 36 |] in
  List.iter
    (fun ops -> ignore (run_case ~cov ops))
    (QCheck.Gen.generate ~rand ~n:300 gen_ops);
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "no sequence had a %s" what)
    [
      ("non-canonical spelling", cov.noncanonical);
      ("lookup through a file", cov.through_file);
      ("directory rename with descendants", cov.dir_rename_with_descendants);
      ("rename onto an existing file", cov.rename_onto_file);
      ("rename onto an empty directory", cov.rename_onto_empty_dir);
      ("failed rename", cov.failed_rename);
    ]

(* 16,384 files at depth 3 (16 x 32 directories of 32 files each). *)
let big_namespace () =
  let ns = Namespace.create Consistency.Strong in
  for i = 0 to 15 do
    let d = Printf.sprintf "/d%d" i in
    Namespace.mkdir ns ~time:0 d;
    for j = 0 to 31 do
      let s = Printf.sprintf "%s/s%d" d j in
      Namespace.mkdir ns ~time:0 s;
      for k = 0 to 31 do
        ignore (Namespace.create_file ns ~time:0 (Printf.sprintf "%s/f%d" s k))
      done
    done
  done;
  ns

(* A hit on a canonical path allocates nothing: no component list, no
   option.  The bound leaves room for the counter reads themselves. *)
let test_hit_alloc () =
  let ns = big_namespace () in
  let path = "/d7/s19/f23" in
  let n = 10_000 in
  let words f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  List.iter
    (fun (what, f) ->
      let w = words f in
      if w > 2.0 then Alcotest.failf "%s hit allocates %.1f words" what w)
    [
      ("lookup_file", fun () -> ignore (Namespace.lookup_file ns path));
      ("lookup", fun () -> ignore (Namespace.lookup ns path));
      ("exists", fun () -> ignore (Namespace.exists ns path));
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest equiv_property;
    Alcotest.test_case "sequences cover every shape" `Quick test_coverage;
    Alcotest.test_case "canonical hit allocates nothing" `Quick test_hit_alloc;
  ]
