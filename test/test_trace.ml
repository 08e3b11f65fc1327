(* Tests for the trace substrate: records, serialization, classification,
   clock-skew adjustment. *)

module Record = Hpcfs_trace.Record
module Collector = Hpcfs_trace.Collector
module Opclass = Hpcfs_trace.Opclass
module Tracefile = Hpcfs_trace.Tracefile
module Skew = Hpcfs_trace.Skew

let sample ?(time = 1) ?(rank = 0) ?(func = "write") ?file ?fd ?offset ?count
    ?(args = []) () =
  Record.make ~time ~rank ~layer:Record.L_posix ~origin:Record.O_app ~func
    ?file ?fd ?offset ?count ~args ()

(* Does a record's extent fit in an int: a non-negative count whose end
   does not pass [max_int]?  Parsers refuse the records that fail. *)
let extent_fits r =
  match (r.Record.offset, r.Record.count) with
  | _, Some c when c < 0 -> false
  | Some o, Some c -> o <= max_int - c
  | _ -> true

let test_roundtrip_line () =
  let r =
    sample ~time:42 ~rank:7 ~func:"pwrite" ~file:"/out/data" ~fd:5 ~offset:100
      ~count:512
      ~args:[ ("flags", "O_CREAT|O_TRUNC") ]
      ()
  in
  match Record.of_line (Record.to_line r) with
  | Ok r' ->
    Alcotest.(check int) "time" r.Record.time r'.Record.time;
    Alcotest.(check int) "rank" r.Record.rank r'.Record.rank;
    Alcotest.(check string) "func" r.Record.func r'.Record.func;
    Alcotest.(check (option string)) "file" r.Record.file r'.Record.file;
    Alcotest.(check (option int)) "fd" r.Record.fd r'.Record.fd;
    Alcotest.(check (option int)) "offset" r.Record.offset r'.Record.offset;
    Alcotest.(check (option int)) "count" r.Record.count r'.Record.count;
    Alcotest.(check (option string)) "args" (Record.arg r "flags")
      (Record.arg r' "flags")
  | Error e -> Alcotest.fail e

let test_roundtrip_none_fields () =
  let r = sample ~func:"getcwd" () in
  match Record.of_line (Record.to_line r) with
  | Ok r' ->
    Alcotest.(check (option string)) "no file" None r'.Record.file;
    Alcotest.(check (option int)) "no fd" None r'.Record.fd
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  (match Record.of_line "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Record.of_line "x\t0\tPOSIX\tapp\twrite\t-\t-\t-\t-" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected integer error"

let test_layer_origin_names () =
  List.iter
    (fun layer ->
      Alcotest.(check bool) "layer roundtrip" true
        (Record.layer_of_name (Record.layer_name layer) = Some layer))
    [ Record.L_posix; Record.L_mpiio; Record.L_hdf5 ];
  List.iter
    (fun origin ->
      Alcotest.(check bool) "origin roundtrip" true
        (Record.origin_of_name (Record.origin_name origin) = Some origin))
    [ Record.O_app; Record.O_mpi; Record.O_hdf5; Record.O_netcdf;
      Record.O_adios; Record.O_silo ]

let test_collector_order () =
  let c = Collector.create () in
  List.iter (fun t -> Collector.emit c (sample ~time:t ())) [ 1; 2; 3; 4 ];
  let times = List.map (fun r -> r.Record.time) (Collector.records c) in
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4 ] times;
  Alcotest.(check int) "count" 4 (Collector.count c);
  Collector.clear c;
  Alcotest.(check int) "cleared" 0 (Collector.count c)

let test_collector_by_rank () =
  let c = Collector.create () in
  Collector.emit c (sample ~time:1 ~rank:2 ());
  Collector.emit c (sample ~time:2 ~rank:0 ());
  Collector.emit c (sample ~time:3 ~rank:2 ());
  let buckets = Collector.by_rank c in
  Alcotest.(check int) "three buckets" 3 (Array.length buckets);
  Alcotest.(check int) "rank2 has two" 2 (List.length buckets.(2));
  Alcotest.(check int) "rank1 empty" 0 (List.length buckets.(1))

let test_opclass () =
  Alcotest.(check bool) "read" true (Opclass.classify "pread" = Opclass.Data_read);
  Alcotest.(check bool) "write" true (Opclass.classify "fwrite" = Opclass.Data_write);
  Alcotest.(check bool) "open" true (Opclass.classify "fopen" = Opclass.Open);
  Alcotest.(check bool) "close" true (Opclass.classify "fclose" = Opclass.Close);
  Alcotest.(check bool) "commit" true (Opclass.classify "fdatasync" = Opclass.Commit);
  Alcotest.(check bool) "seek" true (Opclass.classify "lseek" = Opclass.Seek);
  Alcotest.(check bool) "metadata" true (Opclass.classify "mkdir" = Opclass.Metadata);
  Alcotest.(check bool) "other" true (Opclass.classify "frobnicate" = Opclass.Other)

let test_opclass_footnote3_complete () =
  Alcotest.(check int) "44 monitored ops" 44
    (List.length Opclass.monitored_metadata_ops);
  List.iter
    (fun op ->
      Alcotest.(check bool) (op ^ " is metadata") true
        (Opclass.classify op = Opclass.Metadata))
    Opclass.monitored_metadata_ops

let test_opclass_commits () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " commits") true
        (Opclass.is_commit_for_conflicts f))
    [ "fsync"; "fdatasync"; "fflush"; "fclose"; "close" ];
  Alcotest.(check bool) "write is not a commit" false
    (Opclass.is_commit_for_conflicts "write")

let test_tracefile_roundtrip () =
  let records =
    [
      sample ~time:1 ~func:"open" ~file:"/f" ~fd:3 ~args:[ ("flags", "O_CREAT") ] ();
      sample ~time:2 ~func:"write" ~file:"/f" ~fd:3 ~count:100 ();
      sample ~time:3 ~func:"close" ~file:"/f" ~fd:3 ();
    ]
  in
  match Tracefile.of_string (Tracefile.to_string records) with
  | Ok parsed ->
    Alcotest.(check int) "count" 3 (List.length parsed);
    List.iter2
      (fun a b -> Alcotest.(check string) "line" (Record.to_line a) (Record.to_line b))
      records parsed
  | Error e -> Alcotest.fail e

let test_tracefile_save_load () =
  let path = Filename.temp_file "hpcfs" ".trace" in
  let records = [ sample ~time:9 ~func:"fsync" ~file:"/f" ~fd:4 () ] in
  Tracefile.save path records;
  (match Tracefile.load path with
  | Ok [ r ] -> Alcotest.(check int) "time survives" 9 r.Record.time
  | Ok _ -> Alcotest.fail "wrong count"
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_tracefile_bad_line () =
  match Tracefile.of_string "# header\nnot a record\n" with
  | Error msg ->
    Alcotest.(check bool) "mentions line 2" true
      (String.length msg >= 6 && String.sub msg 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected error"

(* A path that opens but cannot be read is an [Error] naming the path,
   from every reader, never a [Sys_error] escaping to the caller. *)
let test_tracefile_unreadable_path () =
  let dir = Filename.get_temp_dir_name () in
  let dst = Filename.temp_file "hpcfs" ".trace" in
  let names_dir what = function
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the path (%s)" what msg)
        true
        (String.starts_with ~prefix:dir msg)
  in
  names_dir "detect_format" (Tracefile.detect_format dir);
  names_dir "iter" (Tracefile.iter dir ~f:ignore);
  names_dir "load" (Tracefile.load dir);
  names_dir "convert" (Tracefile.convert ~src:dir ~dst Tracefile.Binary);
  Sys.remove dst

let test_skew_alignment () =
  (* Rank r's clock is shifted by 10*r; aligning on the barrier exit should
     restore cross-rank order. *)
  let sync_point r = 10 * r in
  let records =
    [
      sample ~time:12 ~rank:1 ~func:"write" ();
      sample ~time:5 ~rank:0 ~func:"write" ();
    ]
  in
  let aligned = Skew.align ~sync_point records in
  let times = List.map (fun r -> (r.Record.rank, r.Record.time)) aligned in
  Alcotest.(check (list (pair int int))) "aligned order" [ (1, 2); (0, 5) ] times

let test_collector_unordered_emit () =
  (* Emission order is whatever the interleaved run produced; [records]
     must still come back in timestamp order. *)
  let c = Collector.create () in
  List.iter
    (fun (t, r) -> Collector.emit c (sample ~time:t ~rank:r ()))
    [ (9, 1); (2, 0); (7, 1); (4, 0) ];
  let times = List.map (fun r -> r.Record.time) (Collector.records c) in
  Alcotest.(check (list int)) "sorted" [ 2; 4; 7; 9 ] times;
  let buckets = Collector.by_rank c in
  Alcotest.(check (list int)) "per-rank sorted" [ 7; 9 ]
    (List.map (fun r -> r.Record.time) buckets.(1))

let test_skew_negative_times () =
  (* Records before the barrier end up with negative adjusted times and
     must sort ahead of everything else. *)
  let sync_point = function 0 -> 100 | _ -> 0 in
  let records =
    [ sample ~time:40 ~rank:0 (); sample ~time:10 ~rank:1 () ]
  in
  let aligned = Skew.align ~sync_point records in
  let times = List.map (fun r -> (r.Record.rank, r.Record.time)) aligned in
  Alcotest.(check (list (pair int int)))
    "pre-barrier record first"
    [ (0, -60); (1, 10) ]
    times

let test_skew_max () =
  Alcotest.(check int) "max pairwise" 30
    (Skew.max_pairwise_skew ~sync_point:(fun r -> 10 * r) ~ranks:4);
  Alcotest.(check int) "no ranks" 0
    (Skew.max_pairwise_skew ~sync_point:(fun _ -> 0) ~ranks:0)

let check_roundtrip r =
  match Record.of_line (Record.to_line r) with
  | Ok r' ->
    Alcotest.(check bool)
      ("roundtrip: " ^ String.escaped (Record.to_line r))
      true (r = r')
  | Error e -> Alcotest.fail e

let test_roundtrip_separator_fields () =
  (* The field separator (tab), the record separator (newline) and the
     escape character itself, inside every free-form field. *)
  check_roundtrip
    (sample ~func:"open\tO_CREAT" ~file:"/dir with\ttab/file\nnewline" ());
  check_roundtrip (sample ~func:"back\\slash" ~file:"/trailing\\" ());
  check_roundtrip
    (sample ~func:"write"
       ~args:[ ("flags\twith\ttabs", "O_CREAT|\n\\O_TRUNC") ]
       ());
  (* A value that looks like an escape sequence already. *)
  check_roundtrip (sample ~func:"write" ~args:[ ("k", "\\t\\n\\\\") ] ())

let test_roundtrip_equals_in_key () =
  (* Regression: '=' in an argument key used to re-parse as the key/value
     separator, so ("a=b", "c") came back as ("a", "b=c"). *)
  check_roundtrip (sample ~func:"write" ~args:[ ("a=b", "c") ] ());
  check_roundtrip (sample ~func:"write" ~args:[ ("=", "=") ] ());
  check_roundtrip (sample ~func:"write" ~args:[ ("a\\=b", "\\") ] ());
  check_roundtrip
    (sample ~func:"open" ~args:[ ("mode=rw", "O_CREAT"); ("k", "v=w") ] ());
  (* The escaped key parses back to the original pair, not a resplit one. *)
  let r = sample ~func:"write" ~args:[ ("a=b", "c") ] () in
  match Record.of_line (Record.to_line r) with
  | Ok r' -> Alcotest.(check (option string)) "key kept" (Some "c")
               (Record.arg r' "a=b")
  | Error e -> Alcotest.fail e

let test_roundtrip_extreme_values () =
  (* Zero-length accesses and offsets and counts at the integer edge must
     survive, as long as the extent ends within [max_int]; one that ends
     past it is refused. *)
  check_roundtrip
    (sample ~func:"pwrite" ~file:"/f" ~fd:0 ~offset:0 ~count:0 ());
  check_roundtrip
    (sample ~func:"pread" ~file:"/f" ~fd:max_int ~offset:max_int ~count:0 ());
  check_roundtrip
    (sample ~func:"pread" ~file:"/f" ~fd:max_int ~offset:0 ~count:max_int ());
  Alcotest.(check bool) "extent past max_int refused" true
    (Result.is_error
       (Record.of_line
          (Record.to_line
             (sample ~func:"pread" ~file:"/f" ~fd:0 ~offset:max_int
                ~count:max_int ()))));
  check_roundtrip (sample ~time:max_int ~rank:0 ~func:"w" ());
  (* An empty function name and an empty argument value. *)
  check_roundtrip (sample ~func:"" ~args:[ ("k", "") ] ())

let qcheck_record_roundtrip_adversarial =
  let field_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'z'; '\t'; '\n'; '\\'; '='; ' '; '/' ])
        (int_bound 12))
  in
  let gen =
    QCheck.Gen.(
      let* func = field_gen in
      let* file = opt field_gen in
      let* key = field_gen in
      let* value = field_gen in
      let* offset = opt (oneofl [ 0; 1; max_int; max_int - 1 ]) in
      let* count = opt (oneofl [ 0; 1; max_int ]) in
      return (func, file, key, value, offset, count))
  in
  QCheck.Test.make ~name:"record roundtrip, adversarial fields" ~count:500
    (QCheck.make gen) (fun (func, file, key, value, offset, count) ->
      let r =
        Record.make ~time:1 ~rank:0 ~layer:Record.L_posix
          ~origin:Record.O_app ~func ?file ?offset ?count
          ~args:[ (key, value) ]
          ()
      in
      match Record.of_line (Record.to_line r) with
      | Ok r' -> extent_fits r && r = r'
      | Error _ -> not (extent_fits r))

(* [line_length] is the length of the line [to_line] would build, whatever
   the fields hold: escapes in every free-form field, ['='] in keys, any
   number of arguments, and integers of every width and sign. *)
let qcheck_line_length =
  let field_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; '\t'; '\n'; '\\'; '='; ' '; '/' ])
        (int_bound 10))
  in
  let int_gen =
    QCheck.Gen.(
      oneof [ int; oneofl [ min_int; max_int; 0; -1; 9; 10; -9; -10; 99 ] ])
  in
  let gen =
    QCheck.Gen.(
      let* time = int_gen and* rank = int_gen in
      let* layer = oneofl Record.[ L_posix; L_mpiio; L_hdf5 ] in
      let* origin =
        oneofl Record.[ O_app; O_mpi; O_hdf5; O_netcdf; O_adios; O_silo ]
      in
      let* func = field_gen and* file = opt field_gen in
      let* fd = opt int_gen and* offset = opt int_gen in
      let* count = opt int_gen in
      let* args = list_size (int_bound 3) (pair field_gen field_gen) in
      return
        (Record.make ~time ~rank ~layer ~origin ~func ?file ?fd ?offset ?count
           ~args ()))
  in
  QCheck.Test.make ~name:"line_length is the line's length" ~count:500
    (QCheck.make ~print:Record.to_line gen) (fun r ->
      Record.line_length r = String.length (Record.to_line r))

let qcheck_record_roundtrip =
  let gen =
    QCheck.Gen.(
      let* time = int_bound 100000 in
      let* rank = int_bound 1024 in
      let* func = oneofl [ "read"; "write"; "open"; "stat"; "lseek" ] in
      let* off = opt (int_bound 1_000_000) in
      let* count = opt (int_bound 1_000_000) in
      return (time, rank, func, off, count))
  in
  QCheck.Test.make ~name:"record line roundtrip" ~count:300
    (QCheck.make gen) (fun (time, rank, func, off, count) ->
      let r =
        Record.make ~time ~rank ~layer:Record.L_posix ~origin:Record.O_mpi
          ~func ?offset:off ?count ()
      in
      match Record.of_line (Record.to_line r) with
      | Ok r' -> r = r'
      | Error _ -> false)

(* [Collector.records] against its specification: the stable sort by
   time of the emission order.  Scripts emit in time order or not, with
   repeated times (a restarted attempt resumes past the crashed one, but
   nothing in the collector relies on it). *)
let qcheck_collector_records_sort =
  let gen =
    QCheck.Gen.(
      let* ordered = bool in
      let* times = list_size (int_bound 40) (int_bound 30) in
      return (if ordered then List.stable_sort compare times else times))
  in
  let print times = String.concat " " (List.map string_of_int times) in
  QCheck.Test.make ~name:"collector records sort stably by time" ~count:300
    (QCheck.make ~print gen) (fun times ->
      let c = Collector.create () in
      List.iteri
        (fun i time -> Collector.emit c (sample ~time ~rank:i ()))
        times;
      let expected =
        List.stable_sort
          (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.mapi (fun i t -> (t, i)) times)
      in
      let got =
        List.map (fun r -> (r.Record.time, r.Record.rank)) (Collector.records c)
      in
      got = expected)

let suite =
  [
    Alcotest.test_case "line roundtrip" `Quick test_roundtrip_line;
    Alcotest.test_case "none fields" `Quick test_roundtrip_none_fields;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "layer/origin names" `Quick test_layer_origin_names;
    Alcotest.test_case "collector order" `Quick test_collector_order;
    Alcotest.test_case "collector by rank" `Quick test_collector_by_rank;
    Alcotest.test_case "opclass basics" `Quick test_opclass;
    Alcotest.test_case "footnote 3 complete" `Quick test_opclass_footnote3_complete;
    Alcotest.test_case "commit ops" `Quick test_opclass_commits;
    Alcotest.test_case "tracefile roundtrip" `Quick test_tracefile_roundtrip;
    Alcotest.test_case "tracefile save/load" `Quick test_tracefile_save_load;
    Alcotest.test_case "tracefile bad line" `Quick test_tracefile_bad_line;
    Alcotest.test_case "tracefile unreadable path" `Quick
      test_tracefile_unreadable_path;
    Alcotest.test_case "collector unordered emit" `Quick
      test_collector_unordered_emit;
    Alcotest.test_case "skew alignment" `Quick test_skew_alignment;
    Alcotest.test_case "skew negative times" `Quick test_skew_negative_times;
    Alcotest.test_case "skew max" `Quick test_skew_max;
    Alcotest.test_case "separator fields roundtrip" `Quick
      test_roundtrip_separator_fields;
    Alcotest.test_case "equals in arg key roundtrip" `Quick
      test_roundtrip_equals_in_key;
    Alcotest.test_case "extreme values roundtrip" `Quick
      test_roundtrip_extreme_values;
    QCheck_alcotest.to_alcotest qcheck_record_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_record_roundtrip_adversarial;
    QCheck_alcotest.to_alcotest qcheck_collector_records_sort;
    QCheck_alcotest.to_alcotest qcheck_line_length;
  ]
