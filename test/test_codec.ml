(* Tests for the binary trace pipeline: varint primitives, the chunked
   codec, format auto-detection and conversion, the collector's spill
   mode, codec telemetry, and the streaming analysis checked against a
   reference composed from the batch building blocks. *)

module Record = Hpcfs_trace.Record
module Varint = Hpcfs_trace.Varint
module Codec = Hpcfs_trace.Codec
module Tracefile = Hpcfs_trace.Tracefile
module Collector = Hpcfs_trace.Collector
module Obs = Hpcfs_obs.Obs
module Report = Hpcfs_core.Report
module Offsets = Hpcfs_core.Offsets
module Conflict = Hpcfs_core.Conflict
module Sharing = Hpcfs_core.Sharing
module Pattern = Hpcfs_core.Pattern
module Metadata_report = Hpcfs_core.Metadata_report
module Recommend = Hpcfs_core.Recommend
module Overlap_ref = Hpcfs_oracle.Overlap_ref
module Wl_gen = Hpcfs_oracle.Wl_gen
module Compile = Hpcfs_wl.Compile
module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner

let sample ?(time = 1) ?(rank = 0) ?(layer = Record.L_posix)
    ?(origin = Record.O_app) ?(func = "write") ?file ?fd ?offset ?count
    ?(args = []) () =
  Record.make ~time ~rank ~layer ~origin ~func ?file ?fd ?offset ?count ~args
    ()

let with_temp f =
  let path = Filename.temp_file "hpcfs_codec" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_binary ?chunk_records records path =
  let oc = open_out_bin path in
  let e = Codec.encoder ?chunk_records oc in
  List.iter (Codec.encode e) records;
  Codec.finish e;
  close_out oc;
  Codec.stats e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc ->
    Out_channel.output_string oc s)

let contains msg substring =
  let n = String.length substring and m = String.length msg in
  let rec at i = i + n <= m && (String.sub msg i n = substring || at (i + 1)) in
  at 0

let expect_load_error ?(substring = "") path what =
  match Tracefile.load path with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
    if substring <> "" then
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" what msg substring)
        true (contains msg substring)

(* Varint primitives -------------------------------------------------------- *)

let varint_edge_cases =
  [ 0; 1; 2; 63; 64; 127; 128; 129; 255; 16383; 16384; 1 lsl 30;
    max_int - 1; max_int; -1; -2; -127; -128; min_int + 1; min_int ]

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.write buf n;
      Alcotest.(check bool)
        (Printf.sprintf "%d fits in max_bytes" n)
        true
        (Buffer.length buf <= Varint.max_bytes);
      let r = { Varint.data = Buffer.contents buf; pos = 0 } in
      match Varint.read r with
      | n' ->
        Alcotest.(check int) (Printf.sprintf "unsigned %d" n) n n';
        Alcotest.(check int) "cursor at end" (Buffer.length buf) r.Varint.pos
      | exception Varint.Malformed e -> Alcotest.fail e)
    varint_edge_cases;
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.write_signed buf n;
      let r = { Varint.data = Buffer.contents buf; pos = 0 } in
      match Varint.read_signed r with
      | n' -> Alcotest.(check int) (Printf.sprintf "signed %d" n) n n'
      | exception Varint.Malformed e -> Alcotest.fail e)
    varint_edge_cases

let test_varint_zigzag () =
  List.iter
    (fun (n, z) ->
      Alcotest.(check int) (Printf.sprintf "zigzag %d" n) z (Varint.zigzag n))
    [ (0, 0); (-1, 1); (1, 2); (-2, 3); (2, 4) ];
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "unzigzag (zigzag %d)" n)
        n
        (Varint.unzigzag (Varint.zigzag n)))
    varint_edge_cases;
  (* Small magnitudes of either sign must encode in one byte. *)
  List.iter
    (fun n ->
      let buf = Buffer.create 4 in
      Varint.write_signed buf n;
      Alcotest.(check int) (Printf.sprintf "%d is one byte" n) 1
        (Buffer.length buf))
    [ 0; 1; -1; 63; -64 ]

let test_varint_errors () =
  (* A continuation bit with nothing after it. *)
  (match Varint.read { Varint.data = "\x80"; pos = 0 } with
  | exception Varint.Malformed _ -> ()
  | _ -> Alcotest.fail "expected truncated-varint error");
  (* Ten continuation bytes can't be a 63-bit int. *)
  match Varint.read { Varint.data = String.make 10 '\x80'; pos = 0 } with
  | exception Varint.Malformed _ -> ()
  | _ -> Alcotest.fail "expected over-long varint error"

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip, arbitrary ints" ~count:500
    QCheck.int (fun n ->
      let buf = Buffer.create 16 in
      Varint.write buf n;
      Varint.write_signed buf n;
      let r = { Varint.data = Buffer.contents buf; pos = 0 } in
      match Varint.read r with
      | u -> u = n && Varint.read_signed r = n
      | exception Varint.Malformed _ -> false)

(* Codec round trips -------------------------------------------------------- *)

let adversarial_records =
  [
    sample ~time:5 ~rank:3 ~func:"open" ~file:"/a\tb\nc\\d" ~fd:7
      ~args:[ ("flags", "O_CREAT|O_TRUNC"); ("mode=rw", "a=b") ]
      ();
    sample ~time:(-12) ~rank:0 ~func:"" ~args:[ ("", "") ] ();
    (* Time runs backwards across ranks (skew-adjusted traces do this).
       The offset and the count each reach [max_int], in extents that
       still end within it. *)
    sample ~time:2 ~rank:1 ~layer:Record.L_mpiio ~origin:Record.O_mpi
      ~func:"MPI_File_write_at" ~file:"/shared" ~offset:max_int ~count:0
      ();
    sample ~time:3 ~rank:1 ~layer:Record.L_hdf5 ~origin:Record.O_hdf5
      ~func:"H5Dwrite" ~offset:0 ~count:max_int ();
    sample ~time:1 ~rank:2 ~func:"pwrite" ~file:"/shared" ~offset:(max_int - 1)
      ~fd:0 ();
    sample ~time:4 ~rank:2 ~func:"pwrite" ~file:"/shared" ~offset:1 ~fd:0
      ~args:(List.init 12 (fun i -> (Printf.sprintf "k%d" i, string_of_int i)))
      ();
  ]

let check_binary_roundtrip ?chunk_records records =
  with_temp @@ fun path ->
  let stats = write_binary ?chunk_records records path in
  Alcotest.(check int) "stats.records" (List.length records)
    stats.Codec.records;
  match Tracefile.load path with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    Alcotest.(check int) "count" (List.length records) (List.length decoded);
    List.iter2
      (fun a b ->
        Alcotest.(check bool)
          ("roundtrip: " ^ String.escaped (Record.to_line a))
          true (a = b))
      records decoded;
    stats

let test_codec_roundtrip () = ignore (check_binary_roundtrip adversarial_records)

let test_codec_chunked_roundtrip () =
  (* Chunk boundaries reset the intern table and the delta state; a
     2-record chunk size forces several resets over the same records. *)
  let stats = check_binary_roundtrip ~chunk_records:2 adversarial_records in
  Alcotest.(check int) "chunks" 3 stats.Codec.chunks

let test_codec_empty_trace () =
  with_temp @@ fun path ->
  ignore (write_binary [] path);
  match Tracefile.load path with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected no records"
  | Error e -> Alcotest.fail e

let test_codec_deterministic () =
  with_temp @@ fun p1 ->
  with_temp @@ fun p2 ->
  ignore (write_binary adversarial_records p1);
  ignore (write_binary adversarial_records p2);
  Alcotest.(check bool) "bit-identical encodings" true
    (read_file p1 = read_file p2)

let qcheck_codec_roundtrip =
  let field_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'z'; '\t'; '\n'; '\\'; '='; '\x00' ])
        (int_bound 8))
  in
  let record_gen =
    QCheck.Gen.(
      let* time = int_range (-1000) 1000 in
      let* rank = int_bound 64 in
      let* func = field_gen in
      let* file = opt field_gen in
      let* fd = opt (int_range (-2) 1000) in
      let* offset = opt (oneofl [ 0; 1; 4096; max_int; max_int - 1 ]) in
      let* count = opt (oneofl [ 0; 1; max_int ]) in
      let* key = field_gen in
      let* value = field_gen in
      return (sample ~time ~rank ~func ?file ?fd ?offset ?count
                ~args:[ (key, value) ] ()))
  in
  (* Records whose extent ends past [max_int] are refused on decode; the
     others must round-trip exactly. *)
  let load_back records =
    with_temp @@ fun path ->
    ignore (write_binary ~chunk_records:3 records path);
    Tracefile.load path
  in
  QCheck.Test.make ~name:"binary codec roundtrip, adversarial records"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 20) record_gen))
    (fun records ->
      let valid = List.filter Test_trace.extent_fits records in
      load_back valid = Ok valid
      && (List.length valid = List.length records
         || Result.is_error (load_back records)))

(* Corruption --------------------------------------------------------------- *)

let test_decoder_bad_magic () =
  with_temp @@ fun path ->
  write_file path "certainly not a binary trace\n";
  (* A non-magic file auto-detects as text, so drive the decoder directly. *)
  In_channel.with_open_bin path (fun ic ->
      match Codec.decoder ic with
      | Error msg ->
        Alcotest.(check bool) "mentions magic" true
          (String.length msg > 0)
      | Ok _ -> Alcotest.fail "expected bad-magic error");
  with_temp @@ fun short ->
  write_file short "hpcfs";
  In_channel.with_open_bin short (fun ic ->
      match Codec.decoder ic with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected short-file error")

let test_decoder_unknown_version () =
  with_temp @@ fun path ->
  ignore (write_binary adversarial_records path);
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set bytes 10 '\x09';
  write_file path (Bytes.to_string bytes);
  expect_load_error ~substring:"version 9" path "unknown version"

let test_decoder_truncations () =
  with_temp @@ fun path ->
  let whole =
    ignore (write_binary ~chunk_records:4 adversarial_records path);
    read_file path
  in
  (* Cut mid-payload. *)
  write_file path (String.sub whole 0 (String.length whole - 10));
  expect_load_error ~substring:"chunk" path "mid-chunk truncation";
  (* Cut exactly at a chunk boundary: only the trailer is missing, which
     must still be an error (this is the silent-truncation case a
     chunk-only format cannot detect). *)
  write_file path (String.sub whole 0 (String.length whole - 2));
  expect_load_error ~substring:"missing trailer" path "missing trailer";
  (* Trailing garbage after the trailer. *)
  write_file path (whole ^ "x");
  expect_load_error ~substring:"trailing bytes" path "trailing bytes"

let test_decoder_checksum_mismatch () =
  with_temp @@ fun path ->
  ignore (write_binary adversarial_records path);
  let whole = read_file path in
  let bytes = Bytes.of_string whole in
  (* Flip one byte in the middle of the (single) chunk's payload. *)
  let mid = String.length whole / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0xff));
  write_file path (Bytes.to_string bytes);
  expect_load_error ~substring:"checksum mismatch" path "checksum"

(* The chunk header precedes the checksum, so its payload length is
   untrusted: a length past EOF must be refused before it is allocated. *)
let test_decoder_payload_past_eof () =
  with_temp @@ fun path ->
  let whole =
    ignore (write_binary adversarial_records path);
    read_file path
  in
  (* First chunk: marker byte, record count, payload length. *)
  let r = { Varint.data = whole; pos = String.length Codec.magic + 1 } in
  ignore (Varint.read r);
  let len_at = r.Varint.pos in
  ignore (Varint.read r);
  let rest =
    String.sub whole r.Varint.pos (String.length whole - r.Varint.pos)
  in
  List.iter
    (fun (len, what) ->
      let buf = Buffer.create 16 in
      Varint.write buf len;
      write_file path (String.sub whole 0 len_at ^ Buffer.contents buf ^ rest);
      expect_load_error
        ~substring:
          (Printf.sprintf "chunk 1: truncated payload (%d bytes promised)" len)
        path what)
    [
      (1 lsl 58, "2^58-byte payload");
      (String.length whole + 4096, "4 KiB past EOF");
    ]

(* The definition: both sums reduced after every byte. *)
let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

(* The codec reduces once per block; random payloads up to three blocks
   long, and all-0xFF ones (the largest sums a block reaches), must give
   the definition's checksum. *)
let qcheck_adler32_definition =
  let gen =
    QCheck.Gen.(
      int_bound (3 * 5552 + 7) >>= fun len ->
      oneof
        [
          string_size ~gen:char (return len);
          return (String.make len '\xFF');
        ])
  in
  QCheck.Test.make ~name:"adler32 = definition" ~count:200
    (QCheck.make gen ~print:(fun s ->
         Printf.sprintf "%d bytes" (String.length s)))
    (fun s -> Codec.adler32 s = adler32 s)

let test_adler32_block_edges () =
  List.iter
    (fun len ->
      List.iter
        (fun c ->
          let s = String.make len c in
          Alcotest.(check int)
            (Printf.sprintf "%d x %C" len c)
            (adler32 s) (Codec.adler32 s))
        [ '\xFF'; '\x00'; 'a' ])
    [ 0; 1; 5551; 5552; 5553; 2 * 5552; (2 * 5552) + 1; 100_000 ]

(* A one-chunk trace around [payload]: a correct checksum, so the payload
   reaches the record decoder, and a trailer that agrees with the chunk's
   record count. *)
let chunk_trace ?(nrecords = 1) payload =
  let buf = Buffer.create 64 in
  Buffer.add_string buf Codec.magic;
  Buffer.add_char buf '\xC4' (* chunk marker *);
  Varint.write buf nrecords;
  Varint.write buf (String.length payload);
  let sum = adler32 payload in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((sum lsr (8 * i)) land 0xff))
  done;
  Buffer.add_string buf payload;
  Buffer.add_char buf '\xC5' (* trailer marker *);
  Varint.write buf nrecords;
  Buffer.contents buf

let varints ns =
  let b = Buffer.create 16 in
  List.iter (Varint.write b) ns;
  Buffer.contents b

(* A POSIX record from rank 0 at time delta 0 whose func is a new string,
   interned as id 0. *)
let write_record = varints [ 0; 0; 0; 0; 5 ] ^ "write"

(* A second record on rank 0 with an explicit offset and count (header
   bits 7 and 8), func back-referencing id 0. *)
let extent_record ~offset ~count =
  varints
    [ (1 lsl 7) lor (1 lsl 8); 0; Varint.zigzag 1; 0; Varint.zigzag offset;
      Varint.zigzag count ]

(* Every class of malformed record, each message in full. *)
let test_decoder_malformed_records () =
  with_temp @@ fun path ->
  List.iter
    (fun (what, nrecords, payload, expected) ->
      write_file path (chunk_trace ~nrecords payload);
      match Tracefile.load path with
      | Ok _ -> Alcotest.failf "%s: expected an error" what
      | Error msg -> Alcotest.(check string) what expected msg)
    [
      ("bad layer code", 1, varints [ 3 ], "chunk 1: bad layer code 3");
      ("bad origin code", 1, varints [ 6 lsl 2 ], "chunk 1: bad origin code 6");
      ("truncated varint", 1, "\x00\x00\x80", "chunk 1: truncated varint");
      ( "varint too long", 1, "\x00" ^ String.make 10 '\x80',
        "chunk 1: varint too long" );
      ( "dangling string reference", 1, varints [ 0; 0; 0; 5 ],
        "chunk 1: dangling string reference 5" );
      ( (* a 9-byte id that sets OCaml's sign bit *)
        "negative string id", 1,
        "\x00\x00\x00\x80\x80\x80\x80\x80\x80\x80\x80\x40",
        Printf.sprintf "chunk 1: dangling string reference %d" min_int );
      ( (* a new string whose length overflows the cursor arithmetic *)
        "max_int string length", 1,
        varints [ 0; 0; 0; 0; max_int ] ^ "write",
        "chunk 1: truncated string" );
      ( "short string", 1, varints [ 0; 0; 0; 0; 6 ] ^ "write",
        "chunk 1: truncated string" );
      ( "negative count", 2, write_record ^ extent_record ~offset:0 ~count:(-5),
        "chunk 1: record 2: negative count -5" );
      ( "overflowing extent", 2,
        write_record ^ extent_record ~offset:max_int ~count:5,
        Printf.sprintf "chunk 1: record 2: offset %d + count 5 overflows"
          max_int );
      ( "leftover bytes", 1, write_record ^ "\x00\x00",
        "chunk 1: 2 leftover bytes after last record" );
    ]

(* Bytes flipped or overwritten inside a valid chunk's payload, with the
   checksum recomputed so the damage reaches the record decoder: the
   reader must answer [Ok] or [Error], never raise. *)
let qcheck_decoder_never_raises =
  let whole =
    with_temp @@ fun path ->
    ignore (write_binary adversarial_records path);
    read_file path
  in
  (* The single chunk: marker, record count, payload length, checksum. *)
  let r = { Varint.data = whole; pos = String.length Codec.magic + 1 } in
  let nrecords = Varint.read r in
  let len = Varint.read r in
  let payload = String.sub whole (r.Varint.pos + 4) len in
  let edit_gen =
    QCheck.Gen.(triple (int_bound (len - 1)) bool (int_range 1 255))
  in
  let damage edits =
    let b = Bytes.of_string payload in
    List.iter
      (fun (i, flip, v) ->
        let c = if flip then Char.code (Bytes.get b i) lxor v else v in
        Bytes.set b i (Char.chr c))
      edits;
    chunk_trace ~nrecords (Bytes.to_string b)
  in
  QCheck.Test.make ~name:"decoder never raises on a damaged payload"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (triple int bool int))
       QCheck.Gen.(list_size (int_range 1 4) edit_gen))
    (fun edits ->
      with_temp @@ fun path ->
      write_file path (damage edits);
      match Tracefile.iter path ~f:ignore with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let golden_records () =
  let result =
    Runner.run ~nprocs:4 (List.hd Registry.all).Registry.body
  in
  result.Runner.records

(* Decoding allocates the record and little else: 17.7 words per record
   on this trace (the record block, its options and its argument list).
   The bound leaves headroom above that and sits far below the 334 words
   a decoder pays when it formats its error strings for every record and
   boxes every field in a [result]. *)
let decode_words_bound = 40.

let test_decode_allocation () =
  let records = List.concat (List.init 5 (fun _ -> golden_records ())) in
  with_temp @@ fun path ->
  ignore (write_binary records path);
  let before = Test_ownership.allocated_words () in
  let n =
    match Tracefile.iter path ~f:ignore with
    | Ok n -> n
    | Error e -> Alcotest.fail e
  in
  let per_record =
    (Test_ownership.allocated_words () -. before) /. float_of_int n
  in
  Alcotest.(check int) "records decoded" (List.length records) n;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per record <= %.0f" per_record
       decode_words_bound)
    true
    (per_record <= decode_words_bound)

(* Offset replay behind [Report.feed] keys its descriptor table without
   building a tuple, runs no closure per record and scans the open flags in
   place.  Decode plus feed measured 22.5 words per record on this trace
   (decode alone 17.7), where a replay that paid for all three measured
   25.3.  The rest is the resolved access each data record keeps. *)
let feed_words_bound = 24.

let test_feed_allocation () =
  let records = List.concat (List.init 5 (fun _ -> golden_records ())) in
  with_temp @@ fun path ->
  ignore (write_binary records path);
  let s = Report.stream () in
  let before = Test_ownership.allocated_words () in
  let n =
    match Tracefile.iter path ~f:(Report.feed s) with
    | Ok n -> n
    | Error e -> Alcotest.fail e
  in
  let per_record =
    (Test_ownership.allocated_words () -. before) /. float_of_int n
  in
  Printf.printf "decode and feed: %.1f words per record\n" per_record;
  Alcotest.(check int) "records fed" (List.length records) n;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per record <= %.0f" per_record feed_words_bound)
    true
    (per_record <= feed_words_bound)

(* Cross-format ------------------------------------------------------------- *)

let test_convert_golden () =
  (* text -> binary -> text must reproduce the text file byte for byte. *)
  let records = golden_records () in
  with_temp @@ fun text1 ->
  with_temp @@ fun binary ->
  with_temp @@ fun text2 ->
  Tracefile.save ~format:Tracefile.Text text1 records;
  (match Tracefile.convert ~src:text1 ~dst:binary Tracefile.Binary with
  | Ok n -> Alcotest.(check int) "records converted" (List.length records) n
  | Error e -> Alcotest.fail e);
  (match Tracefile.convert ~src:binary ~dst:text2 Tracefile.Text with
  | Ok n -> Alcotest.(check int) "records back" (List.length records) n
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "text roundtrip byte-identical" true
    (read_file text1 = read_file text2);
  Alcotest.(check bool) "binary is smaller than half the text" true
    (2 * String.length (read_file binary) < String.length (read_file text1))

let test_detect_format () =
  let records = [ sample () ] in
  with_temp @@ fun path ->
  Tracefile.save ~format:Tracefile.Text path records;
  Alcotest.(check bool) "text detected" true
    (Tracefile.detect_format path = Ok Tracefile.Text);
  Tracefile.save ~format:Tracefile.Binary path records;
  Alcotest.(check bool) "binary detected" true
    (Tracefile.detect_format path = Ok Tracefile.Binary);
  match Tracefile.detect_format "/nonexistent/hpcfs/trace" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing file"

let test_iter_streaming_counts () =
  let records = adversarial_records in
  with_temp @@ fun path ->
  Tracefile.save ~format:Tracefile.Binary path records;
  let seen = ref 0 in
  (match Tracefile.iter path ~f:(fun _ -> incr seen) with
  | Ok n ->
    Alcotest.(check int) "iter count" (List.length records) n;
    Alcotest.(check int) "callback count" (List.length records) !seen
  | Error e -> Alcotest.fail e);
  match Tracefile.fold path ~init:0 ~f:(fun acc _ -> acc + 1) with
  | Ok n -> Alcotest.(check int) "fold count" (List.length records) n
  | Error e -> Alcotest.fail e

(* Collector spill ---------------------------------------------------------- *)

let test_collector_spill_matches_memory () =
  with_temp @@ fun path ->
  let emits =
    List.concat_map
      (fun t -> [ (t, 1); (t + 100, 0) ])
      [ 9; 2; 7; 4; 11; 1; 3; 8 ]
  in
  let mem = Collector.create () in
  let disk = Collector.create ~spill:{ Collector.path; chunk_records = 4 } () in
  List.iter
    (fun (t, r) ->
      Collector.emit mem (sample ~time:t ~rank:r ());
      Collector.emit disk (sample ~time:t ~rank:r ()))
    emits;
  Alcotest.(check int) "counts agree" (Collector.count mem)
    (Collector.count disk);
  Alcotest.(check bool) "spill path" true (Collector.spill_path disk = Some path);
  Alcotest.(check bool) "records agree" true
    (Collector.records mem = Collector.records disk);
  Alcotest.(check bool) "by_rank agrees" true
    (Collector.by_rank mem = Collector.by_rank disk);
  (* The spill file itself is a valid binary trace in emission order. *)
  Collector.finish disk;
  (match Tracefile.load path with
  | Ok rs ->
    Alcotest.(check (list (pair int int))) "emission order" emits
      (List.map (fun r -> (r.Record.time, r.Record.rank)) rs)
  | Error e -> Alcotest.fail e);
  Collector.clear disk;
  Alcotest.(check int) "cleared" 0 (Collector.count disk);
  Collector.emit disk (sample ~time:42 ());
  Alcotest.(check (list int)) "usable after clear" [ 42 ]
    (List.map (fun r -> r.Record.time) (Collector.records disk))

(* Telemetry ---------------------------------------------------------------- *)

let test_codec_counters () =
  let sink = Obs.create () in
  let n = List.length adversarial_records in
  Obs.with_sink sink (fun () ->
      with_temp @@ fun path ->
      Tracefile.save ~format:Tracefile.Binary path adversarial_records;
      match Tracefile.load path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  let c name = Obs.find_counter sink ("trace.codec." ^ name) in
  Alcotest.(check int) "records_encoded" n (c "records_encoded");
  Alcotest.(check int) "records_decoded" n (c "records_decoded");
  Alcotest.(check bool) "bytes_encoded > 0" true (c "bytes_encoded" > 0);
  Alcotest.(check bool) "bytes_decoded > 0" true (c "bytes_decoded" > 0);
  Alcotest.(check int) "chunks round trip" (c "chunks_encoded")
    (c "chunks_decoded");
  Alcotest.(check bool) "interned strings" true (c "interned_strings" > 0);
  Alcotest.(check bool) "text equivalent measured" true
    (c "text_bytes" > c "bytes_encoded");
  Alcotest.(check int) "text equivalent is the text trace's size"
    (List.fold_left
       (fun n r -> n + String.length (Record.to_line r) + 1)
       0 adversarial_records)
    (c "text_bytes")

let test_spill_counter () =
  let sink = Obs.create () in
  with_temp @@ fun path ->
  Obs.with_sink sink (fun () ->
      let c =
        Collector.create ~spill:{ Collector.path; chunk_records = 2 } ()
      in
      for t = 1 to 7 do
        Collector.emit c (sample ~time:t ())
      done;
      Collector.finish c);
  Alcotest.(check int) "chunks_spilled" 4
    (Obs.find_counter sink "trace.codec.chunks_spilled")

(* Streaming analysis ------------------------------------------------------- *)

(* What [Report.analyze] must compute, composed from the batch building
   blocks over the whole access list: offset resolution, the naive
   all-pairs overlap scan, conflict filtering per model, whole-list
   sharing and pattern classification, the metadata inventory and the
   recommendation.  Nothing here goes through the per-file fold or the
   per-rank merge of the streaming path. *)
let reference ~nprocs records : Report.t =
  let resolved = Offsets.resolve records in
  let accesses = resolved.Offsets.accesses in
  let pairs = Overlap_ref.detect_naive accesses in
  let summary semantics =
    Conflict.summarize (Conflict.of_pairs semantics pairs)
  in
  let session = summary Conflict.Session_semantics in
  let commit = summary Conflict.Commit_semantics in
  let meta = Metadata_report.collector () in
  List.iter (Metadata_report.record meta) records;
  {
    Report.nprocs;
    record_count = List.length records;
    access_count = List.length accesses;
    skipped = resolved.Offsets.skipped;
    sharing = Sharing.classify ~nprocs accesses;
    local_mix = Pattern.local_mix accesses;
    global_mix = Pattern.global_mix accesses;
    session;
    commit;
    metadata = Metadata_report.usage meta;
    meta_counts = Metadata_report.counts meta;
    verdict = Recommend.of_summaries ~session ~commit;
  }

let check_analyze_equals_reference ~nprocs records =
  let expected = reference ~nprocs records in
  let got = Report.analyze ~nprocs records in
  Alcotest.(check string) "digest equal"
    (Format.asprintf "%a" Report.pp_digest expected)
    (Format.asprintf "%a" Report.pp_digest got);
  Alcotest.(check bool) "reports structurally equal" true (got = expected)

let test_analyze_equals_reference_apps () =
  List.iter
    (fun entry ->
      let result = Runner.run ~nprocs:4 entry.Registry.body in
      check_analyze_equals_reference ~nprocs:4 result.Runner.records)
    Registry.all

let test_analyze_equals_reference_edge_cases () =
  (* Unresolvable fds (skips), seeks, appends, truncation, read-only
     ranks; the corners of offset resolution. *)
  let t = ref 0 in
  let r ?rank ?file ?fd ?offset ?count ?args func =
    incr t;
    sample ~time:!t ?rank ?file ?fd ?offset ?count ?args ~func ()
  in
  let records =
    [
      r ~rank:0 ~file:"/log" ~fd:3 ~args:[ ("flags", "O_CREAT|O_APPEND") ]
        "open";
      r ~rank:0 ~fd:3 ~count:10 "write";
      r ~rank:1 ~fd:9 ~count:5 "write" (* no open: skipped *);
      r ~rank:1 ~file:"/log" ~fd:4 ~args:[ ("flags", "O_APPEND") ] "open";
      r ~rank:1 ~fd:4 ~count:7 "write";
      r ~rank:0 ~fd:3 ~offset:0 ~args:[ ("whence", "SEEK_SET") ] "lseek";
      r ~rank:0 ~fd:3 ~count:4 "read";
      r ~rank:0 ~fd:3 "fsync";
      r ~rank:1 ~fd:4 "close";
      r ~rank:0 ~fd:3 "close";
      r ~rank:2 ~file:"/log" "stat";
      r ~rank:2 ~file:"/log" ~count:6 "truncate";
    ]
  in
  check_analyze_equals_reference ~nprocs:3 records;
  (* Inferred rank count: max rank + 1. *)
  let s = Report.stream () in
  List.iter (Report.feed s) records;
  Alcotest.(check int) "inferred nprocs" 3 (Report.finish s).Report.nprocs;
  (* Empty trace. *)
  check_analyze_equals_reference ~nprocs:1 []

let test_stream_from_binary_file () =
  (* The acceptance path: records stream from a binary trace into the
     analyzer without ever forming a record list. *)
  let records = golden_records () in
  with_temp @@ fun path ->
  Tracefile.save ~format:Tracefile.Binary path records;
  let s = Report.stream ~nprocs:4 () in
  (match Tracefile.iter path ~f:(Report.feed s) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "streamed report equals the reference" true
    (Report.finish s = reference ~nprocs:4 records)

(* Generated workloads at small rank counts: shapes the catalogue lacks
   (mixed phases, random orders, read-back of another rank's blocks). *)
let qcheck_analyze_equals_reference =
  QCheck.Test.make ~name:"analyze = reference (generated)"
    ~count:200
    QCheck.(pair (int_range 1 6) Wl_gen.arbitrary)
    (fun (nprocs, w) ->
      let records = (Runner.run ~nprocs (Compile.body w)).Runner.records in
      Report.analyze ~nprocs records = reference ~nprocs records)

(* Malformed extents --------------------------------------------------------- *)

(* An open, then a data record whose extent no int can hold: a negative
   count, or an offset + count past [max_int].  Both formats refuse the
   second record with an error naming it, and the streaming analysis stops
   on that error instead of raising. *)
let bad_extents =
  let opened =
    sample ~time:1 ~func:"open" ~file:"/f" ~fd:3
      ~args:[ ("flags", "O_CREAT|O_WRONLY") ]
      ()
  in
  [
    ( "negative count",
      [
        opened;
        sample ~time:2 ~func:"pwrite" ~file:"/f" ~fd:3 ~offset:0 ~count:(-5) ();
      ] );
    ( "overflowing extent",
      [
        opened;
        sample ~time:2 ~func:"pwrite" ~file:"/f" ~fd:3 ~offset:max_int
          ~count:5 ();
      ] );
  ]

let test_bad_extents_refused () =
  List.iter
    (fun (what, records) ->
      let text = Tracefile.to_string records in
      (match Tracefile.of_string text with
      | Error msg ->
        (* Line 1 is the header comment. *)
        Alcotest.(check bool) (what ^ ": text error names line 3") true
          (contains msg "line 3")
      | Ok _ -> Alcotest.failf "%s: text trace accepted" what);
      let stream_error path =
        let s = Report.stream ~nprocs:2 () in
        match Tracefile.iter path ~f:(Report.feed s) with
        | Error msg -> msg
        | Ok _ -> Alcotest.failf "%s: stream accepted %s" what path
      in
      (with_temp @@ fun path ->
       write_file path text;
       Alcotest.(check bool) (what ^ ": text stream error names line 3") true
         (contains (stream_error path) "line 3"));
      with_temp @@ fun path ->
      ignore (write_binary records path);
      expect_load_error ~substring:"record 2" path (what ^ ": binary");
      Alcotest.(check bool) (what ^ ": binary stream error names record 2")
        true
        (contains (stream_error path) "record 2"))
    bad_extents

let test_seek_past_max_int_skipped () =
  (* A descriptor seeked to [max_int], then written: each record is well
     formed, but the implied extent ends past [max_int].  The analysis
     skips it rather than raising. *)
  let records =
    [
      sample ~time:1 ~func:"open" ~file:"/f" ~fd:3
        ~args:[ ("flags", "O_CREAT|O_WRONLY") ]
        ();
      sample ~time:2 ~func:"lseek" ~file:"/f" ~fd:3 ~offset:max_int
        ~args:[ ("whence", "SEEK_SET") ]
        ();
      sample ~time:3 ~func:"write" ~file:"/f" ~fd:3 ~count:5 ();
    ]
  in
  let s = Report.stream ~nprocs:1 () in
  List.iter (Report.feed s) records;
  let summary = Report.finish s in
  Alcotest.(check int) "skipped" 1 summary.Report.skipped;
  Alcotest.(check int) "no data access" 0 summary.Report.access_count

(* A rank count below the trace's own must be refused before the analysis
   runs: the fold would otherwise classify the trace as if some of its
   ranks did not exist.  The 4-rank golden run streams from a binary
   file, as [hpcfs_analyze analyze] reads it. *)
let test_stream_refuses_too_few_ranks () =
  let records = golden_records () in
  with_temp @@ fun path ->
  Tracefile.save ~format:Tracefile.Binary path records;
  let check_with nprocs =
    let s = Report.stream ?nprocs () in
    (match Tracefile.iter path ~f:(Report.feed s) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    Report.check_ranks s
  in
  (match check_with (Some 2) with
  | Error msg ->
    Alcotest.(check bool) ("names both counts: " ^ msg) true
      (contains msg "4 ranks" && contains msg "2 given")
  | Ok () -> Alcotest.fail "--ranks 2 accepted for a 4-rank trace");
  List.iter
    (fun nprocs ->
      Alcotest.(check bool) "enough ranks accepted" true
        (check_with nprocs = Ok ()))
    [ Some 4; Some 8; None ]

let suite =
  [
    Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "varint zigzag" `Quick test_varint_zigzag;
    Alcotest.test_case "varint errors" `Quick test_varint_errors;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec chunked roundtrip" `Quick
      test_codec_chunked_roundtrip;
    Alcotest.test_case "codec empty trace" `Quick test_codec_empty_trace;
    Alcotest.test_case "codec deterministic" `Quick test_codec_deterministic;
    Alcotest.test_case "decoder bad magic" `Quick test_decoder_bad_magic;
    Alcotest.test_case "decoder unknown version" `Quick
      test_decoder_unknown_version;
    Alcotest.test_case "decoder truncations" `Quick test_decoder_truncations;
    Alcotest.test_case "decoder checksum mismatch" `Quick
      test_decoder_checksum_mismatch;
    Alcotest.test_case "decoder payload past EOF" `Quick
      test_decoder_payload_past_eof;
    Alcotest.test_case "decoder malformed records" `Quick
      test_decoder_malformed_records;
    QCheck_alcotest.to_alcotest qcheck_decoder_never_raises;
    Alcotest.test_case "decode allocation" `Quick test_decode_allocation;
    Alcotest.test_case "decode and feed allocation" `Quick
      test_feed_allocation;
    Alcotest.test_case "convert golden" `Quick test_convert_golden;
    Alcotest.test_case "detect format" `Quick test_detect_format;
    Alcotest.test_case "iter/fold stream" `Quick test_iter_streaming_counts;
    Alcotest.test_case "collector spill" `Quick
      test_collector_spill_matches_memory;
    Alcotest.test_case "codec counters" `Quick test_codec_counters;
    Alcotest.test_case "spill counter" `Quick test_spill_counter;
    Alcotest.test_case "analyze = reference (apps)" `Quick
      test_analyze_equals_reference_apps;
    Alcotest.test_case "analyze = reference (edge cases)" `Quick
      test_analyze_equals_reference_edge_cases;
    Alcotest.test_case "stream from binary file" `Quick
      test_stream_from_binary_file;
    QCheck_alcotest.to_alcotest qcheck_analyze_equals_reference;
    QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_adler32_definition;
    Alcotest.test_case "adler32 block edges" `Quick test_adler32_block_edges;
    QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
    Alcotest.test_case "bad extents refused" `Quick test_bad_extents_refused;
    Alcotest.test_case "seek past max_int skipped" `Quick
      test_seek_past_max_int_skipped;
    Alcotest.test_case "stream refuses too few ranks" `Quick
      test_stream_refuses_too_few_ranks;
  ]
