(* Workload DSL: parser (including its locked error messages), printer
   roundtrip, compilation through the full simulator stack, equivalence of
   re-expressed application models with their hand-written bodies, the
   what-if sweep engine, and a generated-workload soak over every
   consistency engine. *)

module Workload = Hpcfs_wl.Workload
module Compile = Hpcfs_wl.Compile
module Wl_gen = Hpcfs_oracle.Wl_gen
module Sweep = Hpcfs_wl.Sweep
module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Report = Hpcfs_core.Report
module Sharing = Hpcfs_core.Sharing
module Conflict = Hpcfs_core.Conflict
module Consistency = Hpcfs_fs.Consistency

let nprocs = 16

let wl spec =
  match Workload.of_string spec with
  | Ok w -> w
  | Error e -> Alcotest.failf "parse %S: %s" spec e

(* Parser ------------------------------------------------------------------- *)

let test_parse_roundtrip_canonical () =
  (* Defaults are omitted by the printer, everything else survives. *)
  List.iter
    (fun spec ->
      Alcotest.(check string) spec spec (Workload.to_string (wl spec)))
    [
      "write";
      "write:layout=fpp,block=1024,count=9";
      "write:pattern=strided,count=3";
      "read:count=2,sync=none";
      "write:pattern=segmented,ranks=4,file=log";
      "checkpoint:steps=100,every=20,pattern=strided";
      "write;barrier;read";
      "compute";
      "compute:n=3";
      "mix:n=8|3*write:layout=fpp|1*read|2*compute";
      "mix:n=2|1*barrier|1*checkpoint:steps=4,every=2";
      "write;mix:n=4|2*write:pattern=strided|1*read;barrier";
    ]

let test_mix_defaults () =
  (* Omitted n and weights come back as the canonical explicit form. *)
  Alcotest.(check string) "defaults made explicit"
    "mix:n=8|1*write|1*read"
    (Workload.to_string (wl "mix:write|read"));
  match (wl "mix:write").Workload.phases with
  | [ Workload.Mix { draws = 8; branches = [ (1, Workload.Write _) ] } ] -> ()
  | _ -> Alcotest.fail "default draws/weight"

let test_parse_aliases_and_case () =
  Alcotest.(check string) "ckpt alias"
    (Workload.to_string (wl "checkpoint:steps=20,every=10"))
    (Workload.to_string (wl "ckpt:steps=20,every=10"));
  Alcotest.(check string) "heads are case-insensitive"
    (Workload.to_string (wl "write:layout=fpp"))
    (Workload.to_string (wl "WRITE:layout=FPP"))

let err spec =
  match Workload.of_string spec with
  | Ok _ -> Alcotest.failf "parse %S: expected an error" spec
  | Error e -> e

(* The messages are the DSL's user interface: name the offending token and
   list what the grammar accepts. *)
let test_parse_errors () =
  let check what want spec =
    Alcotest.(check string) what want (err spec)
  in
  check "unknown phase"
    "unknown workload phase \"frobnicate\"; expected write, read, \
     checkpoint, meta, barrier, compute or mix"
    "frobnicate";
  check "unknown key"
    "write: unknown key \"bogus\" (accepted: layout, pattern, block, count, \
     ranks, file, sync)"
    "write:bogus=1";
  check "bad integer" "write: block: not an integer: \"abc\""
    "write:block=abc";
  check "bad enum"
    "write: layout: expected one of shared, fpp, got \"weird\""
    "write:layout=weird";
  check "missing =" "read: expected key=value, got \"count\"" "read:count";
  check "barrier takes no keys" "barrier: takes no keys, got \"x=1\""
    "barrier:x=1";
  check "empty" "empty workload spec" "  ;  ";
  check "zero block" "write: block must be positive, got 0" "write:block=0";
  check "zero compute" "compute: n must be positive, got 0" "compute:n=0";
  check "file with slash" "write: file must be a plain name, got \"a/b\""
    "write:file=a/b";
  check "checkpoint cadence"
    "checkpoint: every must be positive, got 0"
    "checkpoint:every=0";
  check "meta bad op"
    "meta: op: expected one of create, stat, readdir, unlink, mkdir, \
     rename, got \"chmod\""
    "meta:op=chmod";
  check "meta bad layout"
    "meta: layout: expected one of shared-dir, fpp, got \"shared\""
    "meta:layout=shared";
  check "meta zero files" "meta: files must be positive, got 0"
    "meta:files=0";
  check "meta dir with slash" "meta: dir must be a plain name, got \"a/b\""
    "meta:dir=a/b";
  check "mix zero draws" "mix: n must be positive, got 0" "mix:n=0|write";
  check "mix no branches" "mix: needs at least one branch" "mix:n=4";
  check "mix zero weight" "mix: weight must be positive, got 0"
    "mix:n=2|0*write";
  check "mix weight overflow"
    "mix: weight: not an integer: \"99999999999999999999\""
    "mix:99999999999999999999*write:count=1";
  (* '|' binds to the outermost mix, so a nested mix can never textually
     parse: the inner head is left with no branches of its own. *)
  check "mix nested" "mix: needs at least one branch" "mix:n=2|2*mix|write";
  (let nested =
     Workload.make
       [ Workload.mix [ (1, Workload.mix [ (1, Workload.barrier) ]) ] ]
   in
   match Workload.validate nested with
   | Error e ->
     Alcotest.(check string) "mix nested (combinator)"
       "mix: branches cannot nest mix" e
   | Ok _ -> Alcotest.fail "nested mix: expected an error");
  check "mix bad branch"
    "unknown workload phase \"frob\"; expected write, read, checkpoint, \
     meta, barrier, compute or mix"
    "mix:n=2|frob";
  check "mix bad n" "mix: n: not an integer: \"x\"" "mix:n=x|write"

(* The engine-spec parser the CLI delegates to (satellite of the same spec
   family): eventual takes an explicit delay instead of a hard-coded one. *)
let test_engine_specs () =
  let ok = Alcotest.(check bool) in
  ok "eventual:delay=3" true
    (Consistency.of_string "eventual:delay=3"
    = Ok (Consistency.Eventual { delay = 3 }));
  ok "eventual:7" true
    (Consistency.of_string "eventual:7" = Ok (Consistency.Eventual { delay = 7 }));
  ok "eventual default" true
    (Consistency.of_string "eventual"
    = Ok (Consistency.Eventual { delay = Consistency.default_eventual_delay }));
  let error s =
    match Consistency.of_string s with
    | Ok _ -> Alcotest.failf "engine %S: expected an error" s
    | Error e -> e
  in
  Alcotest.(check string) "bad delay value"
    "eventual: delay: not an integer: \"x\"" (error "eventual:delay=x");
  Alcotest.(check string) "bad delay key"
    "eventual: unknown key \"wat\" (accepted: delay)" (error "eventual:wat=1");
  Alcotest.(check string) "negative delay"
    "eventual: delay must be >= 0, got -1" (error "eventual:delay=-1");
  Alcotest.(check string) "unknown engine"
    "unknown consistency engine \"weak\" (expected strong, commit, session \
     or eventual[:delay=N])"
    (error "weak");
  (match Consistency.list_of_string "strong, eventual:delay=2" with
  | Ok [ Consistency.Strong; Consistency.Eventual { delay = 2 } ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "list_of_string");
  Alcotest.(check bool) "empty list" true
    (Consistency.list_of_string " , " = Error "empty consistency-engine list")

(* Printer/parser agreement on generated workloads. *)
let qcheck_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:300
    Wl_gen.arbitrary (fun w ->
      match Workload.of_string (Workload.to_string w) with
      | Ok w' -> w'.Workload.phases = w.Workload.phases
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

(* Re-expressed models ------------------------------------------------------ *)

(* Three hand-written models of the catalogue restated as one-line DSL
   specs.  The compiled workload must classify exactly as the paper's
   tables say the hand-written body does: same X-Y pattern, same structure,
   same session conflict matrix. *)
let reexpressed =
  [
    ( "HACC-IO-POSIX",
      "write:layout=fpp,block=1024,count=9" );
    ( "ParaDiS-POSIX",
      "write:layout=shared,pattern=strided,block=512,count=3" );
    ( "pF3D-IO",
      "write:layout=fpp,count=33,sync=none; read:layout=fpp,count=1,sync=close"
    );
  ]

let matrix_of_summary (s : Conflict.summary) =
  {
    Registry.waw_s = s.Conflict.waw_s > 0;
    waw_d = s.Conflict.waw_d > 0;
    raw_s = s.Conflict.raw_s > 0;
    raw_d = s.Conflict.raw_d > 0;
  }

let test_reexpressed (label, spec) () =
  let entry =
    match Registry.find label with
    | Some e -> e
    | None -> Alcotest.failf "no catalogue entry %s" label
  in
  let w = wl spec in
  let result = Runner.run ~nprocs (Compile.body w) in
  let report = Report.analyze ~nprocs result.Runner.records in
  Alcotest.(check string) "X-Y pattern" entry.Registry.expected_xy
    (Sharing.xy_name report.Report.sharing.Sharing.xy);
  Alcotest.(check string) "structure" entry.Registry.expected_structure
    (Sharing.structure_name report.Report.sharing.Sharing.structure);
  let expected =
    match entry.Registry.expected_conflicts with
    | Some c -> c
    | None -> Alcotest.failf "%s has no Table 4 row" label
  in
  let got = matrix_of_summary report.Report.session in
  Alcotest.(check bool) "WAW-S" expected.Registry.waw_s got.Registry.waw_s;
  Alcotest.(check bool) "WAW-D" expected.Registry.waw_d got.Registry.waw_d;
  Alcotest.(check bool) "RAW-S" expected.Registry.raw_s got.Registry.raw_s;
  Alcotest.(check bool) "RAW-D" expected.Registry.raw_d got.Registry.raw_d

(* Registry glue ------------------------------------------------------------ *)

let test_dynamic_entry () =
  let w = wl "write:pattern=strided" in
  let entry = Compile.entry { w with Workload.name = "probe" } in
  Alcotest.(check string) "label" "wl:probe" (Registry.label entry);
  Alcotest.(check bool) "outside Table 4" true
    (entry.Registry.expected_conflicts = None);
  (* The synthetic entry runs like any catalogued one. *)
  let result = Runner.run ~nprocs:4 entry.Registry.body in
  Alcotest.(check bool) "traced" true (result.Runner.records <> [])

(* Mix execution ------------------------------------------------------------ *)

(* The branch stream is shared by every rank, so a mix over collective
   branches (shared-file creation, barriers) runs without deadlock on the
   cooperative scheduler, and the same seed reproduces the run bit for
   bit.  Different seeds draw different branch sequences. *)
let test_mix_execution () =
  let w =
    wl "write:count=2;mix:n=6|2*write:layout=shared,count=2|1*barrier|1*read"
  in
  let body = Compile.body w in
  let digest seed =
    let result = Runner.run ~nprocs:8 ~seed body in
    (result.Runner.records, Validation.final_digests result)
  in
  Alcotest.(check bool) "same seed, same run" true (digest 7 = digest 7);
  let records seed = fst (digest seed) in
  Alcotest.(check bool) "different seeds draw differently" true
    (records 7 <> records 8);
  (* A checkpoint-plus-reader mix validates like any other workload. *)
  let outcomes =
    Validation.validate ~nprocs:8
      ~semantics:[ Consistency.Strong; Consistency.Session ]
      body
  in
  match outcomes with
  | [ strong; _ ] ->
    Alcotest.(check bool) "strong correct" true (Validation.correct strong)
  | _ -> Alcotest.fail "expected two outcomes"

(* Sweep engine ------------------------------------------------------------- *)

let small_grid =
  {
    Sweep.default_grid with
    Sweep.ranks = [ 2; 4 ];
    workloads =
      [
        ("overlap", wl "write:layout=shared,pattern=consecutive,count=2");
        ("fpp", wl "write:layout=fpp,count=2,sync=none; read:layout=fpp");
      ];
  }

let test_sweep_grid () =
  let rows = Sweep.run small_grid in
  Alcotest.(check int) "cells" (Sweep.cells small_grid) (List.length rows);
  Alcotest.(check int) "2 ranks x 2 workloads x 4 engines" 16
    (List.length rows);
  (* Every engine appears for every workload/scale combination. *)
  List.iter
    (fun engine ->
      Alcotest.(check int)
        (engine ^ " rows") 4
        (List.length
           (List.filter (fun r -> r.Sweep.engine = engine) rows)))
    [ "strong"; "commit"; "session"; "eventual:16" ];
  (* The overlapping N-1 workload shows different-process WAWs; the
     file-per-process one is private per rank and shows same-process RAWs. *)
  List.iter
    (fun r ->
      match r.Sweep.workload with
      | "overlap" ->
        Alcotest.(check string) "overlap xy" "N-1" r.Sweep.xy;
        Alcotest.(check bool) "overlap WAW-D" true
          (String.length r.Sweep.session_matrix >= 3
          && String.sub r.Sweep.session_matrix 2 1 <> "0")
      | _ -> Alcotest.(check string) "fpp xy" "N-N" r.Sweep.xy)
    rows

let test_sweep_deterministic () =
  let csv rows = List.map Sweep.row_csv rows in
  let a = csv (Sweep.run ~seed:7 small_grid) in
  let b = csv (Sweep.run ~seed:7 small_grid) in
  Alcotest.(check (list string)) "same seed, same CSV" a b;
  (* The CSV is the determinism artifact: no wall-clock column. *)
  List.iter
    (fun line ->
      Alcotest.(check int) "csv fields" 12
        (List.length (String.split_on_char ',' line)))
    a;
  Alcotest.(check int) "header fields" 12
    (List.length (String.split_on_char ',' Sweep.csv_header))

(* Soak --------------------------------------------------------------------- *)

(* Whole-stack soak: any generated workload compiles, runs and validates
   under all four engines, and the same seed reproduces the run bit for
   bit. *)
let qcheck_soak =
  QCheck.Test.make ~name:"generated workloads run under every engine"
    ~count:25 Wl_gen.arbitrary (fun w ->
        (match Workload.validate w with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "generated invalid: %s" e);
      let body = Compile.body w in
      let outcomes =
        Validation.validate ~nprocs:6
          ~semantics:
            [
              Consistency.Strong;
              Consistency.Commit;
              Consistency.Session;
              Consistency.Eventual { delay = 4 };
            ]
          body
      in
      if List.length outcomes <> 4 then
        QCheck.Test.fail_report "expected one outcome per engine";
      (* Strong vs strong is self-comparison: never stale, never corrupt. *)
      (match outcomes with
      | strong :: _ when not (Validation.correct strong) ->
        QCheck.Test.fail_report "strong run disagreed with itself"
      | _ -> ());
      let digest () =
        let result = Runner.run ~nprocs:6 ~seed:11 body in
        (result.Runner.records, Validation.final_digests result)
      in
      digest () = digest ())

let suite =
  [
    Alcotest.test_case "canonical printing roundtrip" `Quick
      test_parse_roundtrip_canonical;
    Alcotest.test_case "aliases and case" `Quick test_parse_aliases_and_case;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "mix defaults" `Quick test_mix_defaults;
    Alcotest.test_case "mix execution" `Quick test_mix_execution;
    Alcotest.test_case "engine specs" `Quick test_engine_specs;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "re-express HACC-IO-POSIX" `Quick
      (test_reexpressed (List.nth reexpressed 0));
    Alcotest.test_case "re-express ParaDiS-POSIX" `Quick
      (test_reexpressed (List.nth reexpressed 1));
    Alcotest.test_case "re-express pF3D-IO" `Quick
      (test_reexpressed (List.nth reexpressed 2));
    Alcotest.test_case "dynamic registry entry" `Quick test_dynamic_entry;
    Alcotest.test_case "sweep grid shape" `Quick test_sweep_grid;
    Alcotest.test_case "sweep determinism" `Quick test_sweep_deterministic;
    QCheck_alcotest.to_alcotest qcheck_soak;
  ]
