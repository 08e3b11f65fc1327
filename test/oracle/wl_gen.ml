module Workload = Hpcfs_wl.Workload
open Workload
module Gen = QCheck.Gen

let layout_gen = Gen.oneofl [ Shared; File_per_process ]
let order_gen = Gen.oneofl [ Consecutive; Strided; Segmented; Random ]
let block_gen = Gen.oneofl [ 64; 256; 512; 1024 ]

let write_gen =
  let open Gen in
  let* layout = layout_gen in
  let* order = order_gen in
  let* block = block_gen in
  let* count = int_range 1 6 in
  let* ranks = oneof [ return None; map (fun k -> Some (k + 1)) (int_bound 3) ] in
  let* file = oneofl [ "f0"; "f1"; "f2" ] in
  let* sync = oneofl [ Sync_none; Fsync; Close ] in
  return { layout; order; block; count; ranks; file; sync }

(* A read re-targets the (layout, file, ranks) of an earlier write, so the
   paths it opens were created; the access shape is free.  [fsync] makes no
   sense on a read-only descriptor, so reads only keep or close theirs. *)
let read_gen written =
  let open Gen in
  let* w = oneofl written in
  let* order = order_gen in
  let* block = block_gen in
  let* count = int_range 1 6 in
  let* sync = oneofl [ Sync_none; Close ] in
  return { w with order; block; count; sync }

let checkpoint_gen =
  let open Gen in
  let* io = write_gen in
  let* steps = int_range 1 8 in
  let* every = int_range 1 steps in
  return (Checkpoint { io = { io with file = "ck-" ^ io.file }; steps; every })

(* Metadata bursts are failure-tolerant by construction (a stat of a file
   nobody created is swallowed), so any op sequence is valid. *)
let meta_gen =
  let open Gen in
  let* op =
    oneofl [ Mcreate; Mstat; Mreaddir; Munlink; Mmkdir; Mrename ]
  in
  let* files = int_range 1 8 in
  let* layout = layout_gen in
  let* dir = oneofl [ "m0"; "m1" ] in
  let* ranks = oneof [ return None; map (fun k -> Some (k + 1)) (int_bound 3) ] in
  return (Meta { m_op = op; m_files = files; m_layout = layout; m_dir = dir;
                 m_ranks = ranks })

(* Mix branches execute probabilistically, so a write inside one cannot
   guarantee its file exists for later reads — branch writes stay out of
   the [written] pool and branch reads only re-target files a top-level
   write already created. *)
let mix_gen written =
  let open Gen in
  let* draws = int_range 1 6 in
  let* n = int_range 1 3 in
  let branch_gen =
    let* weight = int_range 1 3 in
    let* p =
      oneof
        ([ map (fun io -> Write io) write_gen;
           map (fun k -> Compute k) (int_range 1 2); return Barrier ]
        @
        if written <> [] then [ map (fun io -> Read io) (read_gen written) ]
        else [])
    in
    return (weight, p)
  in
  let* branches = list_repeat n branch_gen in
  return (Mix { draws; branches })

let phases_gen =
  let open Gen in
  let* n = int_range 1 6 in
  let rec build i written acc =
    if i = n then return (List.rev acc)
    else
      let* choice =
        frequency
          [ (4, return `W); (3, return `R); (2, return `C); (1, return `B);
            (1, return `K); (2, return `M); (2, return `X) ]
      in
      match choice with
      | `R when written <> [] ->
        let* io = read_gen written in
        build (i + 1) written (Read io :: acc)
      | `W | `R ->
        (* a read with nothing written yet degrades to a write *)
        let* io = write_gen in
        build (i + 1) (io :: written) (Write io :: acc)
      | `C ->
        let* steps = int_range 1 3 in
        build (i + 1) written (Compute steps :: acc)
      | `B -> build (i + 1) written (Barrier :: acc)
      | `K ->
        let* ck = checkpoint_gen in
        build (i + 1) written (ck :: acc)
      | `M ->
        let* m = meta_gen in
        build (i + 1) written (m :: acc)
      | `X ->
        let* m = mix_gen written in
        build (i + 1) written (m :: acc)
  in
  build 0 [] []

let gen =
  let open Gen in
  let* phases = phases_gen in
  return { name = "soak"; phases }

let arbitrary = QCheck.make ~print:to_string gen
