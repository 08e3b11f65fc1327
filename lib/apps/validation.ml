module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Namespace = Hpcfs_fs.Namespace
module Fdata = Hpcfs_fs.Fdata
module Tier = Hpcfs_bb.Tier
module Wal = Hpcfs_wal.Wal
module Obs = Hpcfs_obs.Obs

let sem_name = Consistency.to_string

type outcome = {
  semantics : Consistency.t;
  stale_reads : int;
  corrupted_files : int;
  files : int;
}

let correct o = o.stale_reads = 0 && o.corrupted_files = 0

(* Final contents of every regular file, as a fresh post-run observer. *)
let final_digests result =
  let pfs = result.Runner.pfs in
  let files = Namespace.all_files (Pfs.namespace pfs) in
  (* Any time beyond the run works; read_back bumps it internally. *)
  let time = 1 lsl 40 in
  List.map
    (fun path ->
      let r = Pfs.read_back pfs ~time path in
      (path, Digest.bytes r.Fdata.data))
    files

let run_against ~reference_digests ~nprocs ?(local_order = true) ?tier ?wal
    ?faults model body =
  Obs.span Obs.T_core ("validate." ^ Consistency.key model) @@ fun () ->
  let result =
    Runner.run ~semantics:model ~local_order ~nprocs ?tier ?wal ?faults body
  in
  let digests = final_digests result in
  let corrupted =
    List.fold_left2
      (fun acc (path_a, digest_a) (path_b, digest_b) ->
        assert (path_a = path_b);
        if digest_a = digest_b then acc else acc + 1)
      0 reference_digests digests
  in
  (* In a tiered run the application observes the tier's composite reads,
     not the raw PFS reads underneath them, so staleness is the tier's. *)
  let stale_reads =
    match (result.Runner.tier, result.Runner.wal) with
    | Some t, _ -> (Tier.stats t).Tier.stale_reads
    | None, Some w -> (Wal.stats w).Wal.stale_reads
    | None, None -> result.Runner.stats.Pfs.stale_reads
  in
  {
    semantics = model;
    stale_reads;
    corrupted_files = corrupted;
    files = List.length digests;
  }

let validate ?obs ?(nprocs = 64)
    ?(semantics = [ Consistency.Strong; Consistency.Commit; Consistency.Session ])
    ?tier ?wal ?faults body =
  let go () =
    let reference =
      Obs.span Obs.T_core "validate.reference" (fun () ->
          Runner.run ~semantics:Consistency.Strong ~nprocs body)
    in
    let reference_digests = final_digests reference in
    List.map
      (fun model ->
        run_against ~reference_digests ~nprocs ?tier ?wal ?faults model body)
      semantics
  in
  match obs with None -> go () | Some sink -> Obs.with_sink sink go

(* Crash-consistency report: the same app and fault plan, once per
   consistency engine, each compared after recovery against the fault-free
   strong reference. *)
let crash_report ?obs ?(nprocs = 64)
    ?(semantics = [ Consistency.Strong; Consistency.Commit; Consistency.Session ])
    ?tier ?wal ~app ~plan body =
  let go () =
    let reference =
      Obs.span Obs.T_core "faults.reference" (fun () ->
          Runner.run ~semantics:Consistency.Strong ~nprocs body)
    in
    let reference_digests = final_digests reference in
    List.map
      (fun model ->
        Obs.span Obs.T_core ("faults." ^ Consistency.key model) @@ fun () ->
        let result =
          Runner.run ~semantics:model ~nprocs ?tier ?wal ~faults:plan body
        in
        let digests = final_digests result in
        (* A crash without restart can leave files missing entirely, so
           compare by path rather than zipping the lists. *)
        let post_corrupted =
          List.fold_left
            (fun acc (path, ref_digest) ->
              match List.assoc_opt path digests with
              | Some d when d = ref_digest -> acc
              | Some _ | None -> acc + 1)
            0 reference_digests
        in
        let outcome =
          match result.Runner.faults with
          | Some o -> o
          | None -> assert false (* a plan was given *)
        in
        Hpcfs_fault.Report.row_of_outcome ~app
          ~semantics:(Consistency.to_string model)
          ~post_files:(List.length reference_digests) ~post_corrupted outcome)
      semantics
  in
  match obs with None -> go () | Some sink -> Obs.with_sink sink go

let validate_burstfs ?(nprocs = 64) body =
  let reference = Runner.run ~semantics:Consistency.Strong ~nprocs body in
  let reference_digests = final_digests reference in
  run_against ~reference_digests ~nprocs ~local_order:false Consistency.Commit
    body
