module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Namespace = Hpcfs_fs.Namespace
module Fdata = Hpcfs_fs.Fdata
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

let reference_run ?seed ~nprocs body =
  Runner.run ~semantics:Consistency.Strong ~nprocs ?seed body

(* By path: a crash without restart can leave reference files missing
   from the candidate, which counts as corruption like a differing
   digest. *)
let outcome_of ~reference model result =
  let digests = Hashtbl.of_seq (List.to_seq (final_digests result)) in
  let differs (path, d) = Hashtbl.find_opt digests path <> Some d in
  {
    semantics = model;
    stale_reads = Runner.stale_reads result;
    corrupted_files = List.length (List.filter differs reference);
    files = List.length reference;
  }

let run_against ~reference ~nprocs ?local_order ?tier ?wal ?faults model body
    =
  Obs.span Obs.T_core ("validate." ^ Consistency.key model) @@ fun () ->
  outcome_of ~reference model
    (Runner.run ~semantics:model ?local_order ~nprocs ?tier ?wal ?faults body)

let engines = [ Consistency.Strong; Consistency.Commit; Consistency.Session ]

(* A direct, unfaulted run of the engine that publishes every write on
   arrival is the strong reference run itself. *)
let is_reference ?tier ?wal ?faults model =
  Consistency.publication model = On_arrival
  && Option.(is_none tier && is_none wal && is_none faults)

let with_obs obs go =
  match obs with None -> go () | Some sink -> Obs.with_sink sink go

let validate ?obs ?(nprocs = 64) ?(semantics = engines) ?tier ?wal ?faults
    body =
  with_obs obs @@ fun () ->
  (* The reference is the direct, unfaulted strong candidate: its outcome
     is taken here, so the reference run is unreachable while the other
     candidates run. *)
  let reference, stale_reads =
    let r =
      Obs.span Obs.T_core "validate.reference" (fun () ->
          reference_run ~nprocs body)
    in
    (final_digests r, Runner.stale_reads r)
  in
  List.map
    (fun model ->
      if is_reference ?tier ?wal ?faults model then
        {
          semantics = model;
          stale_reads;
          corrupted_files = 0;
          files = List.length reference;
        }
      else run_against ~reference ~nprocs ?tier ?wal ?faults model body)
    semantics

(* Crash-consistency report: the same app and fault plan, once per
   consistency engine, each compared after recovery against the fault-free
   strong reference. *)
let crash_report ?obs ?(nprocs = 64) ?(semantics = engines) ?tier ?wal ~app
    ~plan body =
  with_obs obs @@ fun () ->
  let reference =
    final_digests
      (Obs.span Obs.T_core "faults.reference" (fun () ->
           reference_run ~nprocs body))
  in
  List.map
    (fun model ->
      Obs.span Obs.T_core ("faults." ^ Consistency.key model) @@ fun () ->
      let result =
        Runner.run ~semantics:model ~nprocs ?tier ?wal ~faults:plan body
      in
      let o = outcome_of ~reference model result in
      Hpcfs_fault.Report.row_of_outcome ~app
        ~semantics:(Consistency.to_string model) ~post_files:o.files
        ~post_corrupted:o.corrupted_files
        (Option.get result.Runner.faults))
    semantics

let validate_burstfs ?(nprocs = 64) body =
  let reference = final_digests (reference_run ~nprocs body) in
  let run = run_against ~reference ~nprocs in
  let commit = run Consistency.Commit body in
  (commit, run ~local_order:false Consistency.Commit body)
