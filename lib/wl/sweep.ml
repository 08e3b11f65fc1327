module Consistency = Hpcfs_fs.Consistency
module Pfs = Hpcfs_fs.Pfs
module Tier = Hpcfs_bb.Tier
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Report = Hpcfs_core.Report
module Sharing = Hpcfs_core.Sharing
module Conflict = Hpcfs_core.Conflict

type grid = {
  ranks : int list;
  workloads : (string * Workload.t) list;
  engines : Hpcfs_fs.Consistency.t list;
  tiers : (string * Hpcfs_bb.Tier.config option) list;
  plans : (string * Hpcfs_fault.Plan.t option) list;
}

let default_grid =
  {
    ranks = [ 8 ];
    workloads = [];
    engines =
      [
        Consistency.Strong;
        Consistency.Commit;
        Consistency.Session;
        Consistency.Eventual { delay = Consistency.default_eventual_delay };
      ];
    tiers = [ ("direct", None) ];
    plans = [ ("none", None) ];
  }

type row = {
  ranks : int;
  workload : string;
  engine : string;
  tier : string;
  plan : string;
  xy : string;
  structure : string;
  session_matrix : string;
  commit_matrix : string;
  stale_reads : int;
  corrupted : int;
  files : int;
  wall_s : float;
}

let cells (g : grid) =
  List.length g.ranks * List.length g.workloads * List.length g.engines
  * List.length g.tiers * List.length g.plans

let matrix (s : Conflict.summary) =
  Printf.sprintf "%d/%d/%d/%d" s.Conflict.waw_s s.Conflict.waw_d
    s.Conflict.raw_s s.Conflict.raw_d

let run ?(progress = fun _ -> ()) ?(seed = 42) ?domains (g : grid) =
  (* One fault-free strong reference per (workload, scale), shared by
     every engine/tier/plan cell that compares against it. *)
  let refs = Hashtbl.create 8 in
  let reference name w nprocs =
    match Hashtbl.find_opt refs (name, nprocs) with
    | Some d -> d
    | None ->
      let r =
        Runner.run ~semantics:Consistency.Strong ~nprocs ~seed ?domains
          (Compile.body w)
      in
      let d = Validation.final_digests r in
      Hashtbl.replace refs (name, nprocs) d;
      d
  in
  List.concat_map
    (fun nprocs ->
      List.concat_map
        (fun (wname, w) ->
          List.concat_map
            (fun engine ->
              List.concat_map
                (fun (tname, tier) ->
                  List.map
                    (fun (pname, plan) ->
                      progress
                        (Printf.sprintf "%s ranks=%d %s %s %s" wname nprocs
                           (Consistency.to_string engine) tname pname);
                      let t0 = Sys.time () in
                      let result =
                        Runner.run ~semantics:engine ~local_order:true ~nprocs
                          ~seed ?domains ?tier ?faults:plan (Compile.body w)
                      in
                      let wall_s = Sys.time () -. t0 in
                      let report =
                        Report.analyze ~nprocs result.Runner.records
                      in
                      let sharing = report.Report.sharing in
                      let digests = Validation.final_digests result in
                      let reference_digests = reference wname w nprocs in
                      (* Compare by path: a crashed cell can leave files
                         missing entirely, which counts as corruption. *)
                      let corrupted =
                        List.fold_left
                          (fun acc (path, ref_digest) ->
                            match List.assoc_opt path digests with
                            | Some d when d = ref_digest -> acc
                            | Some _ | None -> acc + 1)
                          0 reference_digests
                      in
                      let stale_reads =
                        match result.Runner.tier with
                        | Some t -> (Tier.stats t).Tier.stale_reads
                        | None -> result.Runner.stats.Pfs.stale_reads
                      in
                      {
                        ranks = nprocs;
                        workload = wname;
                        engine = Consistency.to_string engine;
                        tier = tname;
                        plan = pname;
                        xy = Sharing.xy_name sharing.Sharing.xy;
                        structure =
                          Sharing.structure_name sharing.Sharing.structure;
                        session_matrix =
                          matrix (Report.session_summary report);
                        commit_matrix = matrix (Report.commit_summary report);
                        stale_reads;
                        corrupted;
                        files = List.length reference_digests;
                        wall_s;
                      })
                    g.plans)
                g.tiers)
            g.engines)
        g.workloads)
    g.ranks

let columns =
  [
    "workload";
    "ranks";
    "engine";
    "tier";
    "plan";
    "x-y";
    "structure";
    "session WsWdRsRd";
    "commit WsWdRsRd";
    "stale";
    "corrupt";
    "files";
    "wall(s)";
  ]

let csv_header =
  "workload,ranks,engine,tier,plan,xy,structure,session_conflicts,\
   commit_conflicts,stale_reads,corrupted,files"

let row_csv r =
  Printf.sprintf "%s,%d,%s,%s,%s,%s,%s,%s,%s,%d,%d,%d" r.workload r.ranks
    r.engine r.tier r.plan r.xy r.structure r.session_matrix r.commit_matrix
    r.stale_reads r.corrupted r.files

let row_cells r =
  [
    r.workload;
    string_of_int r.ranks;
    r.engine;
    r.tier;
    r.plan;
    r.xy;
    r.structure;
    r.session_matrix;
    r.commit_matrix;
    string_of_int r.stale_reads;
    string_of_int r.corrupted;
    string_of_int r.files;
    Printf.sprintf "%.3f" r.wall_s;
  ]
