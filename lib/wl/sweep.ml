module Consistency = Hpcfs_fs.Consistency
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
      Validation.engines
      @ [ Consistency.Eventual { delay = Consistency.default_eventual_delay } ];
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

let run ?(seed = 42) (g : grid) =
  List.concat_map
    (fun nprocs ->
      List.concat_map
        (fun (wname, w) ->
          let body = Compile.body w in
          (* One fault-free strong reference per (workload, scale); a
             strong, direct, unplanned first cell is that run. *)
          let reference = ref None in
          List.concat_map
            (fun engine ->
              List.concat_map
                (fun (tname, tier) ->
                  List.map
                    (fun (pname, plan) ->
                      let t0 = Sys.time () in
                      let result =
                        Runner.run ~semantics:engine ~local_order:true ~nprocs
                          ~seed ?tier ?faults:plan body
                      in
                      let wall_s = Sys.time () -. t0 in
                      let report =
                        Report.analyze ~nprocs result.Runner.records
                      in
                      let sharing = report.Report.sharing in
                      if !reference = None then begin
                        let r =
                          if Validation.is_reference ?tier ?faults:plan engine
                          then result
                          else Validation.reference_run ~seed ~nprocs body
                        in
                        reference := Some (Validation.final_digests r)
                      end;
                      let o =
                        Validation.outcome_of
                          ~reference:(Option.get !reference) engine result
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
                          matrix report.Report.session;
                        commit_matrix = matrix report.Report.commit;
                        stale_reads = o.Validation.stale_reads;
                        corrupted = o.Validation.corrupted_files;
                        files = o.Validation.files;
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
