(* Fault-injection scenario: crash/restart recovery statistics per
   consistency engine, plus the cost of having the subsystem compiled in
   but disabled.

   Part 1 injects one mid-checkpoint rank crash (with restart) into two
   checkpointing applications under each consistency engine and reports
   the crash-consistency rows — bytes lost outright, bytes surviving from
   the torn in-flight write, and whether the restart recovered the
   reference file contents.  The rows land in bench_out/faults.csv.

   Part 2 measures the injector-disabled overhead: the same runs without a
   fault plan take the pre-subsystem code path, so their wall time against
   an idle-plan run (an installed injector whose plan has no events) bounds
   what the hooks cost when nothing is injected.  The delta should be at
   noise level.  Rows land in bench_out/faults_overhead.csv. *)

module Registry = Hpcfs_apps.Registry
module Runner = Hpcfs_apps.Runner
module Validation = Hpcfs_apps.Validation
module Plan = Hpcfs_fault.Plan
module Report = Hpcfs_fault.Report
module Table = Hpcfs_util.Table

let apps = [ "pF3D-IO"; "HACC-IO-POSIX" ]

let plan =
  Plan.make ~seed:42
    [ Plan.crash ~rank:1 ~restart_delay:64 (Plan.At_io 5) ]

let entry_of name =
  match Registry.find name with
  | Some e -> e
  | None -> failwith ("bench faults: unknown app " ^ name)

let recovery_rows () =
  List.concat_map
    (fun name ->
      let entry = entry_of name in
      Validation.crash_report ~nprocs:Bench_common.nprocs
        ~app:(Registry.label entry) ~plan entry.Registry.body)
    apps

let median l =
  match List.sort compare l with
  | [] -> 0.
  | sorted -> List.nth sorted (List.length sorted / 2)

let time_run f =
  let reps = 3 in
  median
    (List.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (f ());
         Unix.gettimeofday () -. t0))

let overhead_rows () =
  let idle = Plan.make ~seed:42 [] in
  List.map
    (fun name ->
      let entry = entry_of name in
      let body = entry.Registry.body in
      let baseline =
        time_run (fun () -> Runner.run ~nprocs:Bench_common.nprocs body)
      in
      let idle_injector =
        time_run (fun () ->
            Runner.run ~nprocs:Bench_common.nprocs ~faults:idle body)
      in
      (name, baseline, idle_injector))
    apps

let faults () =
  Bench_common.with_obs "faults" @@ fun () ->
  print_endline "== faults: crash/restart recovery per consistency engine ==";
  Printf.printf "plan: %s (seed 42), %d ranks\n\n" (Plan.to_string plan)
    Bench_common.nprocs;
  let rows = recovery_rows () in
  Bench_common.emit_crash_rows ~csv_file:"faults.csv" ~what:"recovery rows"
    rows;

  print_endline "== faults: injector-disabled overhead (wall time) ==";
  let overhead = overhead_rows () in
  ignore
    (Bench_common.emit_table_csv ~csv_file:"faults_overhead.csv"
       ~csv_header:"app,no_plan_s,idle_plan_s,delta_pct"
       ~columns:[ "app"; "no plan (s)"; "idle plan (s)"; "delta" ]
       (List.map
          (fun (name, base, idle) ->
            let delta_pct =
              if base > 0. then (idle -. base) /. base *. 100. else 0.
            in
            ( [
                name;
                Printf.sprintf "%.4f" base;
                Printf.sprintf "%.4f" idle;
                Printf.sprintf "%+.1f%%" delta_pct;
              ],
              Printf.sprintf "%s,%.6f,%.6f,%.2f" name base idle delta_pct ))
          overhead));
  Printf.printf
    "overhead rows written to %s (idle plan = injector installed, no events;\n\
     the no-plan path is byte-identical to the pre-subsystem runner)\n\n"
    (Filename.concat Bench_common.out_dir "faults_overhead.csv")
