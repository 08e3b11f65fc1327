(* Failover scenario: what each consistency engine loses when a storage
   target (or the metadata server) fails mid-run, and what the client-side
   retry/replay machinery wins back.

   One checkpointing application runs under each engine while a fault plan
   takes storage down mid-checkpoint, in four availability modes:

     down      ostfail with no recovery — the target stays dead; whatever
               the client journal cannot replay is lost for good.
     failover  ostfail with a standby replica: the target degrades rather
               than dies, parked writes replay immediately, reads keep
               being served.
     recover   ostfail that comes back D ticks later: parked writes replay
               once the target returns.
     mdsfail   the metadata server fails and restarts: metadata operations
               abort the job fail-stop and the runner restarts it.

   Rows land in bench_out/failover.csv through the same emitter as `bench
   faults`, so the two artifacts stay format-identical; per-mode wall
   times are recorded into bench_out/BENCH_PERF.json. *)

module Registry = Hpcfs_apps.Registry
module Validation = Hpcfs_apps.Validation
module Plan = Hpcfs_fault.Plan

let app = "pF3D-IO"

let fail_at = 1400
let recover_after = 512

let modes =
  [
    ("down", [ Plan.ost_fail ~target:0 fail_at ]);
    ("failover", [ Plan.ost_fail ~target:0 ~failover:true fail_at ]);
    ("recover", [ Plan.ost_fail ~target:0 ~recover:recover_after fail_at ]);
    ("mdsfail", [ Plan.mds_fail ~recover:recover_after fail_at ]);
  ]

let entry () =
  match Registry.find app with
  | Some e -> e
  | None -> failwith ("bench failover: unknown app " ^ app)

let failover () =
  Bench_common.with_obs "failover" @@ fun () ->
  print_endline
    "== failover: storage-target failure/failover per consistency engine ==";
  Printf.printf
    "app: %s, %d ranks; one OST (or the MDS) fails at t=%d (seed 42)\n\n" app
    Bench_common.nprocs fail_at;
  let e = entry () in
  let rows =
    List.concat_map
      (fun (mode, events) ->
        let plan = Plan.make ~seed:42 events in
        let m0 = Bench_common.allocated_words () in
        let t0 = Unix.gettimeofday () in
        let rows =
          Validation.crash_report ~nprocs:Bench_common.nprocs
            ~app:(Printf.sprintf "%s/%s" (Registry.label e) mode)
            ~plan e.Registry.body
        in
        let dt = Unix.gettimeofday () -. t0 in
        let runs = float_of_int (List.length Validation.engines) in
        Bench_perf.record
          ~name:("failover/" ^ mode)
          (Bench_perf.per_op ~ns:(dt *. 1e9 /. runs)
             ~allocs:((Bench_common.allocated_words () -. m0) /. runs));
        rows)
      modes
  in
  Bench_common.emit_crash_rows ~csv_file:"failover.csv" ~what:"failover rows"
    rows;
  Bench_perf.write_bench_json ()
