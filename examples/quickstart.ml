(* Quickstart: trace a parallel application model, then ask the analysis
   which file-system consistency semantics it actually needs.

     dune exec examples/quickstart.exe

   The application here is a small custom one written against the public
   API (not one of the built-in models): every rank writes its slice of a
   shared checkpoint, rank 0 appends a log line, and everyone reads the
   input deck at startup. *)

module Mpi = Hpcfs_mpi.Mpi
module Posix = Hpcfs_posix.Posix
module Runner = Hpcfs_apps.Runner
module Report = Hpcfs_core.Report

let my_app (env : Runner.env) =
  let posix = env.Runner.posix in
  let rank = Mpi.rank env.Runner.comm in
  (* Rank 0 stages the input deck and creates the output directory. *)
  if rank = 0 then begin
    Posix.mkdir posix "/run";
    let fd = Posix.openf posix "/run/input.deck" [ Posix.O_WRONLY; Posix.O_CREAT ] in
    ignore (Posix.write posix fd (Bytes.make 4096 'i'));
    Posix.close posix fd
  end;
  Mpi.barrier env.Runner.comm;
  (* Everyone reads the input deck. *)
  let fd = Posix.openf posix "/run/input.deck" [ Posix.O_RDONLY ] in
  ignore (Posix.read posix fd 4096);
  Posix.close posix fd;
  (* Time steps with a checkpoint phase: each rank writes its tile. *)
  for step = 1 to 3 do
    Mpi.barrier env.Runner.comm;
    let path = Printf.sprintf "/run/checkpoint.%02d" step in
    if rank = 0 then
      Posix.close posix
        (Posix.openf posix path [ Posix.O_WRONLY; Posix.O_CREAT ]);
    Mpi.barrier env.Runner.comm;
    let fd = Posix.openf posix path [ Posix.O_WRONLY ] in
    ignore (Posix.pwrite posix fd ~off:(rank * 1024) (Bytes.make 1024 'd'));
    Posix.close posix fd;
    if rank = 0 then begin
      let log = Posix.openf posix "/run/app.log" [ Posix.O_WRONLY; Posix.O_CREAT; Posix.O_APPEND ] in
      ignore (Posix.write posix log (Bytes.of_string "checkpoint done\n"));
      Posix.close posix log
    end
  done

let () =
  let nprocs = 16 in
  print_endline "running the application on 16 simulated ranks...";
  let result = Runner.run ~nprocs my_app in
  Printf.printf "captured %d trace records\n\n"
    (List.length result.Runner.records);
  let report = Report.analyze ~nprocs result.Runner.records in
  Report.pp_digest Format.std_formatter report;
  print_newline ();
  print_endline
    "The recommendation means: this application would run correctly on any\n\
     PFS providing at least that consistency level (see Table 1 in the\n\
     README for which production systems those are)."
