module Record = Hpcfs_trace.Record
module Opclass = Hpcfs_trace.Opclass

type issuer = By_mpi | By_hdf5 | By_app

type usage = (string * issuer list) list

let issuer_of_origin = function
  | Record.O_mpi -> By_mpi
  | Record.O_hdf5 -> By_hdf5
  | Record.O_app | Record.O_netcdf | Record.O_adios | Record.O_silo -> By_app

type counts = (string * int) list

type info = { mutable issuers : issuer list; mutable calls : int }
type collector = (string, info) Hashtbl.t

let collector () : collector = Hashtbl.create 32

let record tbl r =
  if
    r.Record.layer = Record.L_posix
    && Opclass.classify r.Record.func = Opclass.Metadata
  then begin
    let issuer = issuer_of_origin r.Record.origin in
    match Hashtbl.find_opt tbl r.Record.func with
    | Some i ->
      i.calls <- i.calls + 1;
      if not (List.mem issuer i.issuers) then i.issuers <- issuer :: i.issuers
    | None -> Hashtbl.add tbl r.Record.func { issuers = [ issuer ]; calls = 1 }
  end

(* Both views present in the monitored-operation order of the paper's
   footnote 3. *)
let present tbl f =
  List.filter_map
    (fun op ->
      match Hashtbl.find_opt tbl op with
      | Some i -> Some (op, f i)
      | None -> None)
    Opclass.monitored_metadata_ops

let usage tbl = present tbl (fun i -> List.sort compare i.issuers)
let counts tbl = present tbl (fun i -> i.calls)

let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

let of_records records =
  let tbl = collector () in
  List.iter (record tbl) records;
  tbl

let inventory records = usage (of_records records)
let inventory_counts records = counts (of_records records)

let used_ops usage = List.map fst usage

let never_used usages =
  let used = Hashtbl.create 32 in
  List.iter
    (fun usage -> List.iter (fun (op, _) -> Hashtbl.replace used op ()) usage)
    usages;
  List.filter
    (fun op -> not (Hashtbl.mem used op))
    Opclass.monitored_metadata_ops
