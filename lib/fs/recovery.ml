type verdict = Clean | Recovered | Corrupted

let verdict_name = function
  | Clean -> "clean"
  | Recovered -> "recovered"
  | Corrupted -> "corrupted"

let classify ~lost ~recovered =
  if lost > 0 then Corrupted else if recovered > 0 then Recovered else Clean

type file_report = {
  f_path : string;
  f_verdict : verdict;
  f_replayed_bytes : int;
  f_outstanding_writes : int;
  f_outstanding_bytes : int;
}

type report = {
  files : file_report list;
  replayed_bytes : int;
  lost_writes : int;
  lost_bytes : int;
  clean : int;
  recovered : int;
  corrupted : int;
}

let check journal ~time =
  (* Final replay pass: whatever can reach a live (or failed-over) target
     does so now; the rest is permanently lost. *)
  ignore (Journal.replay journal ~time);
  Journal.mark_lost journal;
  let pfs = Journal.pfs journal in
  let paths = List.sort compare (Namespace.all_files (Pfs.namespace pfs)) in
  let files =
    List.map
      (fun path ->
        let outstanding_writes, outstanding_bytes =
          Journal.file_outstanding journal path
        in
        let replayed = Journal.file_replayed_bytes journal path in
        {
          f_path = path;
          f_verdict = classify ~lost:outstanding_writes ~recovered:replayed;
          f_replayed_bytes = replayed;
          f_outstanding_writes = outstanding_writes;
          f_outstanding_bytes = outstanding_bytes;
        })
      paths
  in
  let count v = List.length (List.filter (fun f -> f.f_verdict = v) files) in
  let lost_writes, lost_bytes = Journal.outstanding journal in
  {
    files;
    replayed_bytes = (Journal.stats journal).Journal.replayed_bytes;
    lost_writes;
    lost_bytes;
    clean = count Clean;
    recovered = count Recovered;
    corrupted = count Corrupted;
  }
