type layer = L_posix | L_mpiio | L_hdf5

type origin = O_app | O_mpi | O_hdf5 | O_netcdf | O_adios | O_silo

type t = {
  time : int;
  rank : int;
  layer : layer;
  origin : origin;
  func : string;
  file : string option;
  fd : int option;
  offset : int option;
  count : int option;
  args : (string * string) list;
}

let layer_name = function
  | L_posix -> "POSIX"
  | L_mpiio -> "MPI-IO"
  | L_hdf5 -> "HDF5"

let origin_name = function
  | O_app -> "app"
  | O_mpi -> "mpi"
  | O_hdf5 -> "hdf5"
  | O_netcdf -> "netcdf"
  | O_adios -> "adios"
  | O_silo -> "silo"

let layer_of_name = function
  | "POSIX" -> Some L_posix
  | "MPI-IO" -> Some L_mpiio
  | "HDF5" -> Some L_hdf5
  | _ -> None

let origin_of_name = function
  | "app" -> Some O_app
  | "mpi" -> Some O_mpi
  | "hdf5" -> Some O_hdf5
  | "netcdf" -> Some O_netcdf
  | "adios" -> Some O_adios
  | "silo" -> Some O_silo
  | _ -> None

let make ~time ~rank ~layer ~origin ~func ?file ?fd ?offset ?count ?(args = [])
    () =
  { time; rank; layer; origin; func; file; fd; offset; count; args }

let arg t key = List.assoc_opt key t.args

let opt_str f = function None -> "-" | Some v -> f v

(* Free-form fields (function names, paths, argument keys/values) may
   contain the tab that separates fields or the newline that separates
   records; escape both, plus the escape character itself, so every record
   round-trips through a trace file.  Argument keys additionally escape
   ['='] — the key/value separator — as ["\\="], otherwise a key like
   ["a=b"] re-parses as key ["a"] with the rest glued onto the value. *)
let escape_gen ~key s =
  if
    String.exists
      (fun c -> c = '\t' || c = '\n' || c = '\\' || (key && c = '='))
      s
  then begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\t' -> Buffer.add_string b "\\t"
        | '\n' -> Buffer.add_string b "\\n"
        | '=' when key -> Buffer.add_string b "\\="
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end
  else s

let escape s = escape_gen ~key:false s

let escape_key s = escape_gen ~key:true s

let unescape s =
  if not (String.contains s '\\') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '\\' && !i + 1 < n then begin
        (match s.[!i + 1] with
        | 't' -> Buffer.add_char b '\t'
        | 'n' -> Buffer.add_char b '\n'
        | c -> Buffer.add_char b c);
        i := !i + 2
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let to_line t =
  let fields =
    [
      string_of_int t.time;
      string_of_int t.rank;
      layer_name t.layer;
      origin_name t.origin;
      escape t.func;
      opt_str escape t.file;
      opt_str string_of_int t.fd;
      opt_str string_of_int t.offset;
      opt_str string_of_int t.count;
    ]
    @ List.map (fun (k, v) -> escape_key k ^ "=" ^ escape v) t.args
  in
  String.concat "\t" fields

(* Length of [escape_gen ~key s], without building it. *)
let escaped_length ~key s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '\\' | '\t' | '\n' -> incr n
    | '=' when key -> incr n
    | _ -> ()
  done;
  !n

(* Length of [string_of_int x]: its decimal digits, plus the sign. *)
let int_length x =
  let rec digits x n = if x < 10 && x > -10 then n else digits (x / 10) (n + 1) in
  digits x 1 + if x < 0 then 1 else 0

let opt_length f = function None -> 1 | Some v -> f v

let line_length t =
  let args =
    List.fold_left
      (fun n (k, v) ->
        n + escaped_length ~key:true k + 1 + escaped_length ~key:false v + 1)
      0 t.args
  in
  int_length t.time + int_length t.rank
  + String.length (layer_name t.layer)
  + String.length (origin_name t.origin)
  + escaped_length ~key:false t.func
  + (match t.file with None -> 1 | Some f -> escaped_length ~key:false f)
  + opt_length int_length t.fd
  + opt_length int_length t.offset
  + opt_length int_length t.count
  + 8 (* tabs between the nine fixed fields *)
  + args

let parse_opt f = function "-" -> Ok None | s -> Result.map Option.some (f s)

(* First '=' that is a real separator, i.e. preceded by an even run of
   backslashes (an odd run means the '=' itself is escaped key text). *)
let index_key_sep kv =
  let n = String.length kv in
  let rec go i escaped =
    if i >= n then None
    else
      match kv.[i] with
      | '\\' -> go (i + 1) (not escaped)
      | '=' when not escaped -> Some i
      | _ -> go (i + 1) false
  in
  go 0 false

let parse_int s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "not an integer: %S" s)

let check_extent ~offset ~count =
  match (offset, count) with
  | _, Some c when c < 0 -> Error (Printf.sprintf "negative count %d" c)
  | Some o, Some c when o > max_int - c ->
    Error (Printf.sprintf "offset %d + count %d overflows" o c)
  | _ -> Ok ()

let of_line line =
  match String.split_on_char '\t' line with
  | time :: rank :: layer :: origin :: func :: file :: fd :: offset :: count
    :: args -> (
    let ( let* ) = Result.bind in
    let* time = parse_int time in
    let* rank = parse_int rank in
    let* layer =
      Option.to_result ~none:("bad layer: " ^ layer) (layer_of_name layer)
    in
    let* origin =
      Option.to_result ~none:("bad origin: " ^ origin) (origin_of_name origin)
    in
    let func = unescape func in
    let* file = parse_opt (fun s -> Ok (unescape s)) file in
    let* fd = parse_opt parse_int fd in
    let* offset = parse_opt parse_int offset in
    let* count = parse_opt parse_int count in
    let* () = check_extent ~offset ~count in
    let* args =
      List.fold_left
        (fun acc kv ->
          let* acc = acc in
          match index_key_sep kv with
          | Some i ->
            Ok
              ((unescape (String.sub kv 0 i),
                unescape (String.sub kv (i + 1) (String.length kv - i - 1)))
              :: acc)
          | None -> Error ("bad key=value pair: " ^ kv))
        (Ok []) args
    in
    Ok { time; rank; layer; origin; func; file; fd; offset; count;
         args = List.rev args })
  | _ -> Error "too few fields"

let compare_time a b = Int.compare a.time b.time
