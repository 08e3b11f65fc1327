let format_version = 2

let magic = Printf.sprintf "hpcfstrace%c\n" (Char.chr format_version)

let default_chunk_records = 4096

let chunk_marker = '\xC4'

let trailer_marker = '\xC5'

(* Telemetry hook: the observability layer (which this library cannot
   depend on) installs its counter sink here at load time; with nothing
   installed every tick is a no-op closure call. *)
let meter : (string -> int -> unit) ref = ref (fun _ _ -> ())

let meter_on : (unit -> bool) ref = ref (fun () -> false)

let set_meter ~enabled f =
  meter_on := enabled;
  meter := f

let tick name by = !meter name by

(* Adler-32, reduced mod 65521 once per 5552-byte block: the standard
   bound (zlib's NMAX), the longest run of 0xFF bytes after which [b]
   still fits in 32 bits, so the sums never need reducing inside it. *)
let adler32 s =
  let n = String.length s in
  let a = ref 1 and b = ref 0 and i = ref 0 in
  while !i < n do
    let stop = min n (!i + 5552) in
    for j = !i to stop - 1 do
      a := !a + Char.code (String.unsafe_get s j);
      b := !b + !a
    done;
    a := !a mod 65521;
    b := !b mod 65521;
    i := stop
  done;
  (!b lsl 16) lor !a

let layer_code = function
  | Record.L_posix -> 0
  | Record.L_mpiio -> 1
  | Record.L_hdf5 -> 2

let layer_of_code = function
  | 0 -> Some Record.L_posix
  | 1 -> Some Record.L_mpiio
  | 2 -> Some Record.L_hdf5
  | _ -> None

let origin_code = function
  | Record.O_app -> 0
  | Record.O_mpi -> 1
  | Record.O_hdf5 -> 2
  | Record.O_netcdf -> 3
  | Record.O_adios -> 4
  | Record.O_silo -> 5

let origin_of_code = function
  | 0 -> Some Record.O_app
  | 1 -> Some Record.O_mpi
  | 2 -> Some Record.O_hdf5
  | 3 -> Some Record.O_netcdf
  | 4 -> Some Record.O_adios
  | 5 -> Some Record.O_silo
  | _ -> None

module Strings = Hashtbl.Make (String)
module Ranks = Hashtbl.Make (Int)

(* A rank's previous time and offset in the open chunk: the bases of its
   next deltas, updated in place so a record costs no table entry. *)
type last = { mutable last_time : int; mutable last_off : int }

let last_of deltas rank =
  match Ranks.find deltas rank with
  | last -> last
  | exception Not_found ->
    let last = { last_time = 0; last_off = 0 } in
    Ranks.add deltas rank last;
    last

(* Encoding ---------------------------------------------------------------- *)

type encoder = {
  oc : out_channel;
  chunk_records : int;
  payload : Buffer.t;
  scratch : Buffer.t;  (* chunk header assembly *)
  strings : int Strings.t;  (* per-chunk intern table *)
  deltas : last Ranks.t;
  mutable nstrings : int;
  mutable pending : int;  (* records in the open chunk *)
  mutable records : int;
  mutable bytes : int;
  mutable chunks : int;
  mutable interned : int;
  mutable finished : bool;
}

type stats = { records : int; bytes : int; chunks : int; interned : int }

let encoder ?(chunk_records = default_chunk_records) oc =
  output_string oc magic;
  {
    oc;
    chunk_records = max 1 chunk_records;
    payload = Buffer.create 65536;
    scratch = Buffer.create 32;
    strings = Strings.create 64;
    deltas = Ranks.create 64;
    nstrings = 0;
    pending = 0;
    records = 0;
    bytes = String.length magic;
    chunks = 0;
    interned = 0;
    finished = false;
  }

let intern e s =
  match Strings.find e.strings s with
  | id -> Varint.write e.payload id
  | exception Not_found ->
    Varint.write e.payload e.nstrings;
    Varint.write e.payload (String.length s);
    Buffer.add_string e.payload s;
    Strings.add e.strings s e.nstrings;
    e.nstrings <- e.nstrings + 1;
    e.interned <- e.interned + 1;
    tick "trace.codec.interned_strings" 1

let rec intern_args e = function
  | [] -> ()
  | (k, v) :: rest ->
    intern e k;
    intern e v;
    intern_args e rest

let flush_chunk e =
  if e.pending > 0 then begin
    let payload = Buffer.contents e.payload in
    Buffer.clear e.scratch;
    Buffer.add_char e.scratch chunk_marker;
    Varint.write e.scratch e.pending;
    Varint.write e.scratch (String.length payload);
    let sum = adler32 payload in
    for i = 0 to 3 do
      Buffer.add_char e.scratch (Char.chr ((sum lsr (8 * i)) land 0xff))
    done;
    Buffer.output_buffer e.oc e.scratch;
    output_string e.oc payload;
    let frame = Buffer.length e.scratch + String.length payload in
    e.bytes <- e.bytes + frame;
    e.chunks <- e.chunks + 1;
    tick "trace.codec.bytes_encoded" frame;
    tick "trace.codec.chunks_encoded" 1;
    Buffer.clear e.payload;
    Strings.reset e.strings;
    Ranks.reset e.deltas;
    e.nstrings <- 0;
    e.pending <- 0
  end

let encode e (r : Record.t) =
  if e.finished then invalid_arg "Codec.encode: encoder already finished";
  let header =
    layer_code r.Record.layer
    lor (origin_code r.Record.origin lsl 2)
    lor (if Option.is_some r.Record.file then 1 lsl 5 else 0)
    lor (if Option.is_some r.Record.fd then 1 lsl 6 else 0)
    lor (if Option.is_some r.Record.offset then 1 lsl 7 else 0)
    lor (if Option.is_some r.Record.count then 1 lsl 8 else 0)
    lor (List.length r.Record.args lsl 9)
  in
  Varint.write e.payload header;
  Varint.write e.payload r.Record.rank;
  let last = last_of e.deltas r.Record.rank in
  Varint.write_signed e.payload (r.Record.time - last.last_time);
  last.last_time <- r.Record.time;
  intern e r.Record.func;
  (match r.Record.file with Some file -> intern e file | None -> ());
  (match r.Record.fd with
  | Some fd -> Varint.write_signed e.payload fd
  | None -> ());
  (match r.Record.offset with
  | Some off ->
    Varint.write_signed e.payload (off - last.last_off);
    last.last_off <- off
  | None -> ());
  (match r.Record.count with
  | Some count -> Varint.write_signed e.payload count
  | None -> ());
  intern_args e r.Record.args;
  e.pending <- e.pending + 1;
  e.records <- e.records + 1;
  tick "trace.codec.records_encoded" 1;
  if !meter_on () then
    tick "trace.codec.text_bytes" (Record.line_length r + 1);
  if e.pending >= e.chunk_records then flush_chunk e

let finish e =
  if not e.finished then begin
    flush_chunk e;
    Buffer.clear e.scratch;
    Buffer.add_char e.scratch trailer_marker;
    Varint.write e.scratch e.records;
    Buffer.output_buffer e.oc e.scratch;
    e.bytes <- e.bytes + Buffer.length e.scratch;
    flush e.oc;
    e.finished <- true
  end

let stats (e : encoder) =
  { records = e.records; bytes = e.bytes; chunks = e.chunks;
    interned = e.interned }

(* Decoding ---------------------------------------------------------------- *)

type decoder = {
  ic : in_channel;
  file_len : int;  (* bounds a chunk's promised payload before allocation *)
  mutable chunk : Varint.reader;  (* current chunk payload *)
  mutable remaining : int;  (* records left in the current chunk *)
  mutable chunk_index : int;  (* 1-based, for error messages *)
  mutable table : string array;  (* per-chunk intern table *)
  mutable ntable : int;
  rdeltas : last Ranks.t;
  mutable total : int;
  mutable at_end : bool;
}

let ( let* ) = Result.bind

let read_varint_ic ic =
  let rec go acc shift bytes =
    if bytes > Varint.max_bytes then Error "varint too long"
    else begin
      match input_char ic with
      | exception End_of_file -> Error "truncated varint"
      | c ->
        let b = Char.code c in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then Ok acc else go acc (shift + 7) (bytes + 1)
    end
  in
  go 0 0 1

let decoder ic =
  let head =
    match really_input_string ic (String.length magic) with
    | s -> Some s
    | exception End_of_file -> None
  in
  match head with
  | None -> Error "not an hpcfs binary trace (file shorter than the magic)"
  | Some head ->
    if String.sub head 0 10 <> String.sub magic 0 10 then
      Error "bad magic: not an hpcfs binary trace"
    else begin
      let version = Char.code head.[10] in
      if version <> format_version then
        Error
          (Printf.sprintf
             "unsupported binary trace version %d (this build reads v%d)"
             version format_version)
      else
        Ok
          {
            ic;
            file_len = in_channel_length ic;
            chunk = { Varint.data = ""; pos = 0 };
            remaining = 0;
            chunk_index = 0;
            table = Array.make 64 "";
            ntable = 0;
            rdeltas = Ranks.create 64;
            total = 0;
            at_end = false;
          }
    end

let chunk_err d fmt =
  Printf.ksprintf (fun s -> Error (Printf.sprintf "chunk %d: %s" d.chunk_index s)) fmt

let add_string d s =
  if d.ntable = Array.length d.table then begin
    let bigger = Array.make (2 * d.ntable) "" in
    Array.blit d.table 0 bigger 0 d.ntable;
    d.table <- bigger
  end;
  d.table.(d.ntable) <- s;
  d.ntable <- d.ntable + 1

(* A malformed record raises [Varint.Malformed], the one exception the
   record decoder uses: [iter] turns it into an [Error] naming the chunk,
   so it never leaves this module.  A message is formatted only when its
   check fails. *)
let malformed fmt = Printf.ksprintf (fun s -> raise (Varint.Malformed s)) fmt

let read_string d =
  let c = d.chunk in
  let id = Varint.read c in
  if 0 <= id && id < d.ntable then d.table.(id)
  else if id = d.ntable then begin
    let len = Varint.read c in
    if len < 0 || len > String.length c.Varint.data - c.Varint.pos then
      malformed "truncated string"
    else begin
      let s = String.sub c.Varint.data c.Varint.pos len in
      c.Varint.pos <- c.Varint.pos + len;
      add_string d s;
      s
    end
  end
  else malformed "dangling string reference %d" id

(* One frame: either the next chunk is loaded or the trailer was verified
   against a clean EOF (and [at_end] set). *)
let read_frame d =
  match input_char d.ic with
  | exception End_of_file ->
    Error
      (Printf.sprintf
         "truncated trace: missing trailer after chunk %d (%d records read)"
         d.chunk_index d.total)
  | c when c = trailer_marker ->
    let* expected = read_varint_ic d.ic in
    if expected <> d.total then
      Error
        (Printf.sprintf
           "record count mismatch: trailer says %d, stream held %d" expected
           d.total)
    else begin
      match input_char d.ic with
      | _ -> Error "trailing bytes after trailer"
      | exception End_of_file ->
        d.at_end <- true;
        Ok ()
    end
  | c when c = chunk_marker ->
    d.chunk_index <- d.chunk_index + 1;
    let* nrecords =
      Result.map_error (fun e -> Printf.sprintf "chunk %d: %s" d.chunk_index e)
        (read_varint_ic d.ic)
    in
    let* len =
      Result.map_error (fun e -> Printf.sprintf "chunk %d: %s" d.chunk_index e)
        (read_varint_ic d.ic)
    in
    if nrecords <= 0 then chunk_err d "empty or corrupt record count"
    else if len <= 0 then chunk_err d "empty or corrupt payload length"
    else begin
      let* sum =
        match really_input_string d.ic 4 with
        | s ->
          Ok
            (Char.code s.[0] lor (Char.code s.[1] lsl 8)
            lor (Char.code s.[2] lsl 16)
            lor (Char.code s.[3] lsl 24))
        | exception End_of_file -> chunk_err d "truncated checksum"
      in
      let* payload =
        let truncated () =
          chunk_err d "truncated payload (%d bytes promised)" len
        in
        if len > d.file_len - pos_in d.ic then truncated ()
        else
          match really_input_string d.ic len with
          | s -> Ok s
          | exception End_of_file -> truncated ()
      in
      if adler32 payload <> sum then chunk_err d "checksum mismatch"
      else begin
        d.chunk <- { Varint.data = payload; pos = 0 };
        d.remaining <- nrecords;
        d.ntable <- 0;
        Ranks.reset d.rdeltas;
        tick "trace.codec.bytes_decoded" (len + 5);
        tick "trace.codec.chunks_decoded" 1;
        Ok ()
      end
    end
  | c ->
    Error
      (Printf.sprintf "corrupt trace: unexpected frame marker 0x%02X after \
                       chunk %d"
         (Char.code c) d.chunk_index)

let rec read_args d n acc =
  if n = 0 then List.rev acc
  else begin
    let k = read_string d in
    let v = read_string d in
    read_args d (n - 1) ((k, v) :: acc)
  end

let decode_record d =
  let c = d.chunk in
  let header = Varint.read c in
  let layer =
    match layer_of_code (header land 0x3) with
    | Some layer -> layer
    | None -> malformed "bad layer code %d" (header land 0x3)
  in
  let origin =
    match origin_of_code ((header lsr 2) land 0x7) with
    | Some origin -> origin
    | None -> malformed "bad origin code %d" ((header lsr 2) land 0x7)
  in
  let rank = Varint.read c in
  let last = last_of d.rdeltas rank in
  let time = last.last_time + Varint.read_signed c in
  let func = read_string d in
  let file =
    if header land (1 lsl 5) <> 0 then Some (read_string d) else None
  in
  let fd =
    if header land (1 lsl 6) <> 0 then Some (Varint.read_signed c) else None
  in
  let offset =
    if header land (1 lsl 7) <> 0 then
      Some (last.last_off + Varint.read_signed c)
    else None
  in
  let count =
    if header land (1 lsl 8) <> 0 then Some (Varint.read_signed c) else None
  in
  (match Record.check_extent ~offset ~count with
  | Ok () -> ()
  | Error e -> malformed "record %d: %s" (d.total + 1) e);
  let args = read_args d (header lsr 9) [] in
  last.last_time <- time;
  (match offset with Some off -> last.last_off <- off | None -> ());
  { Record.time; rank; layer; origin; func; file; fd; offset; count; args }

(* The next record of the loaded chunk, and the chunk's bookkeeping. *)
let next_record d =
  let r = decode_record d in
  d.remaining <- d.remaining - 1;
  d.total <- d.total + 1;
  tick "trace.codec.records_decoded" 1;
  let c = d.chunk in
  if d.remaining = 0 && c.Varint.pos <> String.length c.Varint.data then
    malformed "%d leftover bytes after last record"
      (String.length c.Varint.data - c.Varint.pos);
  r

(* The handler covers the decode only: [f] runs outside it, so an
   exception of the caller's own passes through untouched. *)
let rec iter d ~f =
  if d.at_end then Ok d.total
  else if d.remaining = 0 then
    match read_frame d with Ok () -> iter d ~f | Error e -> Error e
  else
    match next_record d with
    | r ->
      f r;
      iter d ~f
    | exception Varint.Malformed e -> chunk_err d "%s" e
