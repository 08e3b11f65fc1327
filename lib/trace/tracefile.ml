let header = "# hpcfs trace v1: time rank layer origin func file fd offset count args..."

type format = Text | Binary

let format_name = function Text -> "text" | Binary -> "binary"

let to_string records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (Record.to_line r);
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
      else begin
        match Record.of_line line with
        | Ok r -> go (lineno + 1) (r :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      end
  in
  go 1 [] lines

(* The binary magic is 12 bytes, but the first 10 ("hpcfstrace") identify
   the family; the version byte is validated by the decoder so its error
   message can name the unsupported version. *)
let sniff_len = 10

let sniff_is_binary ic =
  let is_binary =
    match really_input_string ic sniff_len with
    | prefix -> prefix = String.sub Codec.magic 0 sniff_len
    | exception End_of_file -> false
  in
  seek_in ic 0;
  is_binary

(* A path that opens but cannot be read (a directory, say) fails at the
   first read; that is an [Error] naming the path too, like a failed open. *)
let with_in path f =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
    match
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
    with
    | result -> result
    | exception Sys_error e -> Error (Printf.sprintf "%s: %s" path e))

let detect_format path =
  with_in path (fun ic -> Ok (if sniff_is_binary ic then Binary else Text))

let iter_text ic ~f =
  let count = ref 0 in
  let rec go lineno =
    match input_line ic with
    | exception End_of_file -> Ok !count
    | exception Sys_error e -> Error e
    | line ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1)
      else begin
        match Record.of_line line with
        | Ok r ->
          f r;
          incr count;
          go (lineno + 1)
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      end
  in
  go 1

let iter_binary ic ~f =
  match Codec.decoder ic with
  | Error e -> Error e
  | Ok d ->
    let rec go () =
      match Codec.next d with
      | Error e -> Error e
      | Ok None -> Ok (Codec.decoded d)
      | Ok (Some r) ->
        f r;
        go ()
    in
    go ()

let iter path ~f =
  with_in path (fun ic ->
      if sniff_is_binary ic then iter_binary ic ~f else iter_text ic ~f)

let fold path ~init ~f =
  let acc = ref init in
  match iter path ~f:(fun r -> acc := f !acc r) with
  | Ok _ -> Ok !acc
  | Error e -> Error e

let load path =
  match fold path ~init:[] ~f:(fun acc r -> r :: acc) with
  | Ok acc -> Ok (List.rev acc)
  | Error e -> Error e

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let output_text_record oc r =
  output_string oc (Record.to_line r);
  output_char oc '\n'

let save ?(format = Text) path records =
  with_out path (fun oc ->
      match format with
      | Text ->
        output_string oc header;
        output_char oc '\n';
        List.iter (output_text_record oc) records
      | Binary ->
        let e = Codec.encoder oc in
        List.iter (Codec.encode e) records;
        Codec.finish e)

let convert ~src ~dst format =
  match
    with_out dst (fun oc ->
        match format with
        | Text ->
          output_string oc header;
          output_char oc '\n';
          iter src ~f:(output_text_record oc)
        | Binary ->
          let e = Codec.encoder oc in
          let result = iter src ~f:(Codec.encode e) in
          Codec.finish e;
          result)
  with
  | result -> result
  | exception Sys_error e -> Error e
