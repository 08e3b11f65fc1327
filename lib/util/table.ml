type align = Left | Right | Center

type t = {
  headers : string list;
  aligns : align array;
  mutable rows : string list list; (* reversed *)
  ncols : int;
}

let create ?aligns headers =
  let ncols = List.length headers in
  let aligns =
    match aligns with
    | None -> Array.make ncols Left
    | Some l ->
      if List.length l <> ncols then invalid_arg "Table.create: aligns length";
      Array.of_list l
  in
  { headers; aligns; rows = []; ncols }

let add_row t cells =
  let n = List.length cells in
  if n > t.ncols then invalid_arg "Table.add_row: too many cells";
  let cells =
    if n = t.ncols then cells
    else cells @ List.init (t.ncols - n) (fun _ -> "")
  in
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = width - n in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
      let l = fill / 2 in
      String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render t =
  let widths = Array.make t.ncols 0 in
  let measure cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  measure t.headers;
  List.iter measure t.rows;
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad t.aligns.(i) widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  rule ();
  line t.headers;
  rule ();
  List.iter line (List.rev t.rows);
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let pct_cell f = Printf.sprintf "%.1f" f
let mark_cell b = if b then "x" else ""
let check_cell b = if b then "ok" else "DIFF"
