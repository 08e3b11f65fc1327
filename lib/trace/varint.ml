(* OCaml ints are 63-bit; [lsr] treats the pattern as unsigned, so the
   encode loop terminates for negative ints after at most ceil(63/7) = 9
   bytes and the decoder reassembles the exact bit pattern. *)

let max_bytes = 9

let write buf n =
  let u = ref n in
  let continue = ref true in
  while !continue do
    let b = !u land 0x7f in
    u := !u lsr 7;
    if !u = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag u = (u lsr 1) lxor (-(u land 1))

let write_signed buf n = write buf (zigzag n)

type reader = { data : string; mutable pos : int }

exception Malformed of string

(* A top-level loop rather than a local closure over the reader: the
   decoder calls this several times per record, and a closure would be
   allocated on every call. *)
let rec read_from r acc shift bytes =
  if bytes > max_bytes then raise (Malformed "varint too long")
  else if r.pos >= String.length r.data then
    raise (Malformed "truncated varint")
  else begin
    let b = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else read_from r acc (shift + 7) (bytes + 1)
  end

let read r = read_from r 0 0 1

let read_signed r = unzigzag (read r)
