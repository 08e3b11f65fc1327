type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g =
  let seed = bits64 g in
  { state = seed }

let int g bound =
  assert (bound > 0);
  (* Keep 62 bits so the result fits in a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  v mod bound

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
