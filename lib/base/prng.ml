type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = seed }

let next64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next64 g) 2) in
  r mod bound

let int_in g lo hi =
  if lo > hi then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (next64 g) 1L = 1L

let choose g arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int g (Array.length arr))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split g =
  let s = next64 g in
  { state = mix64 s }
