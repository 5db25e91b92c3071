(* Sample statistics for every workload: one median, one quartile and
   one percentile definition, the tail rule that reports a percentile
   only when enough samples lie beyond it, and a fixed-size sample
   reservoir so that memory does not grow with run length. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest rank (1-based) of the [p]th percentile among [n] samples.
   The epsilon keeps [p = 100 (n - k) / n] on rank [n - k] despite
   rounding. *)
let rank n p =
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)) in
  max 1 (min n r)

let percentile a p =
  let n = Array.length a in
  if n = 0 then 0. else (sorted a).(rank n p - 1)

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let quartiles a = (percentile a 25., median a, percentile a 75.)

(* A tail percentile is reported only when at least this many samples
   lie strictly beyond its rank. *)
let beyond = 10

(* The percentile [tail] reports for [n] samples when [want] is asked
   for: [want] itself when it leaves [beyond] samples above it,
   otherwise the highest percentile that does, and never less than the
   median. *)
let tail_percentile n want =
  if n - rank n want >= beyond then want
  else Float.max 50. (100. *. float_of_int (n - beyond) /. float_of_int n)

let tail a want =
  let p = tail_percentile (Array.length a) want in
  (p, percentile a p)

(* Uniform reservoir (Vitter's algorithm R): the first [cap] samples
   are kept, later ones replace a random slot with probability
   [cap / seen].  The buffer is touched in full at creation, so a
   workload's resident memory does not depend on how many samples it
   takes. *)
module Samples = struct
  type t = { buf : Float.Array.t; mutable seen : int; rng : Random.State.t }

  let create cap =
    { buf = Float.Array.make cap 0.; seen = 0; rng = Random.State.make [| cap |] }

  let add t x =
    let cap = Float.Array.length t.buf in
    (if t.seen < cap then Float.Array.set t.buf t.seen x
     else
       let j = Random.State.full_int t.rng (t.seen + 1) in
       if j < cap then Float.Array.set t.buf j x);
    t.seen <- t.seen + 1

  let to_array t =
    Array.init (min t.seen (Float.Array.length t.buf)) (Float.Array.get t.buf)
end
