type elt = Dist of int | Dir of Dirvec.dir
type t = elt array

let of_dirvec dv =
  Array.map (function Dirvec.Eq -> Dist 0 | d -> Dir d) dv

let with_distance v level d =
  let v' = Array.copy v in
  v'.(level - 1) <- Dist d;
  v'

let elt_dir = function Dist d -> Dirvec.of_delta d | Dir d -> d
let to_dirvec v = Array.map elt_dir v

let consistent v dv =
  Array.length v = Array.length dv
  && Array.for_all2 (fun e d -> Dirvec.meet_dir (elt_dir e) d <> None) v dv

let join a b =
  if Array.length a <> Array.length b then
    invalid_arg "Ddvec.join: length mismatch";
  Array.map2
    (fun x y ->
      match (x, y) with
      | Dist d1, Dist d2 when d1 = d2 -> Dist d1
      | _ -> Dir (Dirvec.join_dir (elt_dir x) (elt_dir y)))
    a b

let elt_to_string = function
  | Dist d -> if d > 0 then Printf.sprintf "+%d" d else string_of_int d
  | Dir d -> Dirvec.dir_to_string d

let to_string v =
  "(" ^ String.concat ", " (Array.to_list (Array.map elt_to_string v)) ^ ")"
