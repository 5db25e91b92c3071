module Budget = Dlz_base.Budget
module Intx = Dlz_base.Intx
module Prng = Dlz_base.Prng
module Problem = Dlz_deptest.Problem

exception Injected of string

type t = { seed : int64; rate_ppm : int; hits : int Atomic.t }

let clamp_rate r = if r < 0. then 0. else if r > 1. then 1. else r

let make ~seed ~rate =
  {
    seed;
    rate_ppm = int_of_float (clamp_rate rate *. 1_000_000.);
    hits = Atomic.make 0;
  }

let seed t = t.seed
let rate t = float_of_int t.rate_ppm /. 1_000_000.
let to_string t = Printf.sprintf "%Ld:%g" t.seed (rate t)

let of_string s =
  match String.index_opt s ':' with
  | None -> Error "expected <seed>:<rate>"
  | Some i -> (
      let seed_s = String.sub s 0 i in
      let rate_s = String.sub s (i + 1) (String.length s - i - 1) in
      match (Int64.of_string_opt seed_s, float_of_string_opt rate_s) with
      | Some seed, Some r when r >= 0. && r <= 1. ->
          Ok (make ~seed ~rate:r)
      | Some _, Some _ -> Error "rate must be in [0, 1]"
      | None, _ -> Error (Printf.sprintf "bad seed %S" seed_s)
      | _, None -> Error (Printf.sprintf "bad rate %S" rate_s))

let state =
  ref
    (match Sys.getenv_opt "DLZ_CHAOS" with
    | None | Some "" -> None
    | Some s -> (
        match of_string s with Ok c -> Some c | Error _ -> None))

let current () = !state
let set_current c = state := c
let strikes t = Atomic.get t.hits

type io_fault = Torn_frame | Disconnect | Slow_write

let io_strike t ~point ~key =
  if t.rate_ppm = 0 then None
  else begin
    (* Same content-keyed discipline as [strike]: the decision is a
       pure function of seed + (point, key), so a given frame meets the
       same socket fault on every run and under any worker count. *)
    let h = Hashtbl.hash_param 256 1024 (point, key) in
    let g = Prng.create (Int64.logxor t.seed (Int64.of_int h)) in
    if Prng.int g 1_000_000 < t.rate_ppm then begin
      Atomic.incr t.hits;
      Some
        (match Prng.int g 3 with
        | 0 -> Torn_frame
        | 1 -> Disconnect
        | _ -> Slow_write)
    end
    else None
  end

(* The strike decision for (strategy, problem): the fault kind to
   raise, if any.  Content-keyed: the decision depends only on seed +
   (strategy, problem), so every domain, run, and replay sees the same
   fault at the same query.  [hash_param] with deep limits keeps
   distinct problems from aliasing.  It hashes a 6-tuple of the two
   accesses and {!Problem.polynomial}'s fields, the block layout (tag
   0, six fields) of the problem record before it held one form, so
   the same queries are struck as then; a [Numeric] form is lifted to
   polynomials only when the rate is nonzero. *)
let draw t ~strategy (p : Problem.t) =
  if t.rate_ppm = 0 then None
  else begin
    let n_common, common_ubs, equations, opaque_dims =
      Problem.polynomial p.form
    in
    let h =
      Hashtbl.hash_param 256 1024
        (strategy, (p.src, p.dst, n_common, common_ubs, equations, opaque_dims))
    in
    let g = Prng.create (Int64.logxor t.seed (Int64.of_int h)) in
    if Prng.int g 1_000_000 < t.rate_ppm then Some (Prng.int g 5) else None
  end

let would_strike t ~strategy p = Option.is_some (draw t ~strategy p)

let strike t ~strategy p =
  match draw t ~strategy p with
  | None -> ()
  | Some kind -> (
      Atomic.incr t.hits;
      match kind with
      | 0 -> raise (Injected "raise")
      | 1 -> raise (Intx.Overflow "chaos")
      | 2 -> raise (Budget.Exhausted "chaos")
      | 3 -> raise (Intx.Div_by_zero "chaos")
      | _ -> raise (Injected "unknown"))
