module Poly = Dlz_symbolic.Poly
module Access = Dlz_ir.Access
module Intx = Dlz_base.Intx
module Numth = Dlz_base.Numth
module Varint = Dlz_base.Varint

type numeric = {
  n_common : int;
  common_ubs : int array;
  eqs : Depeq.t list;
  opaque_dims : int;
}

type t = {
  src : Access.t;
  dst : Access.t;
  n_common : int;
  common_ubs : Poly.t list;
  equations : Symeq.t list;
  opaque_dims : int;
  numeric : numeric option;
}

(* The integer form of the symbolic fields: every coefficient, bound
   and constant an integer and every variable bound nonnegative, else
   [None].  Computed once, when the problem is built. *)
let project ~n_common ~common_ubs ~opaque_dims equations =
  let rec eqs acc = function
    | [] -> Some (List.rev acc)
    | e :: rest -> (
        match Symeq.to_numeric e with
        | None -> None
        | Some n -> eqs (n :: acc) rest)
  in
  match Array.of_list (List.map Poly.const_value common_ubs) with
  | exception Not_found -> None
  | common_ubs -> (
      match eqs [] equations with
      | None -> None
      | Some eqs -> Some { n_common; common_ubs; eqs; opaque_dims })

let make ~src ~dst ~n_common ~common_ubs ~opaque_dims equations =
  {
    src;
    dst;
    n_common;
    common_ubs;
    equations;
    opaque_dims;
    numeric = project ~n_common ~common_ubs ~opaque_dims equations;
  }

let of_accesses (src : Access.t) (dst : Access.t) =
  if not (String.equal src.array dst.array) then None
  else begin
    let common = Access.common_loops src dst in
    let rec zip (eqs, opq) ss ds =
      match (ss, ds) with
      | [], [] -> (eqs, opq)
      | Access.Aff fs :: ss, Access.Aff fd :: ds ->
          zip
            ( Symeq.of_affine_pair ~src:fs ~src_loops:src.loops ~dst:fd
                ~dst_loops:dst.loops
              :: eqs,
              opq )
            ss ds
      | _ :: ss, _ :: ds -> zip (eqs, opq + 1) ss ds
      | rest, [] | [], rest -> (eqs, opq + List.length rest)
    in
    let equations, opaque = zip ([], 0) src.subs dst.subs in
    Some
      (make ~src ~dst ~n_common:(List.length common)
         ~common_ubs:(List.map (fun (l : Access.loop) -> l.l_ub) common)
         ~opaque_dims:opaque (List.rev equations))
  end

let numeric_of_equations ~n_common ~common_ubs eqs =
  { n_common; common_ubs; eqs; opaque_dims = 0 }

let synthetic (np : numeric) =
  let loops =
    List.init np.n_common (fun i ->
        {
          Access.l_var = Printf.sprintf "z%d" (i + 1);
          l_ub = Poly.const np.common_ubs.(i);
        })
  in
  let access acc_id stmt_name rw =
    { Access.acc_id; stmt_id = acc_id; stmt_name; array = "synthetic";
      rw; loops; subs = [] }
  in
  let lift_eq (eq : Depeq.t) =
    Symeq.make (Poly.const eq.Depeq.c0)
      (List.map
         (fun (t : Depeq.term) ->
           ( Poly.const t.Depeq.coeff,
             Symeq.var ~side:t.Depeq.var.v_side ~level:t.Depeq.var.v_level
               t.Depeq.var.v_name
               (Poly.const t.Depeq.var.v_ub) ))
         eq.Depeq.terms)
  in
  make ~src:(access 0 "Ssrc" `Write) ~dst:(access 1 "Sdst" `Read)
    ~n_common:np.n_common
    ~common_ubs:(List.map Poly.const (Array.to_list np.common_ubs))
    ~opaque_dims:np.opaque_dims (List.map lift_eq np.eqs)

let instantiate env (p : t) =
  {
    n_common = p.n_common;
    common_ubs = Array.of_list (List.map (Poly.eval env) p.common_ubs);
    eqs = List.map (Symeq.instantiate env) p.equations;
    opaque_dims = p.opaque_dims;
  }

(* --- flat canonical encoding ---------------------------------------------- *)

(* [Keybuf] packs the canonical form of a problem's integer form —
   terms sorted, sign flipped, coefficients divided by their gcd —
   into a reusable [Bytes] buffer, with no intermediate list or option
   structures.  One buffer per domain makes the encode step
   allocation-free after warm-up, which is what lets a cache hit cost
   0 minor words. *)
module Keybuf = struct
  type buf = {
    (* final encoding *)
    mutable buf : Bytes.t;
    mutable len : int;
    (* per-equation staging area (segments are sorted before landing
       in [buf], so equation order never leaks into the key) *)
    mutable eqbuf : Bytes.t;
    mutable eqlen : int;
    mutable eq_off : int array;
    mutable eq_len : int array;
    mutable eq_ord : int array;
    mutable neqs : int;
    (* term scratch for one equation *)
    mutable t_coeff : int array;
    mutable t_level : int array;
    mutable t_side : int array;
    mutable t_ub : int array;
    mutable t_name : string array;
    mutable nterms : int;
  }

  let create () =
    {
      buf = Bytes.create 256;
      len = 0;
      eqbuf = Bytes.create 256;
      eqlen = 0;
      eq_off = Array.make 8 0;
      eq_len = Array.make 8 0;
      eq_ord = Array.make 8 0;
      neqs = 0;
      t_coeff = Array.make 16 0;
      t_level = Array.make 16 0;
      t_side = Array.make 16 0;
      t_ub = Array.make 16 0;
      t_name = Array.make 16 "";
      nterms = 0;
    }

  let contents kb = kb.buf
  let length kb = kb.len

  (* growth is the only allocation; amortized away after the first few
     encodes on a domain *)
  let grow_bytes b needed =
    let cap = ref (2 * Bytes.length b) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit b 0 nb 0 (Bytes.length b);
    nb

  let reserve_main kb n =
    if kb.len + n > Bytes.length kb.buf then
      kb.buf <- grow_bytes kb.buf (kb.len + n)

  let reserve_eq kb n =
    if kb.eqlen + n > Bytes.length kb.eqbuf then
      kb.eqbuf <- grow_bytes kb.eqbuf (kb.eqlen + n)

  (* Ints are zigzag varints ({!Varint}): one or two bytes for the
     coefficients, bounds and counts a key holds, and prefix-free, so
     the concatenated fields stay an injective encoding. *)
  let put_int kb v =
    reserve_main kb Varint.max_bytes;
    kb.len <- Varint.write kb.buf kb.len v

  let put_eq_int kb v =
    reserve_eq kb Varint.max_bytes;
    kb.eqlen <- Varint.write kb.eqbuf kb.eqlen v

  let put_eq_string kb s =
    let n = String.length s in
    put_eq_int kb n;
    reserve_eq kb n;
    Bytes.blit_string s 0 kb.eqbuf kb.eqlen n;
    kb.eqlen <- kb.eqlen + n

  let grow_terms kb =
    let cap = Array.length kb.t_coeff in
    let g a z =
      let na = Array.make (2 * cap) z in
      Array.blit a 0 na 0 cap;
      na
    in
    kb.t_coeff <- g kb.t_coeff 0;
    kb.t_level <- g kb.t_level 0;
    kb.t_side <- g kb.t_side 0;
    kb.t_ub <- g kb.t_ub 0;
    kb.t_name <- g kb.t_name ""

  let grow_eqs kb =
    let cap = Array.length kb.eq_off in
    let g a =
      let na = Array.make (2 * cap) 0 in
      Array.blit a 0 na 0 cap;
      na
    in
    kb.eq_off <- g kb.eq_off;
    kb.eq_len <- g kb.eq_len;
    kb.eq_ord <- g kb.eq_ord

  (* (level, side, name, ub, coeff) — the canonical term order. *)
  let term_less kb a b =
    let c = Int.compare kb.t_level.(a) kb.t_level.(b) in
    if c <> 0 then c < 0
    else
      let c = Int.compare kb.t_side.(a) kb.t_side.(b) in
      if c <> 0 then c < 0
      else
        let c = String.compare kb.t_name.(a) kb.t_name.(b) in
        if c <> 0 then c < 0
        else
          let c = Int.compare kb.t_ub.(a) kb.t_ub.(b) in
          if c <> 0 then c < 0 else kb.t_coeff.(a) < kb.t_coeff.(b)

  (* Top-level, not a local closure over [i] and [j]: that closure
     was a fresh minor-heap block on every swap. *)
  let swap_ints (a : int array) i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t

  let swap_terms kb i j =
    swap_ints kb.t_coeff i j;
    swap_ints kb.t_level i j;
    swap_ints kb.t_side i j;
    swap_ints kb.t_ub i j;
    let t = kb.t_name.(i) in
    kb.t_name.(i) <- kb.t_name.(j);
    kb.t_name.(j) <- t

  let rec sift_term kb j =
    if j > 0 && term_less kb j (j - 1) then begin
      swap_terms kb j (j - 1);
      sift_term kb (j - 1)
    end

  let sort_terms kb =
    (* insertion sort: term counts are tiny (loop depth x 2) *)
    for i = 1 to kb.nterms - 1 do
      sift_term kb i
    done

  (* Stage one equation's terms.  [Depeq.make] has already merged
     duplicate variables (same side and level, and the same name at
     level 0) and dropped zero coefficients, so each term lands as it
     is; a paired loop variable's name is display only and is written
     as "". *)
  let rec stage_terms kb i = function
    | [] -> kb.nterms <- i
    | (t : Depeq.term) :: rest ->
        if i = Array.length kb.t_coeff then grow_terms kb;
        let v = t.Depeq.var in
        kb.t_coeff.(i) <- t.Depeq.coeff;
        kb.t_level.(i) <- v.Depeq.v_level;
        kb.t_side.(i) <- (match v.Depeq.v_side with `Src -> 0 | `Dst -> 1);
        kb.t_ub.(i) <- v.Depeq.v_ub;
        kb.t_name.(i) <- (if v.Depeq.v_level = 0 then v.Depeq.v_name else "");
        stage_terms kb (i + 1) rest

  let rec gcd_coeffs kb i g =
    if i >= kb.nterms then g
    else gcd_coeffs kb (i + 1) (Numth.gcd g kb.t_coeff.(i))

  let encode_eq kb (eq : Depeq.t) =
    stage_terms kb 0 eq.Depeq.terms;
    sort_terms kb;
    (* Global sign flip: first coefficient positive (the constant
       decides for the empty equation). *)
    let flip = if kb.nterms > 0 then kb.t_coeff.(0) < 0 else eq.Depeq.c0 < 0 in
    let c0 = if flip then Intx.neg eq.Depeq.c0 else eq.Depeq.c0 in
    if flip then
      for i = 0 to kb.nterms - 1 do
        kb.t_coeff.(i) <- Intx.neg kb.t_coeff.(i)
      done;
    (* Divide through by the gcd of every coefficient and c0. *)
    let g = gcd_coeffs kb 0 (Intx.abs c0) in
    let c0 = if g > 1 then c0 / g else c0 in
    if g > 1 then
      for i = 0 to kb.nterms - 1 do
        kb.t_coeff.(i) <- kb.t_coeff.(i) / g
      done;
    if kb.neqs = Array.length kb.eq_off then grow_eqs kb;
    let off = kb.eqlen in
    put_eq_int kb c0;
    put_eq_int kb kb.nterms;
    for i = 0 to kb.nterms - 1 do
      put_eq_int kb kb.t_level.(i);
      put_eq_int kb kb.t_side.(i);
      put_eq_int kb kb.t_ub.(i);
      put_eq_int kb kb.t_coeff.(i);
      put_eq_string kb kb.t_name.(i)
    done;
    kb.eq_off.(kb.neqs) <- off;
    kb.eq_len.(kb.neqs) <- kb.eqlen - off;
    kb.eq_ord.(kb.neqs) <- kb.neqs;
    kb.neqs <- kb.neqs + 1

  (* Lexicographic compare of two staged segments (ties by length):
     any total order works, it just has to be content-determined.  The
     scan is top-level for the same reason as [swap_ints]. *)
  let rec bytes_less b oa la ob lb i =
    if i >= la || i >= lb then la < lb
    else
      let ca = Bytes.unsafe_get b (oa + i) in
      let cb = Bytes.unsafe_get b (ob + i) in
      if ca <> cb then ca < cb else bytes_less b oa la ob lb (i + 1)

  let seg_less kb a b =
    bytes_less kb.eqbuf kb.eq_off.(a) kb.eq_len.(a) kb.eq_off.(b)
      kb.eq_len.(b) 0

  let rec sift_eq kb j =
    if j > 0 && seg_less kb kb.eq_ord.(j) kb.eq_ord.(j - 1) then begin
      let t = kb.eq_ord.(j) in
      kb.eq_ord.(j) <- kb.eq_ord.(j - 1);
      kb.eq_ord.(j - 1) <- t;
      sift_eq kb (j - 1)
    end

  let sort_eqs kb =
    for i = 1 to kb.neqs - 1 do
      sift_eq kb i
    done

  let rec encode_eqs kb = function
    | [] -> ()
    | e :: rest ->
        encode_eq kb e;
        encode_eqs kb rest

  let encode kb (p : t) =
    match p.numeric with
    | None -> false
    | Some np -> (
        kb.len <- 0;
        kb.eqlen <- 0;
        kb.neqs <- 0;
        try
          put_int kb np.n_common;
          put_int kb np.opaque_dims;
          put_int kb (Array.length np.common_ubs);
          for i = 0 to Array.length np.common_ubs - 1 do
            put_int kb np.common_ubs.(i)
          done;
          encode_eqs kb np.eqs;
          put_int kb kb.neqs;
          sort_eqs kb;
          for i = 0 to kb.neqs - 1 do
            let s = kb.eq_ord.(i) in
            let l = kb.eq_len.(s) in
            reserve_main kb l;
            Bytes.blit kb.eqbuf kb.eq_off.(s) kb.buf kb.len l;
            kb.len <- kb.len + l
          done;
          true
        with Intx.Overflow _ -> false)
end
