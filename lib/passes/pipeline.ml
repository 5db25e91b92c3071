module Trace = Dlz_base.Trace

let prepare p =
  let p = Normalize.all p in
  let p = Induction.substitute p in
  let p, areas = Storage.associate p in
  (Normalize.simplify p, areas)

let prepare_program p = fst (prepare p)

type lang = [ `C | `F77 ]

let lang_of_path path = if Filename.check_suffix path ".c" then `C else `F77

let load lang src =
  let prog =
    Trace.with_span ~cat:"frontend"
      ~args:[ ("lang", match lang with `C -> "c" | `F77 -> "f77") ]
      "parse"
    @@ fun () ->
    match lang with
    | `F77 -> Inline.expand (Dlz_frontend.F77_parser.parse_units src)
    | `C -> Pointers.lower (Dlz_frontend.C_parser.parse src)
  in
  Trace.with_span ~cat:"passes" "normalize" @@ fun () -> prepare_program prog
