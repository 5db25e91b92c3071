let describe = function
  | Dlz_frontend.Diag.Parse_error _ as e ->
      Some (Option.value (Dlz_frontend.Diag.describe e) ~default:"parse error")
  | Pointers.Unsupported m -> Some ("pointer conversion: " ^ m)
  | Inline.Unsupported m -> Some ("inlining: " ^ m)
  | Failure m -> Some m
  | Dlz_base.Intx.Overflow op -> Some ("integer overflow in " ^ op)
  | Dlz_base.Intx.Div_by_zero op -> Some ("division by zero in " ^ op)
  | _ -> None
