let describe = function
  | Dlz_frontend.Diag.Parse_error _ as e ->
      Some (Option.value (Dlz_frontend.Diag.describe e) ~default:"parse error")
  | Pointers.Unsupported m -> Some ("pointer conversion: " ^ m)
  | Inline.Unsupported m -> Some ("inlining: " ^ m)
  | Storage.Error e ->
      Some
        ("storage association: "
        ^
        match e with
        | Storage.Conflict a ->
            Printf.sprintf "EQUIVALENCE places %s at two addresses" a
        | Storage.Two_blocks (x, y) ->
            Printf.sprintf "one area joins COMMON blocks /%s/ and /%s/" x y
        | Storage.Unplaced a -> Printf.sprintf "cannot place %s" a)
  | Failure m -> Some m
  | Dlz_base.Intx.Overflow op -> Some ("integer overflow in " ^ op)
  | Dlz_base.Intx.Div_by_zero op -> Some ("division by zero in " ^ op)
  | _ -> None
