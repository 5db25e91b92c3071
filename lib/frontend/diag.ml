type loc = { line : int; col : int }

exception Parse_error of loc * string

let error loc fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (loc, msg))) fmt

let describe = function
  | Parse_error (loc, msg) ->
      Some
        (Format.asprintf "parse error at line %d, column %d: %s" loc.line
           loc.col msg)
  | _ -> None
