type kind = True | Anti | Output | Input

let kind ~src ~dst =
  match (src, dst) with
  | `Write, `Read -> True
  | `Read, `Write -> Anti
  | `Write, `Write -> Output
  | `Read, `Read -> Input

let to_string = function
  | True -> "true"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"
