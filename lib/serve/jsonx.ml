(* The codec lives in [Dlz_obs.Jsonx]; this alias keeps the
   [Dlz_serve.Jsonx] name that the benchmark suite builds against. *)
include Dlz_obs.Jsonx
