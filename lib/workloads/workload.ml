type technique = Swp | Swv

type scale = Small | Paper

type cfg = { bits : int; provisioned : bool }

type t = {
  name : string;
  area : string;
  description : string;
  technique : technique;
  source : cfg -> string;
  fresh_inputs : Wn_util.Rng.t -> (string * int array) list;
  golden : (string * int array) list -> float array;
  output : string;
  out_count : int;
}

open Wn_compiler

let output_values w compiled mem =
  let sym = Compile.symbol compiled w.output in
  let len = Layout.storage_bytes sym.Compile.sym_layout ~count:w.out_count in
  let raw = Wn_mem.Memory.region mem ~addr:sym.Compile.sym_addr ~len in
  Array.map float_of_int
    (Layout.decode_signed sym.Compile.sym_layout ~count:w.out_count raw)

let load_inputs compiled mem inputs =
  List.iter
    (fun (name, vals) ->
      let sym = Compile.symbol compiled name in
      Wn_mem.Memory.blit_in mem ~addr:sym.Compile.sym_addr
        (Layout.encode sym.Compile.sym_layout vals))
    inputs

let clear_output w compiled mem =
  let sym = Compile.symbol compiled w.output in
  let len = Layout.storage_bytes sym.Compile.sym_layout ~count:w.out_count in
  Wn_mem.Memory.fill mem ~addr:sym.Compile.sym_addr ~len 0
