type t = int

let count = 16

let r n = if n < 0 || n >= count then invalid_arg "Reg.r" else n

let index t = t

let sp = 13
let lr = 14
let pc = 15

let allocatable = List.init 13 Fun.id

let equal = Int.equal

let to_string t =
  if t = sp then "sp" else if t = lr then "lr" else if t = pc then "pc"
  else Printf.sprintf "r%d" t
