type t = Al | Eq | Ne | Lt | Ge | Gt | Le | Lo | Hs | Mi | Pl

type flags = { n : bool; z : bool; c : bool; v : bool }

let initial_flags = { n = false; z = false; c = false; v = false }

let holds t { n; z; c; v } =
  match t with
  | Al -> true
  | Eq -> z
  | Ne -> not z
  | Lt -> n <> v
  | Ge -> n = v
  | Gt -> (not z) && n = v
  | Le -> z || n <> v
  | Lo -> not c
  | Hs -> c
  | Mi -> n
  | Pl -> not n

let all = [ Al; Eq; Ne; Lt; Ge; Gt; Le; Lo; Hs; Mi; Pl ]

let to_int = function
  | Al -> 0 | Eq -> 1 | Ne -> 2 | Lt -> 3 | Ge -> 4 | Gt -> 5
  | Le -> 6 | Lo -> 7 | Hs -> 8 | Mi -> 9 | Pl -> 10

let of_int = function
  | 0 -> Some Al | 1 -> Some Eq | 2 -> Some Ne | 3 -> Some Lt
  | 4 -> Some Ge | 5 -> Some Gt | 6 -> Some Le | 7 -> Some Lo
  | 8 -> Some Hs | 9 -> Some Mi | 10 -> Some Pl | _ -> None

let to_string = function
  | Al -> "al" | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Ge -> "ge"
  | Gt -> "gt" | Le -> "le" | Lo -> "lo" | Hs -> "hs" | Mi -> "mi"
  | Pl -> "pl"
