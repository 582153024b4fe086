(** Abstract syntax of WNC, the mini-C the benchmarks are written in.

    WNC is the subset of C the paper's kernels need — global arrays,
    scalar locals, counted [for] loops, integer/fixed-point expressions —
    plus the paper's annotations:

    - [#pragma asp input(A, bits)] / [#pragma asp output(X)] mark data
      for anytime subword pipelining (Listing 1);
    - [#pragma asv input(A, bits)] / [#pragma asv output(X, bits)]
      (optionally [provisioned]) mark data for anytime subword
      vectorization (Listing 3);
    - [anytime { ... } commit { ... }] delimits the loop nest the
      compiler's fission pass replicates per subword and the code that
      materialises the current approximation after each pass.

    The [Sub_load], [Mul_asp] and [Asv_op] expression forms are internal:
    the SWP/SWV transformation passes introduce them; the parser never
    produces them. *)

type ty = U8 | U16 | U32 | I16 | I32

val ty_bytes : ty -> int
val ty_bits : ty -> int
val ty_signed : ty -> bool
val ty_name : ty -> string

type binop =
  | Add | Sub | Mul
  | And | Or | Xor
  | Shl | Shr  (** [Shr] is arithmetic on signed types, logical otherwise *)
  | Eq | Ne | Lt | Le | Gt | Ge

val binop_name : binop -> string
val is_comparison : binop -> bool

type asp_spec = {
  asp_bits : int;  (** subword width *)
  asp_shift : int;  (** bit position of the subword within its element *)
  asp_signed : bool;  (** true for the top subword of signed data *)
}

type expr =
  | Int of int
  | Var of string
  | Load of string * expr  (** array\[index\] *)
  | Neg of expr
  | Bnot of expr
  | Binop of binop * expr * expr
  | Sub_load of { sl_arr : string; sl_index : expr; sl_shift : int }
      (** internal: load an element and shift its subword of interest
          into the low bits (only meaningful under [Mul_asp], which
          truncates) *)
  | Mul_asp of expr * expr * asp_spec
      (** internal: [Mul_asp (m, sub, spec)] — multiplicand [m] × the
          subword in [sub]'s low bits, shifted to [asp_shift]; lowers to
          the MUL_ASP instruction *)
  | Asv_op of binop * int * expr * expr
      (** internal: [Asv_op (op, lane_bits, a, b)] — lane-parallel op;
          lowers to ADD_ASV/SUB_ASV (or a plain logical op, which is
          lane-safe by nature) *)
  | Sqrt of expr  (** [sqrt(e)]: 16-bit integer square root of [e] *)
  | Sqrt_asp of expr * int
      (** internal: only the [bits] most significant root bits — the
          anytime square-root stage (the paper's footnote-3 extension) *)
  | Raw_off of expr
      (** internal: marks an array index as an already-scaled {e byte}
          offset from the array's base.  The strength-reduction pass
          rewrites affine indices into running byte-offset induction
          variables and wraps them in [Raw_off]; the code generator then
          skips the scale shift and indexes the base register directly.
          Only meaningful as the index of [Load], [Larr] or
          [Sub_load]. *)

type lhs =
  | Lvar of string
  | Larr of string * expr

type stmt =
  | Decl of string * expr  (** [int32 x = e;] — scalar local *)
  | Assign of lhs * expr
  | Aug_assign of lhs * binop * expr  (** [lhs op= e] *)
  | For of for_loop
  | If of expr * stmt list * stmt list
  | Anytime of { body : stmt list; commit : stmt list }
  | Skim_here  (** internal: the transform's SKM insertion point *)

and for_loop = {
  var : string;
  lo : expr;
  hi : expr;  (** loop runs while [var < hi] *)
  step : int;  (** positive constant increment *)
  body : stmt list;
}

type technique = Asp | Asv

type direction = Input | Output

type pragma = {
  prag_technique : technique;
  prag_direction : direction;
  prag_array : string;
  prag_bits : int option;  (** subword size; None for [asp output] *)
  prag_provisioned : bool;
}

type global = { g_name : string; g_ty : ty; g_count : int }
(** [g_count = 1] for scalars, else array length in elements. *)

type program = {
  pragmas : pragma list;
  globals : global list;
  kernel_name : string;
  body : stmt list;
}

val map_stmts : (stmt -> stmt) -> stmt list -> stmt list
(** Bottom-up rewriting over statement trees (descends into loops,
    conditionals and anytime blocks before applying [f]). *)

val map_stmt : (stmt -> stmt) -> stmt -> stmt

val iter_expr : (expr -> unit) -> expr -> unit
(** Visit an expression and all its sub-expressions. *)

val map_expr : (expr -> expr) -> expr -> expr
(** Rewrite an expression bottom-up. *)

val iter_exprs_stmt : (expr -> unit) -> stmt -> unit
(** Visit every expression in a statement tree. *)

module Names : Set.S with type elt = string

val names_of_expr : expr -> Names.t
(** Scalar variables and arrays an expression reads. *)

val writes_of_stmts : stmt list -> Names.t
(** Every name a statement list can write: declarations (which assign
    an existing binding under the no-shadowing [Decl] rule), scalar
    assignments, array stores and loop variables of contained loops. *)

val reads_of_stmts : stmt list -> Names.t
(** Every name a statement list reads: those of its expressions, array
    indices and loop bounds included, plus the target of every
    [op=]. *)

val pure_arith : expr -> bool
(** Pure integer arithmetic over constants and scalars (no comparison,
    load or WN operation): safe to duplicate, delete or reorder. *)

val map_exprs_stmt : (expr -> expr) -> stmt -> stmt
(** Rewrite every expression in a statement tree (applied bottom-up to
    sub-expressions first). *)

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit

val pp_block : Format.formatter -> stmt list -> unit
(** Statement list, one per line — the form [wn compile --dump-after]
    prints for IR-level passes. *)

val pp_program : Format.formatter -> program -> unit
