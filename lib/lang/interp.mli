(** Reference interpreter for WNC.

    Executes a (source-level) program directly over the AST with the
    same integer semantics the compiled WN-32 code has: 32-bit wrapping
    arithmetic, arithmetic right shift, sized array elements with zero-
    or sign-extension on load and truncation on store.  [anytime]
    regions run straight through (body then commit) — the precise
    semantics every build must converge to.

    The interpreter is the oracle for differential testing: for any
    program and input, the compiled precise build and every anytime
    build must produce exactly the arrays this interpreter produces. *)

exception Error of string
(** Runtime error: undeclared name, out-of-bounds index, or an internal
    expression form (the interpreter runs *source* programs only). *)

type env

val init : Ast.program -> env
(** Allocate zeroed storage for every global. *)

val set_array : env -> string -> int array -> unit
(** Load an input array (element bit patterns).  Raises {!Error} on
    unknown names or length mismatch. *)

val constant : Ast.expr -> int option
(** The value of an expression with no variable and no array load,
    under the same 32-bit semantics, read as a signed 32-bit index the
    way an array access reads one; [None] if it has either. *)

val run : env -> Ast.program -> unit
(** Execute the kernel body.  Raises {!Error} on dynamic errors and
    [Failure] if a loop exceeds a large iteration guard. *)

val array : env -> string -> int array
(** An array's current contents as element patterns. *)

val interpret :
  Ast.program -> inputs:(string * int array) list -> (string * int array) list
(** Convenience: init, load inputs, run, and return every global's
    final contents. *)
