(** Compilation driver: WNC source → WN-32 machine program.

    The middle of the pipeline is one explicit, named, ordered list of
    passes; {!pass_names}, [dump_after], the lints and pass-blamed
    errors all read it.  IR-level passes rewrite the kernel body and its
    storage-level globals ({!Transform.ir}); assembly-level passes
    rewrite the generated program ([Asm.program -> Asm.program]).  The
    source is linted once, and after {e every} pass its output —
    {!Wn_analysis.Ircheck} for IR, {!Wn_analysis.Check} for assembly —
    so a finding is blamed on the stage that introduced it, the source
    included, by name and with all of that stage's new findings.

    Pipeline order:
    + [anytime-swp], [anytime-sqrt], [anytime-swv] — Algorithm 1's
      sub-passes ({!Transform}): SWP fission and MUL_ASP substitution,
      the anytime square root, and SWV with its reductions, each
      inserting skim points between its stages.  Anytime builds only;
      the precise baseline leaves its regions for codegen to inline;
    + [constfold] — 32-bit constant folding ({!Constfold});
    + [strength-reduce] — byte-offset induction variables for affine
      array indices ({!Strength_reduce});
    + [licm] — loop-invariant declaration and bound hoisting ({!Licm});
    + [codegen] — address assignment and code generation ({!Codegen});
    + [addr-cse] — redundant base-address rematerialisation removal
      over the assembly ({!Addr_cse}).

    then assembly and binary encoding (the encoder/decoder round-trip
    doubles as a self-check), and a final full lint including the
    forward-progress (WCEC) analysis. *)

open Wn_isa

type mode = Precise | Anytime

type passes = {
  constfold : bool;
  strength_reduce : bool;
  licm : bool;
  addr_cse : bool;
}
(** Optimizer-pass toggles.  The anytime sub-passes follow the build's
    mode and [codegen] always runs — they are the pipeline's spine. *)

val all_passes : passes
val no_passes : passes

type options = {
  mode : mode;
  vector_loads : bool;  (** Figure 12: vectorize SWP's subword loads *)
  passes : passes;
}

val precise : options
val anytime : options
val anytime_vector_loads : options
(** The presets enable every optimizer pass. *)

val pass_names : options -> string list
(** The pipeline, in execution order, for these options — the names
    [--dump-after] and pass-blamed errors use. *)

type symbol = {
  sym_global : Wn_lang.Ast.global;  (** source-level type and count *)
  sym_addr : int;
  sym_layout : Layout.t;
}

type t = {
  source : Wn_lang.Ast.program;
  info : Wn_lang.Sema.info;
  options : options;
  asm : Asm.program;
  program : int Instr.t array;
  machine_code : int32 array;
  symbols : (string * symbol) list;  (** source-level globals only *)
  storage : (string * int * int) list;
      (** every storage-level global the code addresses — including
          transform-introduced arrays — as (name, address, bytes) *)
  data_bytes : int;  (** size of the data segment *)
  dumps : (string * string) list;
      (** (pass, printed output) snapshots requested via [dump_after] *)
}

exception Error of string
(** Any front-end, pass or back-end failure.  Pass failures are
    prefixed ["pass <name>: "] with the originating pass's name; lint
    failures under [strict] name the stage that introduced the error
    (["source: "] for a finding already in the source) and carry all of
    that stage's new findings. *)

val compile :
  ?options:options -> ?strict:bool -> ?dump_after:string ->
  Wn_lang.Ast.program -> t
(** Compiles, linting the source and the output of every pass and
    running the full {!Wn_analysis} static verifier over the final
    program as a self-check.  Each stage reports only the findings its
    input did not have: they print to stderr under the stage's name as
    warnings by default; with [strict:true] an error-severity finding
    raises {!Error} naming the stage that introduced it (["verify"] for
    the final full lint).  [dump_after] records the named pass's output in {!t.dumps}
    (IR passes print as statements, assembly passes as a listing);
    unknown names raise (stage ["dump-after"]). *)

val compile_source :
  ?options:options -> ?strict:bool -> ?dump_after:string -> string -> t

val lint : t -> Wn_analysis.Diag.t list
(** Static-verifier diagnostics for an already-compiled program, using
    its full storage-level symbol table.  Includes the forward-progress
    (WCEC) findings of {!verify} at the default Clank runtime and
    default capacitor. *)

val verify :
  ?runtime:Wn_analysis.Progress.runtime ->
  ?budget:int ->
  ?cycle_energy:float ->
  t ->
  Wn_analysis.Progress.report
(** Forward-progress WCEC report for the compiled program (defaults as
    in {!Wn_analysis.Progress.analyze}). *)

val symbol : t -> string -> symbol
(** Raises {!Error} for unknown names. *)

val code_size_bytes : t -> int

val pp_listing : Format.formatter -> t -> unit
