(** Control-flow graph of a resolved WN-32 program.

    Basic blocks are maximal straight-line runs of instructions;
    successors follow branch semantics with call-graph awareness: a
    [Bl] ends its block and falls through to the return site (the call
    is abstracted as returning), [Bx_lr] ends a function, and the call
    edge itself is recorded separately in {!t.calls}.  [Skm] does not
    branch — it only latches a restore target — so its block falls
    through; the latched targets are collected in {!t.skims} and their
    pcs start fresh blocks (they are restore entry points).

    Functions are discovered as the program entry (pc 0) plus every
    [Bl] target; each reachable block belongs to the first function
    that reaches it.  Dominators are computed per function with the
    standard iterative dataflow. *)

open Wn_isa
module IntSet : Set.S with type elt = int

type block = {
  first : int;  (** pc of the first instruction *)
  last : int;  (** pc of the last instruction (inclusive) *)
}

type t = {
  program : int Instr.t array;
  blocks : block array;  (** in address order *)
  block_of : int array;  (** pc -> index into [blocks] *)
  succ : int list array;  (** intraprocedural block successors *)
  pred : int list array;
  entries : int list;  (** function entry pcs: 0 plus every [Bl] target *)
  func_of : int array;  (** pc -> entry pc of its function, [-1] if unreachable *)
  calls : (int * int) list;  (** call site pc, callee entry pc *)
  skims : (int * int) list;  (** [Skm] pc, latched target pc *)
  falls_off : int list;
      (** pcs whose fall-through successor would run past the end of
          the program *)
  dom : IntSet.t array;  (** per block: the block indices dominating it *)
}

val build : int Instr.t array -> t

val instr_succs : t -> int -> int list
(** Intraprocedural successor pcs of one instruction (calls fall
    through, [Bx_lr] and [Halt] have none). *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: instruction [a] dominates instruction [b] — on
    every path from [b]'s function entry to [b], [a] executes first.
    False when the two pcs live in different functions or [b] is
    unreachable. *)

val loops : t -> (int * int list) list
(** Natural loops, as [(header pc, member pcs)] — one entry per back
    edge target, members merged over all back edges to that header. *)

val reachable_between : t -> src:int -> stop:int -> int list
(** pcs reachable from [src] (inclusive) along intraprocedural edges
    without passing through [stop] — the instructions an execution
    could still run before first reaching [stop]. *)
