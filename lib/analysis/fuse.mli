(** Fusibility classification for block-compiled execution.

    Partitions a resolved WN-32 program into maximal straight-line runs
    of instructions the machine may execute as one fused
    superinstruction: no control transfer, no store (a mid-block outage
    can tear nothing), no [Skm] latch, and a statically known latency —
    so a run's total cycle count equals the sum of
    {!Wn_isa.Instr.worst_cycles} over its pc range, the same price the
    {!Energy}/{!Progress} WCEC verifier charges it.  Runs respect
    {!Cfg.build} block boundaries, so every possible jump target is
    either a run entry or outside all runs. *)

open Wn_isa

val fusible : memoizable:bool -> 'lbl Instr.t -> bool
(** Whether one instruction may live inside a fused run.  [memoizable]
    is the machine configuration's [memo_entries <> None || zero_skip]:
    when set, multiplies have data-dependent latency and are excluded so
    fused blocks keep compile-time cycle totals. *)

type run = {
  r_first : int;  (** pc of the first fused instruction *)
  r_len : int;  (** number of instructions, >= {!min_run_len} *)
  r_cycles : int;  (** total latency: sum of [Instr.worst_cycles], exact
                       for fusible instructions *)
  r_loads : int;  (** number of load instructions in the run *)
}

val min_run_len : int
(** Shortest run worth fusing (2): a length-1 block costs what the
    per-step path costs. *)

val plan : memoizable:bool -> int Instr.t array -> run list
(** Maximal fusible runs, in address order, none crossing a
    {!Cfg.build} basic-block boundary. *)

type stats = {
  instructions : int;  (** program length *)
  fused_instructions : int;  (** instructions covered by some run *)
  runs : int;
  histogram : (int * int) list;  (** (run length, count), ascending *)
}

val stats : memoizable:bool -> int Instr.t array -> stats
(** Coverage summary of {!plan} — the block-length histogram reported
    in EXPERIMENTS.md. *)
