(** Intermittent-execution evaluation (Figures 10 and 11).

    A stream of input samples is processed under a harvesting supply,
    once with the precise build and once with the anytime (WN) build,
    on the same voltage traces.  The precise build runs every task to
    completion across outages; the WN build commits its approximate
    output at the first outage past a skim point and moves to the next
    sample — the paper's as-is semantics.  Speedup is the median ratio
    of per-sample wall-clock times; quality is the median NRMSE of the
    committed outputs. *)

open Wn_workloads

type system = Clank | Nvp

val system_name : system -> string

val policy :
  ?clank:Wn_runtime.Executor.clank_config ->
  system ->
  Wn_runtime.Executor.policy
(** The executor policy for a system model ([?clank] overrides the
    Clank tuning; NVP always uses the default wake-up latency). *)

type task_measure = {
  wall : int;  (** wall-clock cycles, off-time included *)
  active : int;  (** cycles spent executing instructions *)
  overhead : int;  (** checkpoint + restore cycles *)
  out : float array;  (** decoded output at task end *)
  skimmed : bool;
  outages : int;
  reexec_frac : float;  (** fraction of retired work that was rollback re-execution *)
  energy_j : float;  (** joules drained from the supply by this task *)
  ok : bool;  (** task ran to completion (possibly via skim) *)
}

val run_stream :
  ?capacitor:Wn_power.Capacitor.t ->
  ?engine:Wn_runtime.Executor.engine ->
  cycle_energy:float ->
  Runner.build ->
  Wn_runtime.Executor.policy ->
  Wn_power.Trace.t ->
  (string * int array) list list ->
  task_measure list
(** The per-device unit runner: process a stream of pre-generated input
    samples on one fresh machine under one harvesting supply (the
    capacitor state carries over between samples, as on a real device).
    Pure in its arguments — the machine, supply and capacitor are built
    inside — so any number of streams can run on pool domains sharing
    one immutable [Runner.build].  Used by the figure drivers here and
    by the fleet driver ({!Wn_fleet.Fleet} in lib/fleet).  [engine]
    (default [Block]) selects the executor's stepping engine; all
    engines produce bit-identical measures, the choice only affects
    simulation speed. *)

type result = {
  workload : string;
  bits : int;
  system : system;
  speedup : float;  (** median per-sample wall-time ratio *)
  nrmse : float;  (** median committed-output NRMSE, percent *)
  skim_rate : float;  (** fraction of WN tasks that finished via skim *)
  outages_per_task : float;  (** mean, WN build *)
  baseline_reexec : float;
      (** mean fraction of the precise build's instructions that were
          rollback re-execution (0 on NVP) *)
  samples : int;  (** total measured samples *)
}

type setup = {
  n_traces : int;  (** voltage traces (paper: 9) *)
  invocations : int;  (** invocations per trace (paper: 3) *)
  samples_per_run : int;  (** stream samples per invocation *)
  trace_seed : int;
  input_seed : int;
  clank_config : Wn_runtime.Executor.clank_config;
  cycle_energy : float;  (** joules per cycle (ablation knob) *)
  engine : Wn_runtime.Executor.engine;
      (** stepping engine for every run (default [Block]); results are
          bit-identical across engines *)
}

val default_setup : setup
(** 3 traces × 1 invocation × 2 samples — sized for CI; pass the paper
    setup (9 × 3) for the full experiment. *)

val paper_setup : setup

val run :
  ?jobs:int -> ?setup:setup -> system:system -> bits:int -> Workload.t -> result
(** [jobs] (default 1) fans the (trace × invocation) experiment units
    over a {!Wn_exec.Pool} of that many domains.  Each unit is a pure
    function of its seeds — trace, RNG, machine, memory and capacitor
    are all built inside the unit — and per-unit partial results are
    concatenated in unit order, so the result is bit-identical for
    every [jobs] value. *)
