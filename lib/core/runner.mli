(** Shared plumbing for the evaluation: build a workload into a machine
    image and run it over streams of input samples. *)

open Wn_workloads

type build = {
  workload : Workload.t;
  compiled : Wn_compiler.Compile.t;
  precise : bool;
  cfg : Workload.cfg;
}

val build :
  ?precise:bool ->
  ?vector_loads:bool ->
  ?passes:Wn_compiler.Compile.passes ->
  Workload.t ->
  Workload.cfg ->
  build
(** Compile the workload's source.  [precise] ignores the pragmas (the
    paper's baseline build).  [passes] overrides the optimizer-pass
    set (defaults to all passes on); the per-pass differential harness
    uses it to compare outputs with a pass disabled. *)

val machine :
  ?machine_config:Wn_machine.Machine.config -> build -> Wn_machine.Machine.t
(** A fresh machine (own data memory) for the build. *)

val load_sample :
  build -> Wn_machine.Machine.t -> (string * int array) list -> unit
(** Prepare the next stream sample: encode inputs per layout, zero the
    output storage, reset the task (PC 0, cleared SKM register). *)

val output : build -> Wn_machine.Machine.t -> float array
(** Decode the workload's current output from data memory. *)

val nrmse_pct : reference:float array -> float array -> float

val run_always_on :
  ?halt_at_skim:bool ->
  ?on_step:(Wn_runtime.Executor.live -> unit) ->
  Wn_machine.Machine.t ->
  Wn_runtime.Executor.outcome
(** One task under continuous power; [on_step] observes every retired
    instruction ({!Wn_runtime.Executor.run}). *)

val precise_reference :
  build -> (string * int array) list -> float array * int
(** Run the matching precise build once on the given inputs; returns
    its output (bit-exact with the workload's golden model — asserted)
    and its active cycle count, the baseline for normalisation. *)
