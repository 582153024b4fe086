(** One entry point per table/figure of the paper's evaluation.  Each
    function runs the experiment and prints the rows/series the paper
    reports; [wn figure] drives these. *)

open Wn_workloads

type options = {
  scale : Workload.scale;
  seed : int;
  setup : Intermittent.setup;  (** traces × invocations × samples *)
  out_dir : string option;  (** where figure images (PGM) are written *)
  jobs : int;
      (** domain-pool width for the experiment fan-out (see
          {!Wn_exec.Pool}).  Per-kernel/per-config jobs for the curve
          and earliest-output figures, per-(trace × invocation) units
          for the intermittent ones.  Output is bit-identical for every
          value. *)
}

val default_options : options
(** Small scale, 3 traces × 1 × 2, no image output, 1 job. *)

val table1 : Format.formatter -> options -> unit
val fig2 : Format.formatter -> options -> unit
(** Conv2d outputs: precise, precise at 50% runtime, WN at 50% runtime
    (written as PGM when [out_dir] is set; summary statistics always
    printed). *)

val fig3 : Format.formatter -> options -> unit
val fig9 : Format.formatter -> options -> unit
val fig10 : Format.formatter -> options -> unit
val fig11 : Format.formatter -> options -> unit
val fig12 : Format.formatter -> options -> unit
val fig13 : Format.formatter -> options -> unit
val fig14 : Format.formatter -> options -> unit
val fig15 : Format.formatter -> options -> unit
val fig16 : Format.formatter -> options -> unit
val fig17 : Format.formatter -> options -> unit
val area_power : Format.formatter -> options -> unit

(** Ablations beyond the paper (see DESIGN.md's design-decision list):
    memo-table size, Clank watchdog period, energy-per-cycle
    calibration, and subword granularity across the whole suite. *)

val ext_sqrt : Format.formatter -> options -> unit
(** The footnote-3 extension: anytime square root (SQRT_ASP stages). *)

val ablation_memo : Format.formatter -> options -> unit
val ablation_watchdog : Format.formatter -> options -> unit
val ablation_energy : Format.formatter -> options -> unit
val ablation_subword : Format.formatter -> options -> unit

val all : (string * (Format.formatter -> options -> unit)) list
(** Experiment id → runner, in paper order. *)

val find : string -> (Format.formatter -> options -> unit, string) result
(** The runner for an experiment id (e.g. ["fig9"], ["table1"]; case is
    ignored), or an error naming every id in {!all}. *)
