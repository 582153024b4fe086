(** Worst-case instruction cost, in cycles and femtojoules.

    This module deliberately owns no constants: latencies are
    {!Wn_isa.Instr.worst_cycles} — the ceiling of the latency table the
    machine executes with (memoization and zero-skipping only shorten
    multiplies) — and energy is cycles × the integer cycle energy
    {!Wn_power.Supply} drains, against
    {!Wn_power.Capacitor.restart_budget}, all in the capacitor's
    femtojoules.
    The static WCEC bounds therefore move in lockstep with any change
    to the simulated cost model, which is what the soundness oracle
    (static bound ≥ measured energy) depends on. *)

open Wn_isa

val default_cycle_energy : float
(** {!Wn_power.Supply.default_cycle_energy} — 1 nJ/cycle. *)

val worst_cycles : 'lbl Instr.t -> int

val energy_of_cycles : cycle_energy:float -> int -> int
(** [energy_of_cycles ~cycle_energy cycles]: [cycles] times
    [cycle_energy] joules rounded to femtojoules, as the supply rounds
    it, saturated at [max_int]. *)

val max_instruction_cycles : Cfg.t -> int
(** The most expensive single instruction in the program — the slack a
    watchdog-period bound must add (the watchdog fires before a step,
    so an epoch can exceed the period by one instruction). *)

val restart_budget : Wn_power.Capacitor.t -> int
(** Re-export of {!Wn_power.Capacitor.restart_budget}, femtojoules. *)

val default_restart_budget : unit -> int
(** [restart_budget] of the paper's default 10 µF capacitor. *)
