(** Static forward-progress verifier: worst-case energy consumption
    (WCEC) per checkpoint-to-checkpoint region.

    The program is partitioned into regions entered at restore points —
    the task entry (pc 0) and every skim target — and bounded along
    intraprocedural paths until the next restore point.  Each region's
    worst-case cycle count comes from an abstract interpretation:
    {!Interval} bounds register values, loop trip counts fall out of the
    counted-loop pattern, and per-instruction costs are
    {!Energy.worst_cycles} (the same latency table the simulator pays).

    A runtime model then converts the raw bound into a per-charge
    bound — the most the device can burn between two power-fail-safe
    points:

    - {!clank}: a watchdog caps any epoch, so every region's per-charge
      bound is [restore + min(watchdog + max_instr, whole-program WCEC)
      + checkpoint], regardless of the raw bound (dynamic epochs may
      span static region boundaries);
    - {!nvp}: every instruction commits, so the bound is
      [restore + max_instr];
    - {!skim_only}: no dynamic safety net — the raw region bound plus
      restore is the per-charge bound, and an unbounded region stays
      unbounded.

    Compared against {!Energy.restart_budget} (the V_on→V_off capacitor
    energy), a finite bound over budget is a [progress-budget] error
    (the device can never finish the region on one charge); a region
    with no static bound is a [progress-unbounded] warning naming the
    binding loop. *)

type runtime = {
  rt_name : string;
  rt_checkpoint_cycles : int;
  rt_restore_cycles : int;
  rt_watchdog_period : int option;
  rt_per_instruction : bool;
}

(** The runtime models price checkpoints, restores and the watchdog
    with {!Wn_power.Runtime_costs}, the constants the executor's default
    policies use. *)

val clank : ?watchdog_period:int -> unit -> runtime
val nvp : unit -> runtime
val skim_only : unit -> runtime

type bound = Finite of int | Unbounded of { binding_loop : int }
(** Cycles, saturating well below [max_int]; [binding_loop] is the
    header pc of the loop that defeated the bound. *)

val pp_bound : Format.formatter -> bound -> unit

type region_kind = Task_entry | Skim_target

val kind_name : region_kind -> string

type region = {
  rg_entry : int;  (** restore point the region is entered at *)
  rg_kind : region_kind;
  rg_first : int;  (** lowest pc in the region *)
  rg_last : int;  (** highest pc in the region *)
  rg_size : int;  (** number of instructions in the region *)
  rg_raw : bound;  (** static WCEC of the region, cycles *)
  rg_capped : bound;  (** per-charge bound under the runtime model *)
  rg_energy : int option;
      (** femtojoules of [rg_capped] when finite
          ({!Energy.energy_of_cycles}) *)
  rg_heavy_loop : int option;  (** header pc of the dominant loop *)
}

type report = {
  rp_runtime : runtime;
  rp_budget : int;  (** usable capacitor energy, femtojoules *)
  rp_cycle_energy : float;  (** joules per cycle *)
  rp_max_instr : int;  (** worst single-instruction latency *)
  rp_total : bound;  (** whole-program WCEC from the task entry *)
  rp_regions : region list;  (** in entry-pc order *)
  rp_trip_bounds : (int * int option) list;
      (** loop header pc -> static trip count, [None] if unbounded *)
}

val analyze :
  ?runtime:runtime -> ?budget:int -> ?cycle_energy:float -> Cfg.t -> report
(** Defaults: {!clank}[ ()], {!Energy.default_restart_budget},
    {!Energy.default_cycle_energy}. *)

val max_region_cycles : report -> bound
(** Largest per-charge bound over all regions — the static ceiling the
    soundness oracle compares against measured per-region cycles. *)

val diagnostics : report -> Diag.t list
(** [progress-budget] errors and [progress-unbounded] warnings, sorted. *)

val check :
  ?runtime:runtime ->
  ?budget:int ->
  ?cycle_energy:float ->
  Cfg.t ->
  Diag.t list
(** [diagnostics (analyze ...)]. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable table: loop trip counts, then one row per region. *)
