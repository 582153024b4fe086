(** Energy-storage capacitor.

    The paper models a 10 µF capacitor as the only energy store.  The
    device turns on once the capacitor charges to [v_on] and browns out
    when it sags to [v_off]; stored energy is E = ½CV².

    Energy is an integer count of femtojoules (fJ): a full 10 µF charge
    at 2.5 V is 3.125e10 fJ and 1 nJ is 10^6 fJ.  Integer harvest and
    drain reassociate, so charging a span in one call or in pieces
    leaves the same energy whenever no clamp intervenes: with the latch
    on, harvest that cannot pass {!full} and drain that cannot pass
    {!off_below} ({!Supply.lease} bounds a span by both).

    Three levels are fixed at {!create}, each the least stored energy
    whose {!voltage} reaches a voltage: [v_off] (the brown-out
    threshold, {!off_below}), [v_on] (the turn-on threshold,
    {!on_from}) and [v_max] (the regulator clamp, {!full}).  The
    voltage is monotone in stored energy, so the latch takes every
    transition a square-root comparison would, without a square root. *)

type t

val create :
  ?capacitance:float ->
  ?v_on:float ->
  ?v_off:float ->
  ?v_max:float ->
  unit ->
  t
(** Defaults: 10 µF, turn-on 2.3 V, brown-out 1.8 V, regulator clamp
    2.5 V.  Starts fully charged.  Raises [Invalid_argument] unless
    [capacitance > 0], [0 < v_off < v_on <= v_max] and the full charge
    [½C v_max²] is below 2^60 fJ (about 1.15 kJ, or 369 F at 2.5 V):
    NaN and infinities are rejected, and no sum of two charges can
    overflow. *)

val femtojoules : float -> int
(** Joules to the nearest femtojoule, for a non-negative amount;
    saturates at [max_int]. *)

val joules : int -> float
(** Femtojoules to joules, for reports. *)

val voltage : t -> float
(** [sqrt (2E / C)]: for reports, tests and fixing the levels; the
    latch never takes a square root. *)

val energy : t -> int
(** Stored energy, fJ. *)

val full : t -> int
(** Full charge, fJ: the least energy whose voltage reaches [v_max]. *)

val off_below : t -> int
(** Brown-out threshold, fJ: the least energy whose voltage reaches
    [v_off]; an on latch turns off below it. *)

val on_from : t -> int
(** Turn-on threshold, fJ: the least energy whose voltage reaches
    [v_on]; an off latch turns on from it. *)

val burst_budget : t -> int
(** Energy of one full on-period, [full - off_below] — the "few
    milliseconds at a time" budget. *)

val restart_budget : t -> int
(** Energy guaranteed between turning on and browning out with zero
    harvest, [on_from - off_below].  After an outage the device
    restarts at exactly [on_from], so this is the budget every
    checkpoint-to-checkpoint region must fit in for forward progress —
    the bound the static WCEC verifier checks against. *)

val is_on : t -> bool
(** True while the capacitor can power the core.  Hysteresis: becomes
    true when stored energy reaches {!on_from}, false when it sags below
    {!off_below}. *)

val charge : t -> harvest:int -> drain:int -> bool
(** One span of core time: add [harvest] fJ, clamped at {!full}, then
    remove [drain] fJ, floored at zero, updating the latch after each,
    and return {!is_on}.  Amounts below 2^60 never overflow; any amount
    past a full charge acts as a full charge plus one.  Allocates
    nothing.  Raises [Invalid_argument] on a negative amount. *)

val set_empty : t -> unit
(** Discharge to {!off_below} with the latch off (device just browned
    out). *)

val set_full : t -> unit
