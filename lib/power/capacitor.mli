(** Energy-storage capacitor.

    The paper models a 10 µF capacitor as the only energy store.  The
    device turns on once the capacitor charges to [v_on] and browns out
    when it sags to [v_off]; stored energy is E = ½CV².

    The on/off latch compares stored energy with two exact thresholds
    fixed at {!create}: for each of [v_off] and [v_on], the least float
    energy [s] whose {!voltage}, [sqrt (2s / C)] as rounded, reaches it.
    The voltage is monotone in [s], so [voltage < v] holds exactly when
    [s] is below that float, and the latch takes every transition the
    square-root comparison would, bit for bit, without a square root.
    The threshold is not [½Cv²] rounded: at the defaults that lands 2
    ulps above the exact turn-on energy. *)

type t

val create :
  ?capacitance:float ->
  ?v_on:float ->
  ?v_off:float ->
  ?v_max:float ->
  unit ->
  t
(** Defaults: 10 µF, turn-on 2.3 V, brown-out 1.8 V, regulator clamp
    2.5 V.  Starts fully charged (at [v_max]).  Raises
    [Invalid_argument] unless [capacitance > 0],
    [0 < v_off < v_on <= v_max] and the full charge [½C v_max²] is
    finite, so NaN and infinities are rejected. *)

val voltage : t -> float
(** [sqrt (2E / C)]: for reports and tests; the latch never takes a
    square root. *)

val energy : t -> float

val usable_energy : t -> float
(** Energy available before brown-out: ½C(V² - v_off²), floored at 0. *)

val burst_budget : t -> float
(** Energy of one full on-period, ½C(v_max² - v_off²) — the "few
    milliseconds at a time" budget. *)

val restart_budget : t -> float
(** Energy guaranteed between turning on and browning out with zero
    harvest, ½C(v_on² - v_off²).  After an outage the device restarts
    at exactly [v_on], so this is the budget every
    checkpoint-to-checkpoint region must fit in for forward progress —
    the bound the static WCEC verifier checks against. *)

val is_on : t -> bool
(** True while the capacitor can power the core.  Hysteresis: becomes
    true when the voltage reaches [v_on], false when it sags below
    [v_off]. *)

val drain : t -> float -> unit
(** Remove joules (floored at zero energy).  May switch [is_on] off.
    Raises [Invalid_argument] on a negative amount or NaN. *)

val harvest : t -> float -> unit
(** Add joules, clamped at [v_max].  May switch [is_on] on.  Raises
    [Invalid_argument] on a negative amount or NaN. *)

val run :
  t -> power:float -> clock_hz:float -> cycle_energy:float -> cycles:int -> bool
(** [run t ~power ~clock_hz ~cycle_energy ~cycles] is
    [harvest t (power *. (float cycles /. clock_hz))] followed by
    [drain t (float cycles *. cycle_energy)], bit for bit, then
    [is_on t]: [cycles] core cycles at [clock_hz] on [power] watts of
    harvest.  It allocates nothing: the arithmetic stays in unboxed
    locals and the float arguments are passed through as the caller
    holds them, which is why a within-tick [Supply.consume] allocates
    nothing either. *)

val affords : t -> cycle_energy:float -> cycles:int -> bool
(** [usable_energy t >= float cycles *. cycle_energy], without
    allocating. *)

val set_empty : t -> unit
(** Discharge to [v_off] (device just browned out). *)

val set_full : t -> unit
