(** Energy-storage capacitor.

    The paper models a 10 µF capacitor as the only energy store.  The
    device turns on once the capacitor charges to [v_on] and browns out
    when it sags to [v_off]; stored energy is E = ½CV². *)

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
    [Invalid_argument] unless [0 < v_off < v_on <= v_max]. *)

val voltage : t -> float
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
(** Remove joules (floored at zero energy).  May switch [is_on] off. *)

val harvest : t -> float -> unit
(** Add joules, clamped at [v_max].  May switch [is_on] on. *)

val set_empty : t -> unit
(** Discharge to [v_off] (device just browned out). *)

val set_full : t -> unit
