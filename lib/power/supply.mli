(** Intermittent power supply: a harvesting trace feeding a capacitor
    that powers the core.

    The supply keeps the global wall clock in CPU cycles at the paper's
    24 MHz.  While the core runs it drains a constant energy per cycle
    (validated constant-per-instruction on an MSP430 in the paper;
    per-cycle makes the 16-cycle iterative multiply proportionally more
    expensive, see DESIGN.md) and simultaneously integrates harvested
    energy.  When the capacitor sags below brown-out the core loses
    power; [wait_for_power] advances the clock until the turn-on
    threshold is reached again.

    Both flows are integers in the capacitor's femtojoules (see
    {!Capacitor}): the cycle energy is rounded once to fJ per cycle at
    {!create}, and each trace tick's power to a harvest rate in fJ per
    cycle, rounded once when the supply reaches the tick; both saturate
    at one full charge per cycle.  Harvest over a span is the sum of
    rate × overlap over the ticks it touches, which splits exactly at
    any boundary. *)

type t

val default_clock_hz : float
(** 24 MHz, the paper's operating frequency. *)

val default_cycle_energy : float
(** 1 nJ per cycle — MSP430-class energy per cycle, calibrated so a
    full 10 µF charge sustains about 15 k cycles (≈ 0.6 ms at 24 MHz),
    the paper's "up to a few milliseconds at a time" regime. *)

val create :
  ?clock_hz:float ->
  ?cycle_energy:float ->
  ?start_full:bool ->
  trace:Trace.t ->
  capacitor:Capacitor.t ->
  unit ->
  t
(** Raises [Invalid_argument "Supply.create"] unless [cycle_energy] is
    non-negative and finite and [clock_hz] lies between 500 Hz and
    about 7.7e15 Hz: a slower clock rounds a 1-ms trace tick to zero
    cycles, and a faster one puts {!wait_for_power}'s 10-minute window
    past the int range.  NaN and infinities are rejected. *)

val always_on : ?off_cycles:int -> unit -> t
(** A supply that never browns out on its own: for functional testing,
    the continuously-powered baseline and fault injection.  Only {!cut}
    takes its power away; [wait_for_power] then serves exactly
    [off_cycles] (default 0) and power returns.  Raises
    [Invalid_argument] on a negative [off_cycles]. *)

val default_off_cycles : int
(** The off-period fault injection serves per forced outage: 24_000
    cycles (one 1 kHz trace tick at 24 MHz). *)

val cut : t -> unit
(** Force a brown-out right now: the one way to force an outage.  On a
    capacitor-backed supply this empties the capacitor (recharge then
    follows the trace as for any natural outage); on an {!always_on}
    supply it latches the off state that [wait_for_power] clears after
    its off-period.  No-op if the supply is already off. *)

val now_cycles : t -> int
(** Wall-clock cycles elapsed, including time spent powered off. *)

val now_s : t -> float

val is_on : t -> bool

val consume : t -> cycles:int -> bool
(** Run the core for [cycles] cycles: advances the clock and charges
    the capacitor with the span's harvest and drain
    ({!Capacitor.charge}).  Inflow is integrated piecewise across
    trace-tick boundaries, so a multi-cycle instruction that spans a
    burst edge credits each segment at that segment's rate.  Returns
    [false] if the supply browned out (the core lost power at the end
    of those cycles).  Allocates nothing; a span inside the current
    trace tick, nearly every call, costs one multiply per flow. *)

val wait_for_power : t -> int
(** Block (advance the clock) until the capacitor recharges to turn-on;
    returns the number of cycles spent off.  An outage that begins
    mid-tick first charges for the remaining fraction of that tick at
    that tick's power, then proceeds tick-aligned — the clock never
    drifts off the trace grid.  Raises [Failure] if the trace cannot
    recharge the capacitor within a 10-minute simulated window (a
    starved supply). *)

val never_cuts : t -> bool
(** True for an {!always_on} supply: it can never brown out on its own.
    [cut] can still force an outage, but on such a supply it only
    latches the off state and reads neither the clock nor the drain
    count, so cycles leased before a cut (see {!lease}) may be charged
    after it: the clock, the drain count and {!outages} come out as if
    they had been charged before it.  On a capacitor-backed supply a
    cut empties the capacitor, so leased cycles must be charged before
    it. *)

val lease : t -> int
(** Exact batching bound: how many cycles, counted from the clock, one
    {!consume} can charge with the same energy, clock, latch and outage
    count as any split of them into consecutive consumes, bit for bit,
    with power on throughout.  [0] when the supply is off or cut;
    [max_int] on an {!always_on} supply.  On a capacitor the lease
    stays inside the current trace tick and is the largest span whose
    harvest cannot take stored energy past full charge (ignoring drain)
    and whose drain cannot take it below the brown-out threshold
    (ignoring harvest): the least of the cycles left in the tick,
    (full − stored) / harvest rate and (stored − brown-out) / drain
    rate.  A lease stays valid for its remaining cycles after any of
    them are consumed.  Allocates nothing. *)

val outages : t -> int
(** Number of brown-outs observed so far. *)

val energy_consumed : t -> float
(** Total joules drained by the core: consumed cycles times the cycle
    energy.  Tracked in integer cycles, so batched multi-instruction
    consumes report exactly what the per-instruction sequence would. *)
