(** Harvested-power traces.

    The paper drives its simulator with 1-kHz voltage traces captured
    from a Wi-Fi RF source.  Those measurements are not available, so we
    synthesise equivalent traces: harvested power sampled at 1 kHz from a
    two-state (burst/quiet) Markov process, which is the standard model
    for ambient-RF energy arrival.  Deterministic square and constant
    traces are provided for tests and controlled experiments.  Traces
    wrap around when a simulation outlives them. *)

type t

val sample_period_s : float
(** 1 ms — the paper's 1-kHz sampling. *)

val of_samples : float array -> t
(** Harvested power in watts per 1-ms tick, copied: a later write to
    the array does not reach the trace.  Raises [Invalid_argument] on
    an empty array or a negative, NaN or infinite sample. *)

val length : t -> int
val duration_s : t -> float

val power_at_tick : t -> int -> float
(** Sample at tick [i], wrapping modulo the trace length. *)

val mean_power : t -> float
val duty_cycle : t -> float
(** Fraction of ticks with non-negligible (> 1 µW) power. *)

val constant : power:float -> duration_s:float -> t

val square : on_ms:int -> off_ms:int -> power:float -> duration_s:float -> t
(** Periodic bursts of [power] watts for [on_ms], then [off_ms] of
    nothing. *)

val rf_burst :
  ?burst_mean_ms:float ->
  ?quiet_mean_ms:float ->
  seed:int ->
  duration_s:float ->
  unit ->
  t
(** Markov burst/quiet RF-harvesting model.  Dwell times in each state
    are geometric with the given means (defaults: 3 ms bursts, 40 ms
    quiet); burst power is lognormal-ish around 1.5 mW with relative
    jitter 0.3 — which yields the paper's regime of active periods up to
    a few milliseconds. *)

val paper_suite : ?count:int -> seed:int -> duration_s:float -> unit -> t list
(** The evaluation's trace set: [count] (default 9, as in the paper)
    RF-burst traces with distinct sub-seeds and mildly varied burst
    statistics. *)
