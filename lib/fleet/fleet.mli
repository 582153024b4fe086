(** Fleet-scale deployment simulation (the `wn fleet` service).

    A {!descriptor} expands into [devices] independent units — each a
    [(program, trace seed, capacitor, runtime, subword config)] device
    of a simulated deployment, the population-of-configurations framing
    of batteryless IoT (Approxify).  A long-lived {!Wn_exec.Pool}
    schedules the units in dynamically-pulled batches; every batch
    folds its devices into a bounded-memory streaming aggregator
    ({!Agg}: percentile sketch + moments, no sample lists), and the
    driver merges the per-batch aggregates in batch order — memory
    stays [O(batches * sketch)] whatever the fleet size, and the report
    is byte-identical at any [jobs].

    Shared across pool domains: the compiled programs (one
    [Runner.build] per [(benchmark, bits)], immutable after
    construction, exactly like the PR-5 read-only keyframe/skim
    stores).  Everything per-device — machine, memory, capacitor,
    supply, trace, RNG — is built inside the unit. *)

open Wn_workloads

type trace_class = Rf | Square | Constant

val trace_class_name : trace_class -> string
val trace_class_of_string : string -> trace_class option

type descriptor = {
  devices : int;  (** fleet size (>= 1) *)
  benchmarks : string list;  (** suite names, crossed with systems x bits *)
  systems : Wn_core.Intermittent.system list;
  bits_list : int list;
  scale : Workload.scale;
  samples_per_device : int;  (** tasks streamed through each device *)
  trace_class : trace_class;
  trace_duration_s : float;
  seed : int;  (** root seed; every device derives distinct sub-seeds *)
  capacitance : float;  (** farads, per device *)
  cycle_energy : float;
  batch : int;  (** units per scheduled batch; 0 = auto (~256 batches) *)
  sketch_capacity : int;
  engine : Wn_runtime.Executor.engine;
      (** stepping engine per device (default [Block]); the report is
          byte-identical across engines *)
}

val default : descriptor
(** 1000 devices of MatAdd\@8 under Clank on 4 s RF traces, 1 task
    each, 10 µF, auto batching, sketch capacity 256. *)

type unit_spec = {
  device : int;
  bench : string;
  system : Wn_core.Intermittent.system;
  bits : int;
  trace_seed : int;
  input_seed : int;
}

val expand : descriptor -> unit_spec array
(** The descriptor's unit list: device [d] takes configuration
    [d mod (benchmarks x systems x bits)] (round-robin) and the
    sub-seeds [seed + 2d] / [seed + 2d + 1].  A pure function of the
    descriptor — the schedule never depends on [jobs]. *)

val batch_size : descriptor -> int
(** The effective units-per-batch: [batch] if positive, else
    [ceil (devices / 256)] — bounded aggregate count, jobs-independent. *)

type report = {
  descriptor : descriptor;
  configs : string list;  (** expanded configuration labels, in order *)
  units : int;
  tasks : int;
  completed : int;
  skimmed : int;
  quality : Agg.summary;  (** NRMSE %% vs golden, completed tasks only *)
  energy : Agg.summary;  (** µJ drained per task *)
  outages : Agg.summary;  (** outages per task *)
  ontime : Agg.summary;  (** %% of wall cycles spent computing (incl. overhead) *)
}

val run : ?jobs:int -> descriptor -> report
(** Simulate the fleet.  Raises [Invalid_argument] on a malformed
    descriptor ([devices]/[samples_per_device]/[sketch_capacity] out of
    range, a [capacitance] {!Wn_power.Capacitor.create} rejects, empty
    configuration lists) and [Not_found] on an unknown
    benchmark name — the CLI validates first.  The report is
    byte-identical under {!pp}/{!to_json} for every [jobs] >= 1. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> string
(** Machine-readable report (schema [wn-fleet/1]). *)
