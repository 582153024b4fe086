(** Outage-point fault-injection sweeps over the benchmark suite.

    Drives {!Wn_faults.Faults} across many instruction boundaries of a
    workload — exhaustively for small programs, or by seeded stratified
    sampling biased toward checkpoint/SKM/store neighbourhoods — fanning
    the injected runs out over a {!Wn_exec.Pool}.  Every injected run is
    a pure function of (workload, config, boundary), and verdicts are
    re-merged in boundary order, so the report is bit-identical for
    every [jobs] value. *)

open Wn_workloads

type mode =
  | Exhaustive  (** every boundary in [1, retired - 1] *)
  | Sampled of int
      (** at least this many distinct boundaries (capped by the
          exhaustive count): half uniform, half drawn from store /
          checkpoint / SKM neighbourhoods (±2 instructions), plus the
          first/last boundaries and the first-skim edge as anchors *)

type config = {
  system : Intermittent.system;
  skim : bool;  (** anytime build (skim points compiled in) vs precise *)
  bits : int;
  input_seed : int;  (** input-sample generator seed *)
  sample_seed : int;  (** boundary-sampling seed *)
  off_cycles : int;  (** powered-off period per injected outage *)
  differential : bool;
      (** additionally run every point under the [Reference] engine
          (every instruction through the ISA spec) and require
          bit-identical restore state and outcome *)
  keyframe_interval : int;
      (** retired instructions between keyframe snapshots of the
          continuous run; injected points then replay at most this many
          prefix instructions instead of the whole prefix.  [0]
          disables keyframes (every point replays from instruction 0);
          {!auto_keyframe_interval} ([-1], the default) derives the
          interval from the surveyed boundary count via
          {!Wn_faults.Faults.auto_keyframe_interval}.  Reports are
          byte-identical for every value. *)
  delta_frames : bool;
      (** keyframes as delta snapshots sharing unwritten memory pages
          with the previous frame (default) vs isolated full copies.
          Observably identical — reports are byte-identical either way;
          deltas are only smaller and faster to capture. *)
  engine : Wn_runtime.Executor.engine;
      (** stepping engine for the injected runs (default [Block]);
          reports are byte-identical across engines.  The differential
          re-run always uses [Reference] regardless. *)
}

val auto_keyframe_interval : int
(** Sentinel [keyframe_interval] (-1): derive the interval from the
    surveyed boundary count.  Values below it are rejected by
    {!sweep}. *)

val default_config : config
(** Clank, anytime build, 8-bit subwords, seeds 5/11, default
    off-period, no differential, auto keyframe interval, delta
    keyframes. *)

type report = {
  workload : string;
  config : config;
  retired : int;  (** continuous-run length in instructions *)
  first_skim : int option;
  checkpoints_continuous : int;
      (** checkpoints the policy places on an uninterrupted run *)
  exhaustive : bool;
  points : int;
  boundaries : int array;
      (** the injected boundaries, sorted ascending — a pure function
          of (workload, config, mode), so identical across [jobs]
          values, engines and keyframe settings *)
  skim_commits : int;  (** injected points that finished via skim *)
  violations : (int * string) list;
      (** (boundary, oracle message), in boundary order *)
}

val scenario : config:config -> Workload.t -> Wn_faults.Faults.scenario
(** The scenario {!sweep} surveys and injects into: the workload built
    and loaded as [config] says (bits, skim, input seed) under its
    system's policy. *)

val sweep : ?jobs:int -> mode:mode -> config:config -> Workload.t -> report

val pp : Format.formatter -> report -> unit
(** Deterministic human-readable report (the CI artifact format). *)
