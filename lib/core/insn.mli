(** Dynamic instruction-count measurement — the optimizer's yardstick.

    Counts retired instructions for one completed always-on task per
    benchmark, for the precise baseline, the anytime build, and the
    anytime build with every optimizer pass disabled.  All counts are
    pure functions of (workload, seed, bits), so they are bit-identical
    across machines — which is what lets a runtest rule in test/dune
    pin them, unlike the wall-clock numbers in BENCH_machine.json. *)

open Wn_workloads

type row = {
  bench : string;
  bits : int;
  precise_retired : int;  (** precise baseline, all passes on *)
  anytime_retired : int;  (** anytime build, all passes on *)
  anytime_retired_noopt : int;  (** anytime build, optimizer off *)
  wn_pct : float;
      (** Table I Insn%: WN-extension instructions as a share of the
          anytime build's retired instructions *)
  reduction_pct : float;
      (** retired-instruction saving of the optimizer on the anytime
          build, in percent of the pass-off count *)
}

type report = {
  scale : Workload.scale;
  seed : int;
  rows : row list;
  scenarios : (string * int) list;
      (** named scenario counters, e.g. {!shadowmap_key} *)
}

val shadowmap_key : string
(** ["fig10:executor_clank_shadowmap"] — the pinned scenario
    counter: the Var\@8 anytime task under the Clank runtime on an
    always-on supply (the scenario the microbenchmark of the same name
    times), in retired instructions. *)

val measure :
  ?seed:int -> ?bits:int -> ?scale:Workload.scale -> Workload.t list -> report

val pp : Format.formatter -> report -> unit

val json : report -> string
(** Flat ["wn-insn/1"] object mirroring the BENCH_machine.json shape:
    one integer counter per benchmark/build pair plus the scenario
    counters.  Its [results] must equal the [insn] section of the
    committed BASELINE_work.json key for key (a runtest rule in
    test/dune). *)
