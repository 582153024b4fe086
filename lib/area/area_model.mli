(** Analytical area/power/frequency model for Section V-D.

    The paper synthesises the WN additions with Synopsys DC in TSMC
    65 nm and reports: Fmax 1.12 GHz (far above the 24 MHz operating
    point), +0.02% core area and +4% adder power for the seven
    carry-chain muxes of Figure 8, and a 16-entry memo table occupying
    40.5% of a 16×16 multiplier.  No synthesis flow is available here,
    so this module reproduces those numbers from first-order gate
    models with 65 nm constants (documented below); the structure —
    what is counted, and what it is normalised against — follows the
    paper. *)

type adder_report = {
  full_adders : int;  (** 32, one per datapath bit *)
  mux_count : int;  (** 7, one per 4-bit lane boundary (Figure 8) *)
  adder_gates : int;
  mux_gates : int;
  mux_area_um2 : float;
  core_area_um2 : float;  (** M0+ subsystem (core + memories), 65 nm *)
  area_overhead_pct : float;  (** paper: 0.02% *)
  adder_power_overhead_pct : float;  (** paper: 4% *)
  critical_path_ns : float;
  fmax_ghz : float;  (** paper: 1.12 GHz *)
  operating_mhz : float;  (** 24 MHz — the margin that makes the muxes free *)
}

val adder : unit -> adder_report

type memo_report = {
  entries : int;
  tag_bits : int;
  data_bits : int;
  table_bits : int;
  table_area_um2 : float;
  multiplier_area_um2 : float;
  ratio_pct : float;  (** paper: 40.5% of a 16×16 multiplier *)
}

val memo_table : unit -> memo_report
(** The paper's 16-entry table for 16-bit operands.  Tag width follows
    the paper: both operands' bits minus the index bits (28 tag
    bits). *)

val pp_adder : Format.formatter -> adder_report -> unit
val pp_memo : Format.formatter -> memo_report -> unit
