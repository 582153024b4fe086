(* 65 nm first-order constants.
   - NAND2-equivalent gate area: 1.44 µm² (typical 65 nm standard cell).
   - Full adder: 6 gate equivalents; 2:1 mux: 4 gate equivalents.
   - Ripple-carry stage delay: 26 ps; mux insertion delay: 9 ps.
   - Cortex M0+ subsystem (core + SRAM, cf. Myers et al. [38]):
     ~0.25 mm².
   - 6T SRAM bit: 0.525 µm²; small-array periphery factor ~2 (CACTI-
     style overhead for decoders/sense on a 16-entry direct-mapped
     table).
   - Gate dynamic power ∝ activity: carry-chain FAs switch heavily
     (α ≈ 0.5); the boundary muxes mostly hold their select (α ≈ 0.14). *)

let gate_area_um2 = 1.44
let fa_gates = 6
let mux_gates = 4
let fa_delay_ns = 0.026
let mux_delay_ns = 0.009
let core_area_um2_const = 250_000.0
let sram_bit_um2 = 0.525
let sram_periphery = 2.0
let fa_activity = 0.5
let mux_activity = 0.14

type adder_report = {
  full_adders : int;
  mux_count : int;
  adder_gates : int;
  mux_gates : int;
  mux_area_um2 : float;
  core_area_um2 : float;
  area_overhead_pct : float;
  adder_power_overhead_pct : float;
  critical_path_ns : float;
  fmax_ghz : float;
  operating_mhz : float;
}

let adder () =
  let full_adders = 32 in
  (* A mux at every 4-bit boundary: 32/4 - 1 = 7 (Figure 8). *)
  let mux_count = (full_adders / 4) - 1 in
  let adder_gates = full_adders * fa_gates in
  let mux_total_gates = mux_count * mux_gates in
  let mux_area = float_of_int mux_total_gates *. gate_area_um2 in
  let critical_path =
    (float_of_int full_adders *. fa_delay_ns)
    +. (float_of_int mux_count *. mux_delay_ns)
  in
  {
    full_adders;
    mux_count;
    adder_gates;
    mux_gates = mux_total_gates;
    mux_area_um2 = mux_area;
    core_area_um2 = core_area_um2_const;
    area_overhead_pct = 100.0 *. mux_area /. core_area_um2_const;
    adder_power_overhead_pct =
      100.0
      *. (float_of_int mux_total_gates *. mux_activity)
      /. (float_of_int adder_gates *. fa_activity);
    critical_path_ns = critical_path;
    fmax_ghz = 1.0 /. critical_path;
    operating_mhz = 24.0;
  }

type memo_report = {
  entries : int;
  tag_bits : int;
  data_bits : int;
  table_bits : int;
  table_area_um2 : float;
  multiplier_area_um2 : float;
  ratio_pct : float;
}

let memo_table () =
  let entries = 16 and operand_bits = 16 in
  let index_bits =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    log2 entries
  in
  (* Tag: the operand bits the index does not cover — 28 bits for
     16-bit memoization with 16 entries, as in the paper. *)
  let tag_bits = (2 * operand_bits) - index_bits in
  let data_bits = 2 * operand_bits in
  let table_bits = entries * (tag_bits + data_bits) in
  let table_area =
    float_of_int table_bits *. sram_bit_um2 *. sram_periphery
  in
  (* Array multiplier: operand_bits² cells of one AND + one FA each. *)
  let mult_gates = operand_bits * operand_bits * (fa_gates + 1) in
  let mult_area = float_of_int mult_gates *. gate_area_um2 in
  {
    entries;
    tag_bits;
    data_bits;
    table_bits;
    table_area_um2 = table_area;
    multiplier_area_um2 = mult_area;
    ratio_pct = 100.0 *. table_area /. mult_area;
  }

let pp_adder ppf r =
  Format.fprintf ppf
    "SWV adder: %d muxes (%d gates, %.1f um2) on a %d-FA carry chain@\n\
     area overhead vs M0+ subsystem: %.3f%%@\n\
     adder power overhead: %.1f%%@\n\
     critical path %.3f ns -> Fmax %.2f GHz (operating point %.0f MHz)"
    r.mux_count r.mux_gates r.mux_area_um2 r.full_adders r.area_overhead_pct
    r.adder_power_overhead_pct r.critical_path_ns r.fmax_ghz r.operating_mhz

let pp_memo ppf r =
  Format.fprintf ppf
    "memo table: %d entries, %d tag + %d data bits (%d bits total), %.0f um2@\n\
     16x16 multiplier: %.0f um2 -> table is %.1f%% of the multiplier"
    r.entries r.tag_bits r.data_bits r.table_bits r.table_area_um2
    r.multiplier_area_um2 r.ratio_pct
