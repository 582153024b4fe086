open Wn_isa

(* The static cost model is the execution cost model, not a copy of it:
   per-instruction worst-case latency comes from [Instr.worst_cycles]
   (the same table [Machine.step_fast], [step_reference] and fused
   blocks pay, with memoization and zero-skipping only ever shortening
   it), and the cycle-energy and capacitor-budget constants, and the
   femtojoule unit they compare in, come from [Wn_power]. *)

let default_cycle_energy = Wn_power.Supply.default_cycle_energy

let worst_cycles = Instr.worst_cycles

let energy_of_cycles ~cycle_energy cycles =
  let per_cycle = Wn_power.Capacitor.femtojoules cycle_energy in
  if per_cycle = 0 || cycles <= max_int / per_cycle then cycles * per_cycle
  else max_int

let max_instruction_cycles (cfg : Cfg.t) =
  Array.fold_left (fun acc i -> max acc (worst_cycles i)) 0 cfg.program

let restart_budget = Wn_power.Capacitor.restart_budget

let default_restart_budget () =
  restart_budget (Wn_power.Capacitor.create ())
