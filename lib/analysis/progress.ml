open Wn_isa

(* ---------------- runtime models ---------------- *)

type runtime = {
  rt_name : string;
  rt_checkpoint_cycles : int;
  rt_restore_cycles : int;
  rt_watchdog_period : int option;
  rt_per_instruction : bool;
}

(* The costs come from [Wn_power.Runtime_costs], the same constants the
   executor's default policies read (the analysis library cannot depend
   on the runtime library: the runtime is downstream of the machine,
   the analysis upstream of the compiler). *)
let clank ?(watchdog_period = Wn_power.Runtime_costs.watchdog_period) () =
  {
    rt_name = "clank";
    rt_checkpoint_cycles = Wn_power.Runtime_costs.checkpoint_cycles;
    rt_restore_cycles = Wn_power.Runtime_costs.restore_cycles;
    rt_watchdog_period = Some watchdog_period;
    rt_per_instruction = false;
  }

let nvp () =
  {
    rt_name = "nvp";
    rt_checkpoint_cycles = 0;
    rt_restore_cycles = Wn_power.Runtime_costs.nvp_wakeup_cycles;
    rt_watchdog_period = None;
    rt_per_instruction = true;
  }

let skim_only () =
  {
    rt_name = "skim";
    rt_checkpoint_cycles = 0;
    rt_restore_cycles = Wn_power.Runtime_costs.restore_cycles;
    rt_watchdog_period = None;
    rt_per_instruction = false;
  }

(* ---------------- saturating cycle arithmetic ---------------- *)

(* Bounds saturate far below [max_int]: a saturated bound still compares
   as "exceeds any realistic budget" without ever wrapping. *)
let sat_cap = max_int / 4

let sat n = if n >= sat_cap then sat_cap else n

let sat_add a b = if a >= sat_cap - b then sat_cap else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a >= sat_cap / b then sat_cap else a * b

type bound = Finite of int | Unbounded of { binding_loop : int }

let pp_bound ppf = function
  | Finite c -> Format.fprintf ppf "%d" c
  | Unbounded { binding_loop } ->
      Format.fprintf ppf "unbounded (loop at pc %d)" binding_loop

(* ---------------- loop trip counts ---------------- *)

let negate_cond (c : Cond.t) =
  match c with
  | Cond.Al -> None
  | Cond.Eq -> Some Cond.Ne
  | Cond.Ne -> Some Cond.Eq
  | Cond.Lt -> Some Cond.Ge
  | Cond.Ge -> Some Cond.Lt
  | Cond.Gt -> Some Cond.Le
  | Cond.Le -> Some Cond.Gt
  | Cond.Lo -> Some Cond.Hs
  | Cond.Hs -> Some Cond.Lo
  | Cond.Mi -> Some Cond.Pl
  | Cond.Pl -> Some Cond.Mi

let ceil_div a b = (a + b - 1) / b

let signed_max = 0x8000_0000 (* exclusive bound for "fits signed compare" *)
let u32_max = Interval.u32_max

(* Worst-case iteration count of one natural loop (executions of any
   member per entry of the loop), or [None] when no sound static bound
   exists.  The recognized shape is a counted loop:

   - exactly one exit block, whose conditional branch is fed by the
     immediately preceding compare, and which dominates every back-edge
     source (the test runs on every iteration);
   - the counter has exactly one definition inside the loop — an
     add/sub of a positive constant — that also dominates every
     back-edge source;
   - no calls inside the loop (a callee could clobber the counter);
   - the counter's entry value and the compare's limit have usable
     intervals from the {!Interval} analysis (an immediate limit is the
     degenerate constant interval).

   If any skim target lies inside the loop, a restore can restart the
   body with a scrubbed (zero) counter, so the entry interval is joined
   with [0,0] before the trip arithmetic. *)
let loop_trip_bound (cfg : Cfg.t) itv ~skim_target_pcs (header, member_pcs) =
  let ( let* ) = Option.bind in
  let guard b = if b then Some () else None in
  let n = Array.length cfg.program in
  let member_blocks =
    List.sort_uniq Int.compare
      (List.map (fun pc -> cfg.block_of.(pc)) member_pcs)
  in
  let in_loop_blk b = List.mem b member_blocks in
  let* () =
    guard
      (not
         (List.exists
            (fun pc ->
              match cfg.program.(pc) with Instr.Bl _ -> true | _ -> false)
            member_pcs))
  in
  let header_b = cfg.block_of.(header) in
  let latches =
    List.filter (fun b -> List.mem header_b cfg.succ.(b)) member_blocks
  in
  (* Loop entry must be through the header alone (true for natural
     loops of a reducible region; give up otherwise). *)
  let* () =
    guard
      (not
         (List.exists
            (fun b ->
              b <> header_b
              && List.exists (fun p -> not (in_loop_blk p)) cfg.pred.(b))
            member_blocks))
  in
  let* exit_b =
    match
      List.filter
        (fun b -> List.exists (fun s -> not (in_loop_blk s)) cfg.succ.(b))
        member_blocks
    with
    | [ e ] -> Some e
    | _ -> None
  in
  let exit_first = cfg.blocks.(exit_b).first in
  let exit_last = cfg.blocks.(exit_b).last in
  let dominates_latches pc =
    List.for_all (fun l -> Cfg.dominates cfg pc cfg.blocks.(l).last) latches
  in
  let* () = guard (dominates_latches exit_first) in
  let* cond, target =
    match cfg.program.(exit_last) with
    | Instr.B (cond, target) when cond <> Cond.Al -> Some (cond, target)
    | _ -> None
  in
  (* condition under which execution stays in the loop *)
  let* cont =
    if target >= 0 && target < n && in_loop_blk cfg.block_of.(target) then
      Some cond
    else negate_cond cond
  in
  let* () = guard (exit_last - 1 >= exit_first) in
  let cmp_pc = exit_last - 1 in
  let* rn, lim =
    match cfg.program.(cmp_pc) with
    | Instr.Cmp_imm (rn, imm) -> Some (rn, Interval.const imm)
    | Instr.Cmp (rn, rm) -> Some (rn, Interval.reg_at itv cmp_pc rm)
    | _ -> None
  in
  let* () = guard (not (Interval.is_top lim)) in
  let* def_pc =
    match
      List.filter
        (fun pc -> List.exists (Reg.equal rn) (Instr.defs cfg.program.(pc)))
        member_pcs
    with
    | [ d ] -> Some d
    | _ -> None
  in
  let* () = guard (dominates_latches def_pc) in
  (* Counter value on loop entry: join of the header's outside
     predecessors' out-states (plus zero if a restore can land inside
     the loop with a scrubbed register file). *)
  let* init =
    List.fold_left
      (fun acc p ->
        if in_loop_blk p then acc
        else
          let v = Interval.reg_out_of_block itv p rn in
          match acc with
          | None -> Some v
          | Some a -> Some (Interval.join_itv a v))
      None cfg.pred.(header_b)
  in
  let init =
    if List.exists (fun t -> List.mem t member_pcs) skim_target_pcs then
      Interval.join_itv init (Interval.const 0)
    else init
  in
  let i_lo = init.Interval.lo and i_hi = init.Interval.hi in
  let l_lo = lim.Interval.lo and l_hi = lim.Interval.hi in
  match cfg.program.(def_pc) with
  | Instr.Alu_imm (Instr.Add, rd, rs, step)
    when Reg.equal rd rn && Reg.equal rs rn && step > 0 -> (
      (* up-counting *)
      match cont with
      | Cond.Lt when i_hi < signed_max && l_hi < signed_max ->
          Some (max 0 (ceil_div (l_hi - i_lo) step))
      | Cond.Le when i_hi < signed_max && l_hi + 1 < signed_max ->
          Some (max 0 (ceil_div (l_hi + 1 - i_lo) step))
      | Cond.Lo when l_hi - 1 + step <= u32_max ->
          (* Without the guard, a counter at limit-1 with step > 1 can
             wrap past a limit near u32_max and never exit. *)
          Some (max 0 (ceil_div (l_hi - i_lo) step))
      | Cond.Ne
        when i_lo = i_hi && l_lo = l_hi && l_lo >= i_lo
             && (l_lo - i_lo) mod step = 0 ->
          Some ((l_lo - i_lo) / step)
      | _ -> None)
  | Instr.Alu_imm (Instr.Sub, rd, rs, step)
    when Reg.equal rd rn && Reg.equal rs rn && step > 0 -> (
      (* down-counting *)
      match cont with
      | Cond.Gt when i_hi < signed_max && l_hi < signed_max ->
          Some (max 0 (ceil_div (i_hi - l_lo) step))
      | Cond.Ge when i_hi < signed_max && l_hi < signed_max ->
          Some (max 0 (ceil_div (i_hi - l_lo + 1) step))
      | Cond.Hs when l_lo >= step ->
          Some (max 0 (ceil_div (i_hi - l_lo + 1) step))
      | _ -> None)
  | _ -> None

(* ---------------- regions and WCEC ---------------- *)

type region_kind = Task_entry | Skim_target

let kind_name = function
  | Task_entry -> "task-entry"
  | Skim_target -> "skim-target"

type region = {
  rg_entry : int;
  rg_kind : region_kind;
  rg_first : int;
  rg_last : int;
  rg_size : int;
  rg_raw : bound;
  rg_capped : bound;
  rg_energy : int option;
  rg_heavy_loop : int option;
}

type report = {
  rp_runtime : runtime;
  rp_budget : int;
  rp_cycle_energy : float;
  rp_max_instr : int;
  rp_total : bound;
  rp_regions : region list;
  rp_trip_bounds : (int * int option) list;
}

(* Per-pc iteration multiplier: the product of (trips + 1) over every
   loop containing the pc (+1 covers the final exit test, which runs
   once more than the body).  A loop with no static trip count makes
   its members unbounded; the loop header is remembered as the binding
   loop.  Also per pc: the headers of the loops containing it, in
   [loops] order, so a region reads loop membership without
   re-deriving the loops. *)
let multipliers loops trip_bounds n =
  let mult = Array.make n 1 in
  let binding = Array.make n (-1) in
  let headers = Array.make n [] in
  List.iter2
    (fun (header, pcs) trips ->
      List.iter
        (fun pc ->
          headers.(pc) <- header :: headers.(pc);
          match trips with
          | Some t -> mult.(pc) <- sat_mul mult.(pc) (sat (t + 1))
          | None -> if binding.(pc) < 0 then binding.(pc) <- header)
        pcs)
    loops trip_bounds;
  (mult, binding, Array.map List.rev headers)

(* Worst-case cycles of a whole function (by entry pc), call costs
   folded in; recursion is unbounded. *)
let func_wcec cfg mult binding =
  let memo = Hashtbl.create 8 in
  let rec go visiting entry =
    match Hashtbl.find_opt memo entry with
    | Some b -> b
    | None ->
        if List.mem entry visiting then Unbounded { binding_loop = entry }
        else begin
          let acc = ref (Finite 0) in
          let add_cycles c =
            match !acc with
            | Finite a -> acc := Finite (sat_add a c)
            | Unbounded _ -> ()
          in
          let mark_unbounded header =
            match !acc with
            | Finite _ -> acc := Unbounded { binding_loop = header }
            | Unbounded _ -> ()
          in
          Array.iteri
            (fun pc i ->
              if cfg.Cfg.func_of.(pc) = entry then begin
                if binding.(pc) >= 0 then mark_unbounded binding.(pc)
                else add_cycles (sat_mul (Instr.worst_cycles i) mult.(pc));
                match i with
                | Instr.Bl t when t >= 0 && t < Array.length cfg.Cfg.program
                  -> (
                    match go (entry :: visiting) cfg.Cfg.func_of.(t) with
                    | Finite c -> add_cycles (sat_mul c mult.(pc))
                    | Unbounded _ as u -> (
                        match !acc with Finite _ -> acc := u | _ -> ()))
                | _ -> ()
              end)
            cfg.Cfg.program;
          Hashtbl.replace memo entry !acc;
          !acc
        end
  in
  go []

(* pcs of the region entered at [entry]: everything reachable along
   intraprocedural edges without crossing another boundary. *)
let region_pcs cfg ~boundaries entry =
  let seen = Hashtbl.create 64 in
  let rec go pc =
    if not (Hashtbl.mem seen pc) then begin
      Hashtbl.replace seen pc ();
      List.iter
        (fun s -> if not (List.mem s boundaries && s <> entry) then go s)
        (Cfg.instr_succs cfg pc)
    end
  in
  go entry;
  Hashtbl.fold (fun pc () acc -> pc :: acc) seen [] |> List.sort Int.compare

let region_raw_wcec cfg mult binding headers callee_cost pcs =
  let acc = ref (Finite 0) in
  let heavy = Hashtbl.create 8 in
  List.iter
    (fun pc ->
      let i = cfg.Cfg.program.(pc) in
      if binding.(pc) >= 0 then (
        match !acc with
        | Finite _ -> acc := Unbounded { binding_loop = binding.(pc) }
        | Unbounded _ -> ())
      else begin
        let c = sat_mul (Instr.worst_cycles i) mult.(pc) in
        (match !acc with
        | Finite a -> acc := Finite (sat_add a c)
        | Unbounded _ -> ());
        if mult.(pc) > 1 then begin
          (* attribute the cost to every loop containing this pc so the
             diagnostic can name the dominant one *)
          List.iter
            (fun header ->
              Hashtbl.replace heavy header
                (sat_add
                   (Option.value ~default:0 (Hashtbl.find_opt heavy header))
                   c))
            headers.(pc)
        end
      end;
      match i with
      | Instr.Bl t when t >= 0 && t < Array.length cfg.Cfg.program -> (
          match callee_cost cfg.Cfg.func_of.(t) with
          | Finite c -> (
              match !acc with
              | Finite a -> acc := Finite (sat_add a (sat_mul c mult.(pc)))
              | Unbounded _ -> ())
          | Unbounded _ as u -> (
              match !acc with Finite _ -> acc := u | _ -> ()))
      | _ -> ())
    pcs;
  let heaviest =
    Hashtbl.fold
      (fun header c acc ->
        match acc with
        | Some (_, best) when best >= c -> acc
        | _ -> Some (header, c))
      heavy None
  in
  (!acc, Option.map fst heaviest)

let analyze ?(runtime = clank ()) ?budget ?cycle_energy (cfg : Cfg.t) =
  let budget =
    match budget with Some b -> b | None -> Energy.default_restart_budget ()
  in
  let cycle_energy =
    match cycle_energy with
    | Some e -> e
    | None -> Energy.default_cycle_energy
  in
  let n = Array.length cfg.program in
  let itv = Interval.analyze cfg in
  let skim_target_pcs =
    List.filter_map
      (fun (_, t) -> if t >= 0 && t < n then Some t else None)
      cfg.skims
    |> List.sort_uniq Int.compare
  in
  let loops = Cfg.loops cfg in
  let trip_bounds =
    List.map (loop_trip_bound cfg itv ~skim_target_pcs) loops
  in
  let mult, binding, headers = multipliers loops trip_bounds n in
  let callee_cost = func_wcec cfg mult binding in
  let max_instr = Energy.max_instruction_cycles cfg in
  let whole_program =
    fst
      (region_raw_wcec cfg mult binding headers callee_cost
         (region_pcs cfg ~boundaries:[ 0 ] 0))
  in
  let boundaries = List.sort_uniq Int.compare (0 :: skim_target_pcs) in
  let cap_bound raw =
    if runtime.rt_per_instruction then
      Finite (sat_add runtime.rt_restore_cycles max_instr)
    else
      match runtime.rt_watchdog_period with
      | Some w ->
          (* A Clank-style epoch can span static region boundaries, so
             the per-charge unit is the watchdog-capped epoch (plus one
             instruction of slack: the watchdog fires before a step),
             program-wide — tightened by the whole-program bound when
             that is smaller. *)
          let epoch = sat_add w max_instr in
          let epoch =
            match whole_program with
            | Finite t -> min epoch t
            | Unbounded _ -> epoch
          in
          Finite
            (sat_add runtime.rt_restore_cycles
               (sat_add epoch runtime.rt_checkpoint_cycles))
      | None -> (
          match raw with
          | Finite r -> Finite (sat_add runtime.rt_restore_cycles r)
          | Unbounded _ as u -> u)
  in
  let regions =
    List.map
      (fun entry ->
        let pcs = region_pcs cfg ~boundaries entry in
        let raw, heavy =
          region_raw_wcec cfg mult binding headers callee_cost pcs
        in
        let capped = cap_bound raw in
        {
          rg_entry = entry;
          rg_kind = (if entry = 0 then Task_entry else Skim_target);
          rg_first = List.fold_left min entry pcs;
          rg_last = List.fold_left max entry pcs;
          rg_size = List.length pcs;
          rg_raw = raw;
          rg_capped = capped;
          rg_energy =
            (match capped with
            | Finite c -> Some (Energy.energy_of_cycles ~cycle_energy c)
            | Unbounded _ -> None);
          rg_heavy_loop = heavy;
        })
      boundaries
  in
  {
    rp_runtime = runtime;
    rp_budget = budget;
    rp_cycle_energy = cycle_energy;
    rp_max_instr = max_instr;
    rp_total = whole_program;
    rp_regions = regions;
    rp_trip_bounds =
      List.map2 (fun (header, _) t -> (header, t)) loops trip_bounds;
  }

let max_region_cycles report =
  List.fold_left
    (fun acc r ->
      match (acc, r.rg_capped) with
      | (Unbounded _ as u), _ | _, (Unbounded _ as u) -> u
      | Finite a, Finite b -> Finite (max a b))
    (Finite 0) report.rp_regions

let uj fj = Wn_power.Capacitor.joules fj *. 1e6

let diagnostics report =
  List.concat_map
    (fun r ->
      let span =
        Printf.sprintf "pcs %d..%d (%d instructions)" r.rg_first r.rg_last
          r.rg_size
      in
      let unbounded =
        match r.rg_raw with
        | Unbounded { binding_loop } ->
            [
              Diag.warningf ~pc:r.rg_entry ~rule:"progress-unbounded"
                "%s region covering %s has no static WCEC bound: the \
                 loop at pc %d has no provable trip count"
                (kind_name r.rg_kind) span binding_loop;
            ]
        | Finite _ -> []
      in
      let over_budget =
        match (r.rg_capped, r.rg_energy) with
        | Finite c, Some e when e > report.rp_budget ->
            let loop_note =
              match r.rg_heavy_loop with
              | Some h -> Printf.sprintf "; dominant loop at pc %d" h
              | None -> ""
            in
            [
              Diag.errorf ~pc:r.rg_entry ~rule:"progress-budget"
                "%s region covering %s needs up to %d cycles (%.3f uJ) \
                 per charge under %s, exceeding the usable capacitor \
                 budget of %.3f uJ (V_on->V_off)%s — the device cannot \
                 make forward progress"
                (kind_name r.rg_kind) span c (uj e) report.rp_runtime.rt_name
                (uj report.rp_budget) loop_note;
            ]
        | _ -> []
      in
      unbounded @ over_budget)
    report.rp_regions
  |> List.sort Diag.compare

let check ?runtime ?budget ?cycle_energy cfg =
  diagnostics (analyze ?runtime ?budget ?cycle_energy cfg)

let pp_report ppf report =
  Format.fprintf ppf
    "forward-progress: runtime %s, budget %.3f uJ (V_on->V_off), %.2f \
     nJ/cycle, max instruction %d cycles@."
    report.rp_runtime.rt_name (uj report.rp_budget)
    (report.rp_cycle_energy *. 1e9)
    report.rp_max_instr;
  Format.fprintf ppf "whole-program WCEC: %a cycles@." pp_bound
    report.rp_total;
  List.iter
    (fun (header, trips) ->
      match trips with
      | Some t ->
          Format.fprintf ppf "loop at pc %d: <= %d iterations@." header t
      | None ->
          Format.fprintf ppf "loop at pc %d: no static trip count@." header)
    report.rp_trip_bounds;
  Format.fprintf ppf
    "%-6s %-12s %-14s %-16s %-12s %s@." "entry" "kind" "pcs" "raw WCEC"
    "per-charge" "energy";
  List.iter
    (fun r ->
      let energy =
        match r.rg_energy with
        | Some e ->
            Printf.sprintf "%.3f uJ %s" (uj e)
              (if e > report.rp_budget then "OVER BUDGET" else "ok")
        | None -> "-"
      in
      Format.fprintf ppf "%-6d %-12s %3d..%-8d %-16s %-12s %s@." r.rg_entry
        (kind_name r.rg_kind) r.rg_first r.rg_last
        (Format.asprintf "%a" pp_bound r.rg_raw)
        (Format.asprintf "%a" pp_bound r.rg_capped)
        energy)
    report.rp_regions
