open Wn_isa

(* An instruction is fusible when executing it inside a superinstruction
   cannot be observed by anything that acts *between* instructions:

   - it never redirects control (straight-line only), so the block's
     exit pc is static;
   - it never writes memory, so a power failure at any interior boundary
     tears nothing (re-execution from the block entry is idempotent and
     the Clank WAR pre-check has nothing to veto);
   - it never latches a skim target (the executor reacts to [Skm] at the
     very boundary it retires);
   - its latency is statically known, so the block's total cycle cost —
     and hence its worst-case energy — is a compile-time constant equal
     to the sum of [Instr.worst_cycles].  This is why a memoizable
     multiply is excluded: with a memo table or zero-skipping enabled its
     latency is 1 or full depending on dynamic state, and the executor's
     energy guard could no longer price the block statically. *)
let fusible ~memoizable (i : 'lbl Instr.t) =
  match i with
  | Instr.Nop | Instr.Mov_imm _ | Instr.Movt _ | Instr.Mov _ | Instr.Alu _
  | Instr.Alu_imm _ | Instr.Shift _ | Instr.Sqrt _ | Instr.Sqrt_asp _
  | Instr.Add_asv _ | Instr.Sub_asv _ | Instr.Cmp _ | Instr.Cmp_imm _
  | Instr.Ldr _ | Instr.Ldr_reg _ ->
      true
  | Instr.Mul _ | Instr.Mul_asp _ -> not memoizable
  | Instr.Halt | Instr.Str _ | Instr.Str_reg _ | Instr.B _ | Instr.Bl _
  | Instr.Bx_lr | Instr.Skm _ ->
      false

type run = {
  r_first : int;
  r_len : int;
  r_cycles : int;
  r_loads : int;
}

let min_run_len = 2

(* Maximal fusible sub-runs of each CFG basic block, in address order.
   Runs never cross a block boundary: every branch target (and skim
   restore target) is a CFG leader, so any pc an execution can jump to
   is either a run's first instruction or outside every run — entering
   a run mid-way is impossible except by falling through from the
   previous instruction, which is exactly the fused execution order.
   Single-instruction runs are dropped ([min_run_len]): a length-1
   superinstruction costs the same as the per-step path it replaces. *)
let plan ~memoizable program =
  let cfg = Cfg.build program in
  let runs = ref [] in
  let emit first last =
    let len = last - first + 1 in
    if len >= min_run_len then begin
      let cycles = ref 0 and loads = ref 0 in
      for pc = first to last do
        let i = program.(pc) in
        cycles := !cycles + Instr.worst_cycles i;
        if Instr.reads_memory i then incr loads
      done;
      runs :=
        { r_first = first; r_len = len; r_cycles = !cycles; r_loads = !loads }
        :: !runs
    end
  in
  Array.iter
    (fun (b : Cfg.block) ->
      let start = ref (-1) in
      for pc = b.Cfg.first to b.Cfg.last do
        if fusible ~memoizable program.(pc) then begin
          if !start < 0 then start := pc
        end
        else begin
          if !start >= 0 then emit !start (pc - 1);
          start := -1
        end
      done;
      if !start >= 0 then emit !start b.Cfg.last)
    cfg.Cfg.blocks;
  List.rev !runs

type stats = {
  instructions : int;  (** program length *)
  fused_instructions : int;  (** instructions covered by some run *)
  runs : int;
  histogram : (int * int) list;  (** (run length, count), ascending *)
}

let stats ~memoizable program =
  let rs = plan ~memoizable program in
  let tbl = Hashtbl.create 16 in
  let covered = ref 0 in
  List.iter
    (fun r ->
      covered := !covered + r.r_len;
      Hashtbl.replace tbl r.r_len
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r.r_len)))
    rs;
  {
    instructions = Array.length program;
    fused_instructions = !covered;
    runs = List.length rs;
    histogram =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
  }
