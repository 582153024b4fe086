(* Differential tests for the simulator fast path: the predecoded
   allocation-free [Machine.step_fast] and the fused [step_block]
   against the reference interpreter [Machine.step_reference], lockstep
   over the full workload suite; the executor's [Block] engine against
   [Reference] under every intermittency policy; and the
   zero-allocation guarantee itself via [Gc.minor_words]. *)

open Wn_isa
open Wn_workloads
open Wn_machine
open Wn_runtime

let wcfg = { Workload.bits = 8; provisioned = true }

let machine_configs =
  [
    ("baseline", Machine.default_config);
    ("memo+zs", { Machine.memo_entries = Some 16; Machine.zero_skip = true });
  ]

let max_lockstep_steps = 500_000

(* ---------------- machine-level lockstep ---------------- *)

(* Every effect-scratch field, byte counts included (both steppers keep
   them sticky across instructions without such an access). *)
let check_scratch_equal name step m_ref m =
  let fail fmt = Alcotest.failf ("%s step %d: " ^^ fmt) name step in
  let ints =
    [
      ("last_pc", Machine.last_pc);
      ("cycles", Machine.last_cycles);
      ("read addr", Machine.last_read_addr);
      ("read bytes", Machine.last_read_bytes);
      ("wrote addr", Machine.last_wrote_addr);
      ("wrote bytes", Machine.last_wrote_bytes);
    ]
  in
  List.iter
    (fun (field, get) ->
      if get m_ref <> get m then fail "%s %d vs %d" field (get m_ref) (get m))
    ints;
  if Machine.last_was_skm m_ref <> Machine.last_was_skm m then
    fail "skm flag %b vs %b" (Machine.last_was_skm m_ref) (Machine.last_was_skm m)

(* The whole contents of a memory, as raw bytes. *)
let all_bytes mem =
  Wn_mem.Memory.region mem ~addr:0 ~len:(Wn_mem.Memory.size mem)

let check_machines_equal name m_ref m_fast =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  if Machine.pc m_ref <> Machine.pc m_fast then
    fail "pc %d vs %d" (Machine.pc m_ref) (Machine.pc m_fast);
  if Machine.flags m_ref <> Machine.flags m_fast then fail "flags differ";
  if Machine.halted m_ref <> Machine.halted m_fast then fail "halt differs";
  if Machine.skim_target m_ref <> Machine.skim_target m_fast then
    fail "skim target differs";
  for i = 0 to Reg.count - 1 do
    let r = Reg.r i in
    if Machine.reg m_ref r <> Machine.reg m_fast r then
      fail "r%d: %d vs %d" i (Machine.reg m_ref r) (Machine.reg m_fast r)
  done;
  if
    Machine.instructions_retired m_ref <> Machine.instructions_retired m_fast
  then
    fail "retired %d vs %d"
      (Machine.instructions_retired m_ref)
      (Machine.instructions_retired m_fast);
  if Machine.cycles_executed m_ref <> Machine.cycles_executed m_fast then
    fail "cycles %d vs %d"
      (Machine.cycles_executed m_ref)
      (Machine.cycles_executed m_fast);
  if Machine.wn_instructions m_ref <> Machine.wn_instructions m_fast then
    fail "wn retired differ";
  (match (Machine.memo m_ref, Machine.memo m_fast) with
  | Some a, Some b ->
      if Memo.hits a <> Memo.hits b || Memo.misses a <> Memo.misses b then
        fail "memo counters (%d,%d) vs (%d,%d)" (Memo.hits a) (Memo.misses a)
          (Memo.hits b) (Memo.misses b)
  | None, None -> ()
  | _ -> fail "memo presence differs");
  if all_bytes (Machine.mem m_ref) <> all_bytes (Machine.mem m_fast) then
    fail "memory images differ"

let lockstep_workload wname (cfg_name, mcfg) () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build w wcfg in
  let m_ref = Wn_core.Runner.machine ~machine_config:mcfg b in
  let m_fast = Wn_core.Runner.machine ~machine_config:mcfg b in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 42) in
  Wn_core.Runner.load_sample b m_ref inputs;
  Wn_core.Runner.load_sample b m_fast inputs;
  let name = Printf.sprintf "%s/%s" wname cfg_name in
  let steps = ref 0 in
  while (not (Machine.halted m_ref)) && !steps < max_lockstep_steps do
    incr steps;
    Machine.step_reference m_ref;
    Machine.step_fast m_fast;
    check_scratch_equal name !steps m_ref m_fast;
    if Machine.pc m_ref <> Machine.pc m_fast then
      Alcotest.failf "%s step %d: pc %d vs %d" name !steps (Machine.pc m_ref)
        (Machine.pc m_fast)
  done;
  check_machines_equal name m_ref m_fast;
  if !steps = 0 then Alcotest.fail "workload executed no instructions"

(* ---------------- machine-level: step_block vs reference ----------------

   The block engine retires whole fused runs per dispatch, so the
   lockstep drives the reference interpreter forward to the block
   machine's retirement count after every dispatch and compares
   architectural state and effect scratch there — every block boundary
   is checked, and per-instruction fallback steps degenerate to the
   per-step lockstep above. *)

(* Drives [m_blk] to halt with [step_block] and [m_ref] along with it;
   returns the number of instructions each dispatch retired, in
   order. *)
let block_lockstep name m_ref m_blk =
  let dispatches = ref 0 in
  let retired = ref [] in
  while (not (Machine.halted m_blk)) && !dispatches < max_lockstep_steps do
    incr dispatches;
    let before = Machine.instructions_retired m_blk in
    Machine.step_block m_blk;
    let n = Machine.instructions_retired m_blk - before in
    retired := n :: !retired;
    for _ = 1 to n do
      Machine.step_reference m_ref
    done;
    if Machine.pc m_ref <> Machine.pc m_blk then
      Alcotest.failf "%s dispatch %d: pc %d vs %d" name !dispatches
        (Machine.pc m_ref) (Machine.pc m_blk);
    check_scratch_equal name !dispatches m_ref m_blk
  done;
  check_machines_equal name m_ref m_blk;
  List.rev !retired

let lockstep_block_workload wname (cfg_name, mcfg) () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build w wcfg in
  let m_ref = Wn_core.Runner.machine ~machine_config:mcfg b in
  let m_blk = Wn_core.Runner.machine ~machine_config:mcfg b in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 42) in
  Wn_core.Runner.load_sample b m_ref inputs;
  Wn_core.Runner.load_sample b m_blk inputs;
  let name = Printf.sprintf "%s/%s/block" wname cfg_name in
  let retired = block_lockstep name m_ref m_blk in
  if not (List.exists (fun n -> n > 1) retired) then
    Alcotest.failf "%s: no fused block was ever dispatched" name

(* Every constructor [Fuse.fusible] accepts, inside a fused run.  The
   suite's kernels never fuse some of them (Nop, most logical ALU ops,
   Sub_asv, compares, immediate-offset loads), so random straight-line
   runs ending in [Halt] cover them here.  Loads address [base + off]
   or [base + idx] in bounds: no generated instruction writes the base
   and index registers. *)
let fuzz_mem_bytes = 256
let addr_span = 100
let base_reg = Reg.r 12
let idx_reg = Reg.r 11

let gen_fusible : int Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let src = map Reg.r (int_range 0 12) in
  let dst = map Reg.r (int_range 0 10) in
  let alu = oneofl Instr.[ Add; Sub; And; Orr; Eor; Bic; Adc; Sbc ] in
  let lanes = oneofl [ 1; 2; 4; 8; 16 ] in
  let access = pair (oneofl Instr.[ Byte; Half; Word ]) bool in
  oneof
    [
      return Instr.Nop;
      map2 (fun rd i -> Instr.Mov_imm (rd, i)) dst (int_bound 0xFFFF);
      map2 (fun rd i -> Instr.Movt (rd, i)) dst (int_bound 0xFFFF);
      map2 (fun rd rn -> Instr.Mov (rd, rn)) dst src;
      map3 (fun op rd (rn, rm) -> Instr.Alu (op, rd, rn, rm)) alu dst (pair src src);
      map3 (fun op rd (rn, i) -> Instr.Alu_imm (op, rd, rn, i)) alu dst
        (pair src (int_bound 0xFFF));
      map3 (fun op (rd, rn) sh -> Instr.Shift (op, rd, rn, sh))
        (oneofl Instr.[ Lsl; Lsr; Asr ])
        (pair dst src) (int_bound 31);
      map3 (fun rd rn rm -> Instr.Mul (rd, rn, rm)) dst src src;
      map3
        (fun (bits, signed) (rd, rn) shift ->
          Instr.Mul_asp { bits; signed; rd; rn; shift })
        (pair (int_range 1 16) bool)
        (pair dst src) (int_bound 31);
      map3 (fun w rd (rn, rm) -> Instr.Add_asv (w, rd, rn, rm)) lanes dst (pair src src);
      map3 (fun w rd (rn, rm) -> Instr.Sub_asv (w, rd, rn, rm)) lanes dst (pair src src);
      map2 (fun rd rn -> Instr.Sqrt (rd, rn)) dst src;
      map3 (fun bits rd rn -> Instr.Sqrt_asp { bits; rd; rn }) (int_range 1 16) dst src;
      map2 (fun rn rm -> Instr.Cmp (rn, rm)) src src;
      map2 (fun rn i -> Instr.Cmp_imm (rn, i)) src (int_bound 0xFFFF);
      map3
        (fun (width, signed) rd off ->
          Instr.Ldr { width; signed; rd; base = base_reg; off })
        access dst (int_bound addr_span);
      map2
        (fun (width, signed) rd ->
          Instr.Ldr_reg { width; signed; rd; base = base_reg; idx = idx_reg })
        access dst;
    ]

(* A run, the initial r0-r10, index and base registers, and the initial
   memory bytes.  Register values favour zero and small operands so the
   multiply shortcuts fire. *)
let arb_fused_case =
  let open QCheck.Gen in
  let value =
    frequency
      [ (1, return 0); (2, int_bound 0xFF); (2, int_bound 0xFFFF); (3, int_bound 0xFFFF_FFFF) ]
  in
  let gen =
    triple
      (list_size (int_range 2 40) gen_fusible)
      (pair (list_repeat 11 value) (pair (int_bound addr_span) (int_bound addr_span)))
      (array_repeat fuzz_mem_bytes (int_bound 0xFF))
  in
  let print (instrs, _, _) =
    String.concat "; " (List.map (Format.asprintf "%a" Instr.pp_resolved) instrs)
  in
  QCheck.make ~print gen

let prop_fused_opcodes (cfg_name, mcfg) =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "every fusible opcode, %s" cfg_name)
    arb_fused_case
    (fun (instrs, (values, (idx, base)), bytes) ->
      let program = Array.of_list (instrs @ [ Instr.Halt ]) in
      let machine () =
        let mem = Wn_mem.Memory.create ~size:fuzz_mem_bytes in
        Array.iteri (Wn_mem.Memory.write8 mem) bytes;
        let m = Machine.create ~config:mcfg ~program ~mem () in
        List.iteri (fun i v -> Machine.set_reg m (Reg.r i) v) values;
        Machine.set_reg m idx_reg idx;
        Machine.set_reg m base_reg base;
        m
      in
      let retired = block_lockstep cfg_name (machine ()) (machine ()) in
      (* Under the default configuration every generated instruction is
         fusible, so the first dispatch retires the whole run. *)
      mcfg <> Machine.default_config || List.hd retired = List.length instrs)

(* Fused-run metadata must agree with the planner it was compiled from:
   same runs, same worst-case cycle totals, same load counts. *)
let test_block_table_matches_plan () =
  List.iter
    (fun wname ->
      let w = Suite.find Workload.Small wname in
      let b = Wn_core.Runner.build w wcfg in
      let m = Wn_core.Runner.machine b in
      let program = Machine.program m in
      let plan = Wn_analysis.Fuse.plan ~memoizable:false program in
      List.iter
        (fun (r : Wn_analysis.Fuse.run) ->
          match Machine.block_at m r.Wn_analysis.Fuse.r_first with
          | None ->
              Alcotest.failf "%s: no fused block at pc %d" wname
                r.Wn_analysis.Fuse.r_first
          | Some blk ->
              Alcotest.(check int) "len" r.Wn_analysis.Fuse.r_len
                (Machine.block_len blk);
              Alcotest.(check int) "cycles" r.Wn_analysis.Fuse.r_cycles
                (Machine.block_cycles blk);
              Alcotest.(check int) "loads" r.Wn_analysis.Fuse.r_loads
                (Machine.block_loads blk))
        plan)
    Suite.names

(* Snapshot/restore round-trip taken mid-run between block dispatches:
   the resumed machine must finish in the same state as the
   uninterrupted one. *)
let test_block_snapshot_roundtrip () =
  let w = Suite.find Workload.Small "Var" in
  let b = Wn_core.Runner.build w wcfg in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 3) in
  let m1 = Wn_core.Runner.machine b in
  Wn_core.Runner.load_sample b m1 inputs;
  (* Uninterrupted block-engine run to halt. *)
  let steps = ref 0 in
  while (not (Machine.halted m1)) && !steps < max_lockstep_steps do
    incr steps;
    Machine.step_block m1
  done;
  (* Interrupted run: snapshot after 40 dispatches, restore into a
     fresh machine, finish under the block engine. *)
  let m2 = Wn_core.Runner.machine b in
  Wn_core.Runner.load_sample b m2 inputs;
  for _ = 1 to 40 do
    Machine.step_block m2
  done;
  let snap = Machine.snapshot m2 in
  let m3 = Wn_core.Runner.machine b in
  Machine.restore m3 snap;
  let steps = ref 0 in
  while (not (Machine.halted m3)) && !steps < max_lockstep_steps do
    incr steps;
    Machine.step_block m3
  done;
  check_machines_equal "Var/block snapshot roundtrip" m1 m3

(* ---------------- executor-level: Block vs Reference ---------------- *)

let policies =
  [
    ("always_on", Executor.Always_on);
    ("nvp", Executor.Nvp Executor.default_nvp);
    ("clank", Executor.Clank Executor.default_clank);
  ]

let run_with_engine engine b w inputs policy =
  let mcfg = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m = Wn_core.Runner.machine ~machine_config:mcfg b in
  Wn_core.Runner.load_sample b m inputs;
  let trace =
    Wn_power.Trace.square ~on_ms:3 ~off_ms:30 ~power:2e-3 ~duration_s:4.0
  in
  let supply =
    Wn_power.Supply.create ~trace ~capacitor:(Wn_power.Capacitor.create ()) ()
  in
  let outcome = Executor.run ~policy ~engine ~machine:m ~supply () in
  ignore w;
  (outcome, all_bytes (Machine.mem m))

let check_outcomes_equal name (o_a, mem_a) (o_b, mem_b) =
  let check_int field a b =
    if a <> b then Alcotest.failf "%s: %s %d vs %d" name field a b
  in
  check_int "wall_cycles" o_a.Executor.wall_cycles o_b.Executor.wall_cycles;
  check_int "active_cycles" o_a.Executor.active_cycles
    o_b.Executor.active_cycles;
  check_int "overhead_cycles" o_a.Executor.overhead_cycles
    o_b.Executor.overhead_cycles;
  check_int "reexecuted" o_a.Executor.reexecuted_instructions
    o_b.Executor.reexecuted_instructions;
  check_int "outages" o_a.Executor.outage_count o_b.Executor.outage_count;
  check_int "checkpoints" o_a.Executor.checkpoint_count
    o_b.Executor.checkpoint_count;
  check_int "retired" o_a.Executor.retired o_b.Executor.retired;
  if o_a.Executor.completed <> o_b.Executor.completed then
    Alcotest.failf "%s: completed differs" name;
  if o_a.Executor.skimmed <> o_b.Executor.skimmed then
    Alcotest.failf "%s: skimmed differs" name;
  if o_a.Executor.first_skim_active <> o_b.Executor.first_skim_active then
    Alcotest.failf "%s: first_skim_active differs" name;
  if mem_a <> mem_b then Alcotest.failf "%s: memory images differ" name

(* Both engines, both builds (anytime with skim points and the precise
   baseline), every policy: identical outcomes and memories. *)
let executor_differential wname ~skim (pname, policy) () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build ~precise:(not skim) w wcfg in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 11) in
  let block = run_with_engine Executor.Block b w inputs policy in
  let reference = run_with_engine Executor.Reference b w inputs policy in
  let name =
    Printf.sprintf "%s/%s/skim-%s" wname pname (if skim then "on" else "off")
  in
  check_outcomes_equal (name ^ "/block-vs-reference") block reference

(* An always-on supply leases without bound, so the Block engine's fused
   runs and steps all pend until the run ends; the supply's cycle and
   energy accounting must come out exactly as the Reference engine's
   per-instruction steps leave it. *)
let coalescing_regression wname () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build w wcfg in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 13) in
  let run engine =
    let m = Wn_core.Runner.machine b in
    Wn_core.Runner.load_sample b m inputs;
    let supply = Wn_power.Supply.always_on () in
    let o = Executor.run ~policy:Executor.Always_on ~engine ~machine:m ~supply () in
    (o, Wn_power.Supply.now_cycles supply, Wn_power.Supply.energy_consumed supply)
  in
  let o_r, cycles_r, energy_r = run Executor.Reference in
  let o_b, cycles_b, energy_b = run Executor.Block in
  if cycles_r <> cycles_b then
    Alcotest.failf "%s: supply clock %d vs %d cycles" wname cycles_r cycles_b;
  if energy_r <> energy_b then
    Alcotest.failf "%s: energy %.12g vs %.12g J" wname energy_r energy_b;
  if o_r.Executor.wall_cycles <> o_b.Executor.wall_cycles then
    Alcotest.failf "%s: wall cycles differ" wname;
  if o_r.Executor.active_cycles <> o_b.Executor.active_cycles then
    Alcotest.failf "%s: active cycles differ" wname

(* ---------------- zero allocation ---------------- *)

(* ALU / lane-parallel ASV / load / store / branch / multiply / SKM
   steady-state loop that cannot halt within the measured window; the
   ASV instructions (8- and 16-bit lanes) sit in the fused run after
   the load. *)
let alloc_probe_program =
  Asm.assemble_exn
    [
      Asm.I (Instr.Mov_imm (Reg.r 0, 0));
      Asm.I (Instr.Mov_imm (Reg.r 1, 1));
      Asm.I (Instr.Mov_imm (Reg.r 2, 1_000_000));
      Asm.Label "loop";
      Asm.I
        (Instr.Ldr
           { width = Instr.Word; signed = false; rd = Reg.r 3; base = Reg.r 0; off = 0 });
      Asm.I (Instr.Alu (Instr.Add, Reg.r 3, Reg.r 3, Reg.r 1));
      Asm.I (Instr.Add_asv (8, Reg.r 5, Reg.r 3, Reg.r 1));
      Asm.I (Instr.Sub_asv (8, Reg.r 6, Reg.r 5, Reg.r 3));
      Asm.I (Instr.Add_asv (16, Reg.r 7, Reg.r 6, Reg.r 5));
      Asm.I (Instr.Sub_asv (16, Reg.r 8, Reg.r 7, Reg.r 1));
      Asm.I (Instr.Str { width = Instr.Word; rs = Reg.r 3; base = Reg.r 0; off = 0 });
      Asm.I (Instr.Mul (Reg.r 4, Reg.r 3, Reg.r 1));
      Asm.I (Instr.Skm "done");
      Asm.I (Instr.Alu (Instr.Sub, Reg.r 2, Reg.r 2, Reg.r 1));
      Asm.I (Instr.Cmp_imm (Reg.r 2, 0));
      Asm.I (Instr.B (Cond.Ne, "loop"));
      Asm.Label "done";
      Asm.I Instr.Halt;
    ]

let test_step_fast_no_alloc () =
  let mem = Wn_mem.Memory.create ~size:256 in
  let config = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m = Machine.create ~config ~program:alloc_probe_program ~mem () in
  (* Warm up: first executions of every closure, lazy runtime setup. *)
  for _ = 1 to 1_000 do
    Machine.step_fast m
  done;
  (* [Gc.minor_words] itself boxes its float result; measure that
     constant the same way the real measurement pays it, and subtract. *)
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let baseline = b -. a in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Machine.step_fast m
  done;
  let w1 = Gc.minor_words () in
  let allocated = w1 -. w0 -. baseline in
  if allocated <> 0.0 then
    Alcotest.failf "step_fast allocated %.0f minor words over 10k instructions"
      allocated;
  if Machine.halted m then Alcotest.fail "probe program halted inside window"

(* Block dispatch must stay allocation-free too: the fused table is
   built once on the first dispatch (inside the warm-up), after which
   executing a block is pure mutation. *)
let test_step_block_no_alloc () =
  let mem = Wn_mem.Memory.create ~size:256 in
  let config = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m = Machine.create ~config ~program:alloc_probe_program ~mem () in
  for _ = 1 to 1_000 do
    Machine.step_block m
  done;
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let baseline = b -. a in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Machine.step_block m
  done;
  let w1 = Gc.minor_words () in
  let allocated = w1 -. w0 -. baseline in
  if allocated <> 0.0 then
    Alcotest.failf
      "step_block allocated %.0f minor words over 10k dispatches" allocated;
  if Machine.halted m then Alcotest.fail "probe program halted inside window"

(* The rejoin probe compares the machine against keyframe candidates
   on every post-outage step, so [Machine.matches_state] must not
   allocate whether it accepts or rejects.  Memory of three pages plus
   a short tail page, with a store in the first and a byte planted in
   the tail. *)
let test_matches_state_no_alloc () =
  let size = (3 * Wn_mem.Memory.page_bytes) + 29 in
  let mem = Wn_mem.Memory.create ~size in
  let config = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m = Machine.create ~config ~program:alloc_probe_program ~mem () in
  Wn_mem.Memory.write8 mem (size - 2) 0x5A;
  for _ = 1 to 1_000 do
    Machine.step_fast m
  done;
  let measure label s ~expect =
    if Machine.matches_state m s <> expect then
      Alcotest.failf "%s: matches_state is not %b" label expect;
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    let baseline = b -. a in
    let w0 = Gc.minor_words () in
    for _ = 1 to 1_000 do
      ignore (Sys.opaque_identity (Machine.matches_state m s))
    done;
    let w1 = Gc.minor_words () in
    let allocated = w1 -. w0 -. baseline in
    if allocated <> 0.0 then
      Alcotest.failf "%s: %.0f minor words over 1,000 calls" label allocated
  in
  (* A delta image restored into the machine: every page is the
     baseline's own and clean, so no page is compared. *)
  let delta = Machine.snapshot m in
  Machine.restore m delta;
  measure "full match, delta image after restore" delta ~expect:true;
  (* A full image, then a second full capture as the new baseline:
     the first image shares no page with it, so every page is compared
     in place. *)
  let full = Machine.snapshot ~full:true m in
  ignore (Machine.snapshot ~full:true m);
  measure "full match, full image" full ~expect:true;
  let r4 = Reg.r 4 in
  let saved = Machine.reg m r4 in
  Machine.set_reg m r4 (saved + 1);
  measure "same pc, one register changed" full ~expect:false;
  Machine.set_reg m r4 saved;
  Wn_mem.Memory.write8 mem (size - 1) 0xA5;
  measure "one byte changed in the tail page" full ~expect:false

(* A capacitor-backed run allocates next to nothing per retired
   instruction under either intermittency policy: the supply accounting
   every instruction pays is allocation-free, and what is left (Clank's
   checkpointed register files, the outcome) comes per event or per
   run.  A strong constant trace keeps the device on; each kernel runs
   once unmeasured first, so the machine's lazily built tables are in
   place. *)
let test_executor_run_no_alloc () =
  let strong = Wn_power.Trace.constant ~power:1.0 ~duration_s:1.0 in
  List.iter
    (fun (pname, policy) ->
      let words = ref 0.0 and retired = ref 0 in
      List.iter
        (fun wname ->
          let w = Suite.find Workload.Small wname in
          let b = Wn_core.Runner.build w wcfg in
          let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 42) in
          let m = Wn_core.Runner.machine b in
          let run () =
            Wn_core.Runner.load_sample b m inputs;
            let supply =
              Wn_power.Supply.create ~trace:strong
                ~capacitor:(Wn_power.Capacitor.create ()) ()
            in
            let a = Gc.minor_words () in
            let b = Gc.minor_words () in
            let baseline = b -. a in
            let w0 = Gc.minor_words () in
            let o = Executor.run ~policy ~machine:m ~supply () in
            let w1 = Gc.minor_words () in
            (o, w1 -. w0 -. baseline)
          in
          ignore (run ());
          let o, allocated = run () in
          if not o.Executor.completed then
            Alcotest.failf "%s/%s: did not complete" wname pname;
          words := !words +. allocated;
          retired := !retired + o.Executor.retired)
        Suite.names;
      let per_insn = !words /. float_of_int !retired in
      if per_insn > 0.1 then
        Alcotest.failf "%s: %.3f minor words per retired instruction (%.0f over %d)"
          pname per_insn !words !retired)
    [ ("clank", Executor.Clank Executor.default_clank); ("nvp", Executor.Nvp Executor.default_nvp) ]

let () =
  let lockstep_cases =
    List.concat_map
      (fun wname ->
        List.map
          (fun (cfg_name, mcfg) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s" wname cfg_name)
              `Quick
              (lockstep_workload wname (cfg_name, mcfg)))
          machine_configs)
      Suite.names
  in
  let block_lockstep_cases =
    List.concat_map
      (fun wname ->
        List.map
          (fun (cfg_name, mcfg) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s" wname cfg_name)
              `Quick
              (lockstep_block_workload wname (cfg_name, mcfg)))
          machine_configs)
      Suite.names
  in
  let executor_cases =
    List.concat_map
      (fun wname ->
        List.concat_map
          (fun skim ->
            List.map
              (fun p ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s skim-%s" wname (fst p)
                     (if skim then "on" else "off"))
                  `Quick
                  (executor_differential wname ~skim p))
              policies)
          [ true; false ])
      [ "Var"; "Home"; "MatAdd" ]
  in
  let coalescing_cases =
    List.map
      (fun wname ->
        Alcotest.test_case wname `Quick (coalescing_regression wname))
      [ "Var"; "MatAdd" ]
  in
  Alcotest.run "wn.fastpath"
    [
      ("machine lockstep", lockstep_cases);
      ("block lockstep", block_lockstep_cases);
      ( "fused opcodes",
        List.map
          (fun c -> QCheck_alcotest.to_alcotest (prop_fused_opcodes c))
          machine_configs );
      ( "block table",
        [
          Alcotest.test_case "matches fusion plan" `Quick
            test_block_table_matches_plan;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_block_snapshot_roundtrip;
        ] );
      ("executor engines", executor_cases);
      ("always-on coalescing", coalescing_cases);
      ( "allocation",
        [
          Alcotest.test_case "step_fast allocation-free" `Quick
            test_step_fast_no_alloc;
          Alcotest.test_case "step_block allocation-free" `Quick
            test_step_block_no_alloc;
          Alcotest.test_case "matches_state allocation-free" `Quick
            test_matches_state_no_alloc;
          Alcotest.test_case "capacitor-backed Executor.run" `Quick
            test_executor_run_no_alloc;
        ] );
    ]
