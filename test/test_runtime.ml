(* Tests for wn.runtime: the intermittent executors (always-on, NVP,
   Clank) and skim-point semantics. *)

open Wn_isa
open Wn_machine
open Wn_power
module Executor = Wn_runtime.Executor

let r = Reg.r

(* A counted-loop program: r0 := iterations of useful work; stores its
   progress to NVM at address 0 each iteration.  [muls] inserts a
   16-cycle multiply per iteration to burn energy. *)
let loop_program ?(iters = 200) ?(muls = 1) () =
  let body =
    List.concat
      (List.init muls (fun _ -> [ Asm.I (Instr.Mul (r 3, r 1, r 1)) ]))
  in
  Asm.assemble_exn
    ([
       Asm.I (Instr.Mov_imm (r 0, 0));
       Asm.I (Instr.Mov_imm (r 1, 25));
       Asm.I (Instr.Mov_imm (r 2, 0));
       Asm.Label "loop";
     ]
    @ body
    @ [
        Asm.I (Instr.Alu_imm (Instr.Add, r 0, r 0, 1));
        Asm.I (Instr.Str { width = Instr.Word; rs = r 0; base = r 2; off = 0 });
        Asm.I (Instr.Cmp_imm (r 0, iters));
        Asm.I (Instr.B (Cond.Lt, "loop"));
        Asm.I Instr.Halt;
      ])

let fresh ?(program = loop_program ()) () =
  let mem = Wn_mem.Memory.create ~size:256 in
  (Machine.create ~program ~mem (), mem)

let bursty_supply () =
  (* Bursts long enough to recharge, short enough to interrupt the
     ~5k-cycle loop program several times. *)
  let trace = Trace.square ~on_ms:6 ~off_ms:10 ~power:2.5e-3 ~duration_s:2.0 in
  let cap = Capacitor.create ~capacitance:1e-6 () in
  Supply.create ~trace ~capacitor:cap ()

let test_always_on_completes () =
  let machine, mem = fresh () in
  let o = Executor.run ~machine ~supply:(Supply.always_on ()) () in
  Alcotest.(check bool) "completed" true o.Executor.completed;
  Alcotest.(check bool) "no skim" false o.Executor.skimmed;
  Alcotest.(check int) "no outage" 0 o.Executor.outage_count;
  Alcotest.(check int) "result" 200 (Wn_mem.Memory.read32 mem 0);
  Alcotest.(check int) "wall = active when always on" o.Executor.active_cycles
    o.Executor.wall_cycles

let test_nvp_survives_outages () =
  let machine, mem = fresh ~program:(loop_program ~iters:2000 ~muls:4 ()) () in
  let supply = bursty_supply () in
  let o =
    Executor.run ~policy:(Executor.Nvp Executor.default_nvp) ~machine ~supply ()
  in
  Alcotest.(check bool) "completed" true o.Executor.completed;
  if o.Executor.outage_count = 0 then Alcotest.fail "expected outages";
  Alcotest.(check int) "exact result despite outages" 2000
    (Wn_mem.Memory.read32 mem 0);
  Alcotest.(check int) "NVP never re-executes" 0
    o.Executor.reexecuted_instructions;
  if o.Executor.wall_cycles <= o.Executor.active_cycles then
    Alcotest.fail "wall clock must include off time"

let test_clank_restores_and_reexecutes () =
  let machine, mem = fresh ~program:(loop_program ~iters:2000 ~muls:4 ()) () in
  let supply = bursty_supply () in
  let cfg = { Executor.default_clank with watchdog_period = 1000 } in
  let o = Executor.run ~policy:(Executor.Clank cfg) ~machine ~supply () in
  Alcotest.(check bool) "completed" true o.Executor.completed;
  if o.Executor.outage_count = 0 then Alcotest.fail "expected outages";
  if o.Executor.checkpoint_count = 0 then Alcotest.fail "expected checkpoints";
  if o.Executor.reexecuted_instructions = 0 then
    Alcotest.fail "volatile restore must re-execute work";
  (* Idempotency machinery must still deliver the exact result. *)
  Alcotest.(check int) "exact result" 2000 (Wn_mem.Memory.read32 mem 0)

let test_clank_watchdog () =
  (* Under continuous power the only checkpoint trigger left is the
     watchdog. *)
  let machine, _ = fresh ~program:(loop_program ~iters:2000 ~muls:4 ()) () in
  let cfg =
    { Executor.default_clank with watchdog_period = 1000; buffer_entries = 1 lsl 20 }
  in
  let o =
    Executor.run ~policy:(Executor.Clank cfg) ~machine
      ~supply:(Supply.always_on ()) ()
  in
  if o.Executor.checkpoint_count < o.Executor.active_cycles / 2000 then
    Alcotest.failf "watchdog fired only %d times in %d cycles"
      o.Executor.checkpoint_count o.Executor.active_cycles

let test_clank_war_checkpoint () =
  (* A read-then-write of the same word forces a checkpoint before the
     write (idempotency violation). *)
  let program =
    Asm.assemble_exn
      [
        Asm.I (Instr.Mov_imm (r 1, 0));
        Asm.I (Instr.Ldr { width = Instr.Word; signed = false; rd = r 2; base = r 1; off = 0 });
        Asm.I (Instr.Alu_imm (Instr.Add, r 2, r 2, 1));
        Asm.I (Instr.Str { width = Instr.Word; rs = r 2; base = r 1; off = 0 });
        Asm.I Instr.Halt;
      ]
  in
  let machine, _ = fresh ~program () in
  let o =
    Executor.run
      ~policy:(Executor.Clank Executor.default_clank)
      ~machine ~supply:(Supply.always_on ()) ()
  in
  Alcotest.(check int) "exactly one violation checkpoint" 1
    o.Executor.checkpoint_count

let test_clank_war_epochs () =
  (* Alternating read-modify-writes of two words: each iteration reads
     a word whose tracking was cleared by the previous iteration's
     checkpoint, so every iteration is a fresh WAR violation — one
     checkpoint per iteration, across as many shadow epochs.  A stale
     epoch leaking old read/write bits into a new epoch would change
     this count (old write bits suppress read tracking; old read bits
     fire spurious checkpoints). *)
  let n = 8 in
  let rmw i =
    let off = if i land 1 = 0 then 0 else 4 in
    [
      Asm.I (Instr.Ldr { width = Instr.Word; signed = false; rd = r 2; base = r 1; off });
      Asm.I (Instr.Alu_imm (Instr.Add, r 2, r 2, 1));
      Asm.I (Instr.Str { width = Instr.Word; rs = r 2; base = r 1; off });
    ]
  in
  let program =
    Asm.assemble_exn
      ([ Asm.I (Instr.Mov_imm (r 1, 0)) ]
      @ List.concat (List.init n rmw)
      @ [ Asm.I Instr.Halt ])
  in
  let run engine =
    let machine, mem = fresh ~program () in
    let o =
      Executor.run ~engine
        ~policy:(Executor.Clank Executor.default_clank)
        ~machine ~supply:(Supply.always_on ()) ()
    in
    (o, Wn_mem.Memory.read32 mem 0, Wn_mem.Memory.read32 mem 4)
  in
  List.iter
    (fun engine ->
      let o, at0, at4 = run engine in
      Alcotest.(check bool) "completed" true o.Executor.completed;
      Alcotest.(check int) "one checkpoint per epoch" n
        o.Executor.checkpoint_count;
      Alcotest.(check int) "word 0" (n / 2) at0;
      Alcotest.(check int) "word 4" (n / 2) at4)
    [ Executor.Block; Executor.Reference ]

let test_clank_engines_lockstep () =
  (* The loop program under a bursty supply: outage rollbacks, watchdog
     checkpoints and shadow epochs must agree between the block engine
     and the ISA spec. *)
  let program = loop_program ~iters:2000 ~muls:4 () in
  let run engine =
    let machine, mem = fresh ~program () in
    let cfg = { Executor.default_clank with watchdog_period = 1000 } in
    let o = Executor.run ~engine ~policy:(Executor.Clank cfg) ~machine ~supply:(bursty_supply ()) () in
    ( o.Executor.completed,
      o.Executor.checkpoint_count,
      o.Executor.reexecuted_instructions,
      o.Executor.outage_count,
      Wn_mem.Memory.read32 mem 0 )
  in
  if run Executor.Block <> run Executor.Reference then
    Alcotest.fail "engines disagree under Clank with outages"

(* A skim-able program: sets r0=1 (coarse result), stores it, latches a
   skim point, then does a long refinement phase before storing 2. *)
let skim_program refinement_iters =
  Asm.assemble_exn
    ([
       Asm.I (Instr.Mov_imm (r 2, 0));
       Asm.I (Instr.Mov_imm (r 0, 1));
       Asm.I (Instr.Str { width = Instr.Word; rs = r 0; base = r 2; off = 0 });
       Asm.I (Instr.Skm "end");
       Asm.I (Instr.Mov_imm (r 1, 0));
       Asm.Label "refine";
     ]
    @ [
        Asm.I (Instr.Mul (r 3, r 1, r 1));
        Asm.I (Instr.Alu_imm (Instr.Add, r 1, r 1, 1));
        Asm.I (Instr.Cmp_imm (r 1, refinement_iters));
        Asm.I (Instr.B (Cond.Lt, "refine"));
        Asm.I (Instr.Mov_imm (r 0, 2));
        Asm.I (Instr.Str { width = Instr.Word; rs = r 0; base = r 2; off = 0 });
        Asm.Label "end";
        Asm.I Instr.Halt;
      ])

let test_skim_on_outage_nvp () =
  let machine, mem = fresh ~program:(skim_program 100_000) () in
  let supply = bursty_supply () in
  let o =
    Executor.run ~policy:(Executor.Nvp Executor.default_nvp) ~machine ~supply ()
  in
  Alcotest.(check bool) "completed" true o.Executor.completed;
  Alcotest.(check bool) "finished via skim" true o.Executor.skimmed;
  Alcotest.(check int) "approximate result committed" 1
    (Wn_mem.Memory.read32 mem 0)

let test_skim_on_outage_clank () =
  let machine, mem = fresh ~program:(skim_program 100_000) () in
  let supply = bursty_supply () in
  let o =
    Executor.run
      ~policy:(Executor.Clank Executor.default_clank)
      ~machine ~supply ()
  in
  Alcotest.(check bool) "completed" true o.Executor.completed;
  Alcotest.(check bool) "finished via skim" true o.Executor.skimmed;
  Alcotest.(check int) "approximate result committed" 1
    (Wn_mem.Memory.read32 mem 0)

let test_no_skim_runs_to_precise () =
  let machine, mem = fresh ~program:(skim_program 500) () in
  let o = Executor.run ~machine ~supply:(Supply.always_on ()) () in
  Alcotest.(check bool) "completed" true o.Executor.completed;
  Alcotest.(check bool) "no outage, no skim" false o.Executor.skimmed;
  Alcotest.(check int) "precise result" 2 (Wn_mem.Memory.read32 mem 0)

let test_halt_at_skim () =
  let machine, mem = fresh ~program:(skim_program 500) () in
  let o =
    Executor.run ~halt_at_skim:true ~machine ~supply:(Supply.always_on ()) ()
  in
  Alcotest.(check bool) "completed" true o.Executor.completed;
  Alcotest.(check bool) "skimmed immediately" true o.Executor.skimmed;
  Alcotest.(check int) "earliest output" 1 (Wn_mem.Memory.read32 mem 0);
  match o.Executor.first_skim_active with
  | Some c when c > 0 && c < 50 -> ()
  | Some c -> Alcotest.failf "implausible first-skim time %d" c
  | None -> Alcotest.fail "first skim not recorded"

let test_max_wall_guard () =
  let machine, _ = fresh ~program:(loop_program ~iters:1_000_00 ~muls:8 ()) () in
  let o =
    Executor.run ~max_wall_cycles:1000 ~machine ~supply:(Supply.always_on ()) ()
  in
  Alcotest.(check bool) "gave up" false o.Executor.completed

(* An [on_step] observer sampling every 500 active cycles, the way
   [Curves] does: always-on spends no overhead, so the retired latency
   sum is the active count and the samples track it. *)
let test_snapshots_fire () =
  let machine, _ = fresh ~program:(loop_program ~iters:500 ()) () in
  let count = ref 0 and active = ref 0 and next = ref 500 in
  let o =
    Executor.run
      ~on_step:(fun _ ->
        active := !active + Machine.last_cycles machine;
        if !active >= !next then begin
          incr count;
          next := !next + 500
        end)
      ~machine ~supply:(Supply.always_on ()) ()
  in
  Alcotest.(check int) "latency sum = active" o.Executor.active_cycles !active;
  let expected = o.Executor.active_cycles / 500 in
  if !count < expected - 1 || !count > expected + 2 then
    Alcotest.failf "snapshot count %d for %d cycles" !count o.Executor.active_cycles

(* The first state [capture] returns on a run of [fresh ()] under
   [policy], and the machine snapshot taken with it. *)
let first_capture policy =
  let machine, _ = fresh () in
  let first = ref None in
  ignore
    (Executor.run ~policy
       ~on_step:(fun live ->
         if Option.is_none !first then
           first := Some (Machine.snapshot machine, Executor.capture live))
       ~machine ~supply:(Supply.always_on ()) ());
  Option.get !first

(* [capture] only takes clean boundaries from inside [on_step]. *)
let test_capture_rejects_halted () =
  Alcotest.check_raises "halted"
    (Invalid_argument "Executor.capture: not a clean boundary") (fun () ->
      let machine, _ = fresh () in
      ignore
        (Executor.run
           ~on_step:(fun live ->
             if Machine.halted machine then ignore (Executor.capture live))
           ~machine ~supply:(Supply.always_on ()) ()));
  let kept = ref None in
  let machine, _ = fresh () in
  ignore
    (Executor.run
       ~on_step:(fun live -> kept := Some live)
       ~machine ~supply:(Supply.always_on ()) ());
  Alcotest.check_raises "after the run"
    (Invalid_argument "Executor.capture: outside on_step") (fun () ->
      ignore (Executor.capture (Option.get !kept)))

(* An observer that cuts the supply has left no clean boundary: the
   outage is still to be taken, so [capture] must refuse it. *)
let test_capture_rejects_cut_supply () =
  Alcotest.check_raises "cut"
    (Invalid_argument "Executor.capture: not a clean boundary") (fun () ->
      let machine, _ = fresh () in
      let supply = Supply.always_on () in
      ignore
        (Executor.run
           ~on_step:(fun live ->
             if Machine.instructions_retired machine = 10 then begin
               Supply.cut supply;
               ignore (Executor.capture live)
             end)
           ~machine ~supply ()))

(* An [on_event] observer that cuts on [Restore] forces a second outage
   before any instruction runs.  The run is cut once at step 300, again
   on the first restore: two outages back to back, each restore costed,
   and under Clank the lost epoch (all 300 steps: the watchdog has not
   fired yet) re-executed once, since the second rollback lands on the
   checkpoint the first one already restored. *)
let test_cut_on_restore () =
  List.iter
    (fun (pname, policy, restore_cost, lost) ->
      List.iter
        (fun (ename, engine) ->
          let name = pname ^ "/" ^ ename in
          let run ~again =
            let machine, mem = fresh () in
            let supply =
              Supply.always_on ~off_cycles:Supply.default_off_cycles ()
            in
            let steps = ref 0 and restores = ref 0 and log = ref [] in
            let o =
              Executor.run ~policy ~engine
                ~on_step:(fun _ ->
                  incr steps;
                  log := None :: !log;
                  if !steps = 300 then Supply.cut supply)
                ~on_event:(fun e ->
                  log := Some e :: !log;
                  if e = Executor.Restore then begin
                    incr restores;
                    if again && !restores = 1 then Supply.cut supply
                  end)
                ~machine ~supply ()
            in
            Alcotest.(check bool) (name ^ ": completed") true
              o.Executor.completed;
            Alcotest.(check int) (name ^ ": result") 200
              (Wn_mem.Memory.read32 mem 0);
            (o, List.rev !log)
          in
          let once, _ = run ~again:false in
          let twice, log = run ~again:true in
          let rec after_first_restore = function
            | Some Executor.Restore :: rest -> rest
            | _ :: rest -> after_first_restore rest
            | [] -> []
          in
          Alcotest.(check bool)
            (name ^ ": the second outage precedes any step")
            true
            (match after_first_restore log with
            | Some Executor.Outage :: Some Executor.Restore :: None :: _ -> true
            | _ -> false);
          Alcotest.(check int) (name ^ ": two outages") 2
            twice.Executor.outage_count;
          Alcotest.(check int) (name ^ ": two outage events") 2
            (List.length (List.filter (( = ) (Some Executor.Outage)) log));
          Alcotest.(check int) (name ^ ": lost epoch re-executed once") lost
            twice.Executor.reexecuted_instructions;
          Alcotest.(check int) (name ^ ": same re-execution as one cut")
            once.Executor.reexecuted_instructions
            twice.Executor.reexecuted_instructions;
          Alcotest.(check int) (name ^ ": one more restore")
            (once.Executor.overhead_cycles + restore_cost)
            twice.Executor.overhead_cycles;
          Alcotest.(check int) (name ^ ": one more off-period and restore")
            (once.Executor.wall_cycles + Supply.default_off_cycles
           + restore_cost)
            twice.Executor.wall_cycles)
        [ ("block", Executor.Block); ("reference", Executor.Reference) ])
    [
      ( "clank",
        Executor.Clank Executor.default_clank,
        Executor.default_clank.Executor.clank_restore_cycles,
        300 );
      ( "nvp",
        Executor.Nvp Executor.default_nvp,
        Executor.default_nvp.Executor.nvp_restore_cycles,
        0 );
    ]

(* A run's outcome and the supply it leaves, every field exact. *)
let summary (o : Executor.outcome) supply cap =
  Printf.sprintf
    "completed %b skimmed %b first_skim %s wall %d active %d overhead %d \
     reexecuted %d outages %d checkpoints %d retired %d | clock %d energy %h \
     J outages %d stored %d fJ"
    o.completed o.skimmed
    (match o.first_skim_active with
    | Some c -> string_of_int c
    | None -> "none")
    o.wall_cycles o.active_cycles o.overhead_cycles o.reexecuted_instructions
    o.outage_count o.checkpoint_count o.retired (Supply.now_cycles supply)
    (Supply.energy_consumed supply)
    (Supply.outages supply) (Capacitor.energy cap)

(* Observers that cut a capacitor-backed supply.  A cut empties the
   capacitor, so every cycle the executor has charged before the
   observer ran must have reached the supply by then: a charge applied
   after the cut would drain an empty capacitor, and the recharge, the
   clock and every later outage would move.  Each run is cut by
   [on_event] on its first restore and, in the observed runs, by
   [on_step] at retired instruction 2,000; natural outages follow on the
   RF trace.  Without [on_step] the block engine fuses.  Every figure is
   pinned to per-instruction supply accounting, each charge applied the
   moment it is made, and both engines agree. *)
let test_cut_capacitor_supply () =
  List.iter
    (fun (pname, policy, observed, expected) ->
      List.iter
        (fun (ename, engine) ->
          let name =
            Printf.sprintf "%s/%s/%s" pname ename
              (if observed then "on_step" else "on_event")
          in
          let machine, mem =
            fresh ~program:(loop_program ~iters:2_000 ~muls:2 ()) ()
          in
          let cap = Capacitor.create () in
          let supply =
            Supply.create
              ~trace:(Trace.rf_burst ~seed:5 ~duration_s:2.0 ())
              ~capacitor:cap ()
          in
          let restores = ref 0 in
          let on_step =
            if observed then
              Some
                (fun _ ->
                  if Machine.instructions_retired machine = 2_000 then
                    Supply.cut supply)
            else None
          in
          let o =
            Executor.run ~policy ~engine ?on_step
              ~on_event:(fun e ->
                if e = Executor.Restore then begin
                  incr restores;
                  if !restores = 1 then Supply.cut supply
                end)
              ~machine ~supply ()
          in
          Alcotest.(check int) (name ^ ": result") 2_000
            (Wn_mem.Memory.read32 mem 0);
          Alcotest.(check string) name expected (summary o supply cap))
        [ ("block", Executor.Block); ("reference", Executor.Reference) ])
    [
      ( "clank",
        Executor.Clank Executor.default_clank,
        true,
        "completed true skimmed false first_skim none wall 23532034 active \
         103363 overhead 720 reexecuted 4320 outages 9 checkpoints 9 retired \
         16324 | clock 23532034 energy 0x1.b48e45303e69ep-14 J outages 9 \
         stored 17196506540 fJ" );
      ( "clank",
        Executor.Clank Executor.default_clank,
        false,
        "completed true skimmed false first_skim none wall 23532034 active \
         105719 overhead 720 reexecuted 4692 outages 9 checkpoints 9 retired \
         16696 | clock 23532034 energy 0x1.be70018986c0cp-14 J outages 9 \
         stored 17196506540 fJ" );
      ( "nvp",
        Executor.Nvp Executor.default_nvp,
        true,
        "completed true skimmed false first_skim none wall 17046034 active \
         76003 overhead 56 reexecuted 0 outages 7 checkpoints 0 retired 12004 \
         | clock 17046034 energy 0x1.3f03bab968b0bp-14 J outages 7 stored \
         21465288000 fJ" );
      ( "nvp",
        Executor.Nvp Executor.default_nvp,
        false,
        "completed true skimmed false first_skim none wall 17043640 active \
         76003 overhead 56 reexecuted 0 outages 7 checkpoints 0 retired 12004 \
         | clock 17043640 energy 0x1.3f03bab968b0bp-14 J outages 7 stored \
         23861288000 fJ" );
    ]

(* A no-op [on_step] observer makes the executor charge every step on
   its own, since leased cycles are settled before each observer runs:
   an observed run is the per-instruction reference for the leases of
   unobserved ones, fused or stepped.  The square traces' 2-ms bursts
   harvest 1.7 and 5 times what the core drains, pinning the capacitor
   at full charge, where leases are empty or a few cycles long and most
   spans are charged on their own (a 500-cycle Clank watchdog adds
   40-cycle checkpoints among them), and their 1-ms gaps starve it into
   brown-outs; runs cross tick edges in both directions. *)
let test_leases_match_stepwise_charging () =
  List.iter
    (fun ((pname, policy), power) ->
      let pname = Printf.sprintf "%s at %g W" pname power in
      let run engine ~observed =
        let machine, mem =
          fresh ~program:(loop_program ~iters:2_000 ~muls:2 ()) ()
        in
        let cap = Capacitor.create () in
        let supply =
          Supply.create
            ~trace:(Trace.square ~on_ms:2 ~off_ms:1 ~power ~duration_s:1.0)
            ~capacitor:cap ()
        in
        let on_step = if observed then Some ignore else None in
        let o = Executor.run ~policy ~engine ?on_step ~machine ~supply () in
        Alcotest.(check int) (pname ^ ": result") 2_000
          (Wn_mem.Memory.read32 mem 0);
        if o.outage_count = 0 then Alcotest.failf "%s: no outage" pname;
        summary o supply cap
      in
      let stepwise = run Executor.Reference ~observed:true in
      List.iter
        (fun (ename, engine) ->
          Alcotest.(check string) (pname ^ "/" ^ ename) stepwise
            (run engine ~observed:false))
        [ ("block", Executor.Block); ("reference", Executor.Reference) ])
    (List.concat_map
       (fun policy -> [ (policy, 40e-3); (policy, 120e-3) ])
       [
         ( "clank",
           Executor.Clank { Executor.default_clank with watchdog_period = 500 }
         );
         ("nvp", Executor.Nvp Executor.default_nvp);
       ])

(* A cut on a [Checkpoint] event would be taken only after the
   instruction the checkpoint fired in had retired on the cut supply, so
   the executor rejects it, under either engine.  Var@8 under default
   Clank takes its first checkpoint at 6,248 retired instructions. *)
let test_cut_on_checkpoint_rejected () =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "Var" in
  let b =
    Wn_core.Runner.build w { Wn_workloads.Workload.bits = 8; provisioned = true }
  in
  let inputs = w.Wn_workloads.Workload.fresh_inputs (Wn_util.Rng.create 7) in
  List.iter
    (fun (name, engine) ->
      let machine = Wn_core.Runner.machine b in
      Wn_core.Runner.load_sample b machine inputs;
      let supply = Supply.always_on ~off_cycles:Supply.default_off_cycles () in
      Alcotest.check_raises name
        (Invalid_argument "Executor.run: on_event cut the supply on a Checkpoint")
        (fun () ->
          ignore
            (Executor.run ~engine
               ~policy:(Executor.Clank Executor.default_clank)
               ~on_event:(fun e ->
                 if e = Executor.Checkpoint then Supply.cut supply)
               ~machine ~supply ())))
    [ ("block", Executor.Block); ("reference", Executor.Reference) ]

(* A Clank rollback puts back exactly the registers, PC and flags of the
   last checkpoint.  An [on_event] observer records them before the
   run, at every [Checkpoint] and at every [Skim_restore] (a fresh epoch
   at the skim target); at every [Restore] the machine must equal the
   last record.  Each Table I kernel's precise and anytime builds at 8
   bits, on an RF trace, under both engines. *)
let test_clank_rollback_restores_checkpoint () =
  let arch m =
    ( Machine.pc m,
      Machine.flags m,
      Array.init Reg.count (fun i -> Machine.reg m (Reg.r i)) )
  in
  let trace = Trace.rf_burst ~seed:5 ~duration_s:2.0 () in
  let restores = ref 0 in
  List.iter
    (fun wname ->
      let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small wname in
      let inputs = w.Wn_workloads.Workload.fresh_inputs (Wn_util.Rng.create 7) in
      List.iter
        (fun precise ->
          let b =
            Wn_core.Runner.build ~precise w
              { Wn_workloads.Workload.bits = 8; provisioned = true }
          in
          List.iter
            (fun (ename, engine) ->
              let name =
                Printf.sprintf "%s/%s/%s" wname
                  (if precise then "precise" else "anytime")
                  ename
              in
              let machine = Wn_core.Runner.machine b in
              Wn_core.Runner.load_sample b machine inputs;
              let supply =
                Supply.create ~trace ~capacitor:(Capacitor.create ()) ()
              in
              let last = ref (arch machine) in
              let o =
                Executor.run ~engine
                  ~policy:(Executor.Clank Executor.default_clank)
                  ~on_event:(function
                    | Executor.Checkpoint | Executor.Skim_restore ->
                        last := arch machine
                    | Executor.Restore ->
                        incr restores;
                        let pc, _, _ = !last in
                        if arch machine <> !last then
                          Alcotest.failf
                            "%s: restore %d is not the checkpoint at pc %d \
                             (machine at pc %d)"
                            name !restores pc (Machine.pc machine)
                    | Executor.Outage -> ())
                  ~machine ~supply ()
              in
              Alcotest.(check bool) (name ^ ": completed") true
                o.Executor.completed)
            [ ("block", Executor.Block); ("reference", Executor.Reference) ])
        [ true; false ])
    Wn_workloads.Suite.names;
  if !restores < 100 then
    Alcotest.failf "only %d rollbacks over the suite" !restores

(* A resume state carries the policy it was captured under; resuming it
   under any other policy is rejected, same-policy resumes go through.
   Under Clank it also carries the tracking planes of its memory's size:
   resuming onto a machine with another memory size is rejected (the
   machine snapshot, which [Machine.restore] would also refuse, is not
   restored here, so the executor's own check is reached). *)
let test_resume_rejects_other_policy () =
  let expected =
    Invalid_argument "Executor.run: resume state captured under another policy"
  in
  let resume_under policy (snap, resume) =
    let machine, _ = fresh () in
    Machine.restore machine snap;
    Executor.run ~policy ~resume ~machine ~supply:(Supply.always_on ()) ()
  in
  let nvp = Executor.Nvp Executor.default_nvp in
  let tight =
    Executor.Clank { Executor.default_clank with watchdog_period = 50 }
  in
  let from_nvp = first_capture nvp and from_tight = first_capture tight in
  Alcotest.check_raises "nvp state under always-on" expected (fun () ->
      ignore (resume_under Executor.Always_on from_nvp));
  Alcotest.check_raises "watchdog-50 state under default clank" expected
    (fun () ->
      ignore (resume_under (Executor.Clank Executor.default_clank) from_tight));
  Alcotest.check_raises "clank state onto another memory size"
    (Invalid_argument "Executor.run: resume shadow map size mismatch")
    (fun () ->
      let mem = Wn_mem.Memory.create ~size:512 in
      let machine = Machine.create ~program:(loop_program ()) ~mem () in
      ignore
        (Executor.run ~policy:tight ~resume:(snd from_tight) ~machine
           ~supply:(Supply.always_on ()) ()));
  Alcotest.(check bool) "same policy resumes" true
    (resume_under nvp from_nvp).Executor.completed;
  Alcotest.(check bool) "same clank config resumes" true
    (resume_under tight from_tight).Executor.completed

(* [rejoin] takes a capture only when the policy and its Clank state
   equal the live run's.  A run's first capture is accepted at the same
   boundary of an identical run, whose outcome is then the uninterrupted
   run's; it is refused one step later (the since-checkpoint counters
   have moved) and under another policy. *)
let test_rejoin_compares_policy_state () =
  let tight =
    Executor.Clank { Executor.default_clank with watchdog_period = 50 }
  in
  let _, at = first_capture tight in
  let final =
    let machine, _ = fresh () in
    Executor.run ~policy:tight ~machine ~supply:(Supply.always_on ()) ()
  in
  let attempt policy ~step =
    let machine, _ = fresh () in
    let verdict = ref None in
    let o =
      Executor.run ~policy
        ~on_step:(fun live ->
          if Machine.instructions_retired machine = step then
            verdict := Some (Executor.rejoin live ~at ~final))
        ~machine ~supply:(Supply.always_on ()) ()
    in
    (Option.get !verdict, o)
  in
  let accepted, o = attempt tight ~step:1 in
  Alcotest.(check bool) "same state accepted" true accepted;
  if o <> final then Alcotest.fail "rejoined outcome differs from the run's";
  Alcotest.(check bool) "one step later refused" false
    (fst (attempt tight ~step:2));
  Alcotest.(check bool) "another policy refused" false
    (fst (attempt (Executor.Nvp Executor.default_nvp) ~step:1))

(* Clank's tracking planes pack four words per byte, so on a 260-byte
   memory (65 words) the map's last byte holds word 64 alone.  The task
   reads word 64, fully writes it (a WAR checkpoint first), reads it
   back (dominated by the write, so untracked) and writes it again (no
   checkpoint).  A capture at every boundary, resumed on a restored
   machine, must reproduce the uninterrupted run's outcome and memory
   on both engines: losing either bit of that last byte adds or drops a
   checkpoint. *)
let test_resume_last_packed_byte () =
  let word = Instr.Word in
  let program =
    Asm.assemble_exn
      [
        Asm.I (Instr.Mov_imm (r 1, 256));
        Asm.I (Instr.Ldr { width = word; signed = false; rd = r 2; base = r 1; off = 0 });
        Asm.I (Instr.Alu_imm (Instr.Add, r 2, r 2, 1));
        Asm.I (Instr.Str { width = word; rs = r 2; base = r 1; off = 0 });
        Asm.I (Instr.Ldr { width = word; signed = false; rd = r 3; base = r 1; off = 0 });
        Asm.I (Instr.Alu_imm (Instr.Add, r 3, r 3, 1));
        Asm.I (Instr.Str { width = word; rs = r 3; base = r 1; off = 0 });
        Asm.I Instr.Halt;
      ]
  in
  let policy = Executor.Clank Executor.default_clank in
  let fresh () = Machine.create ~program ~mem:(Wn_mem.Memory.create ~size:260) () in
  let memory m = Digest.to_hex (Wn_mem.Memory.digest (Machine.mem m)) in
  List.iter
    (fun (ename, engine) ->
      let m = fresh () in
      let whole =
        Executor.run ~engine ~policy ~machine:m ~supply:(Supply.always_on ()) ()
      in
      Alcotest.(check int) (ename ^ ": one WAR checkpoint") 1
        whole.Executor.checkpoint_count;
      Alcotest.(check int) (ename ^ ": word 64") 2
        (Wn_mem.Memory.read32 (Machine.mem m) 256);
      for k = 1 to whole.Executor.retired - 1 do
        let m1 = fresh () in
        let captured = ref None in
        ignore
          (Executor.run ~engine ~policy
             ~on_step:(fun live ->
               if Machine.instructions_retired m1 = k then
                 captured := Some (Machine.snapshot m1, Executor.capture live))
             ~machine:m1 ~supply:(Supply.always_on ()) ());
        let snap, resume = Option.get !captured in
        let m2 = fresh () in
        Machine.restore m2 snap;
        let resumed =
          Executor.run ~engine ~policy ~resume ~machine:m2
            ~supply:(Supply.always_on ()) ()
        in
        let what = Printf.sprintf "%s, capture at %d" ename k in
        if resumed <> whole then Alcotest.failf "%s: outcome differs" what;
        Alcotest.(check string) (what ^ ": memory") (memory m) (memory m2)
      done)
    [ ("block", Executor.Block); ("reference", Executor.Reference) ]

let () =
  Alcotest.run "wn.runtime"
    [
      ( "always-on",
        [
          Alcotest.test_case "completes" `Quick test_always_on_completes;
          Alcotest.test_case "runs to precise without outage" `Quick
            test_no_skim_runs_to_precise;
          Alcotest.test_case "max wall guard" `Quick test_max_wall_guard;
          Alcotest.test_case "snapshots" `Quick test_snapshots_fire;
        ] );
      ( "nvp",
        [
          Alcotest.test_case "survives outages" `Quick test_nvp_survives_outages;
          Alcotest.test_case "skim on outage" `Quick test_skim_on_outage_nvp;
        ] );
      ( "clank",
        [
          Alcotest.test_case "restore and re-execute" `Quick
            test_clank_restores_and_reexecutes;
          Alcotest.test_case "watchdog" `Quick test_clank_watchdog;
          Alcotest.test_case "WAR checkpoint" `Quick test_clank_war_checkpoint;
          Alcotest.test_case "WAR across epochs" `Quick test_clank_war_epochs;
          Alcotest.test_case "engines lockstep" `Quick test_clank_engines_lockstep;
          Alcotest.test_case "skim on outage" `Quick test_skim_on_outage_clank;
          Alcotest.test_case "rollback restores the checkpoint" `Quick
            test_clank_rollback_restores_checkpoint;
        ] );
      ( "skim",
        [ Alcotest.test_case "halt at skim" `Quick test_halt_at_skim ] );
      ( "observers",
        [
          Alcotest.test_case "capture rejects a halted machine" `Quick
            test_capture_rejects_halted;
          Alcotest.test_case "capture rejects a cut supply" `Quick
            test_capture_rejects_cut_supply;
          Alcotest.test_case "a cut on restore strikes again at once" `Quick
            test_cut_on_restore;
          Alcotest.test_case "a cut on a capacitor-backed supply" `Quick
            test_cut_capacitor_supply;
          Alcotest.test_case "leases charge as per-instruction steps" `Quick
            test_leases_match_stepwise_charging;
          Alcotest.test_case "a cut on checkpoint is rejected" `Quick
            test_cut_on_checkpoint_rejected;
          Alcotest.test_case "resume rejects another policy" `Quick
            test_resume_rejects_other_policy;
          Alcotest.test_case "rejoin compares the policy state" `Quick
            test_rejoin_compares_policy_state;
          Alcotest.test_case "resume keeps the last packed byte" `Quick
            test_resume_last_packed_byte;
        ] );
    ]
