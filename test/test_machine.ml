(* Tests for wn.machine: instruction semantics on the cycle-accurate
   core, the WN extensions, memoization and zero skipping. *)

open Wn_isa
open Wn_machine

let r = Reg.r

(* Assemble and run a program until HALT; return the machine. *)
let run ?config ?(mem_size = 256) ?(setup = fun _ -> ()) items =
  let program = Asm.assemble_exn (List.map (fun i -> Asm.I i) items @ [ Asm.I Instr.Halt ]) in
  let mem = Wn_mem.Memory.create ~size:mem_size in
  let machine = Machine.create ?config ~program ~mem () in
  setup machine;
  let guard = ref 0 in
  while not (Machine.halted machine) do
    incr guard;
    if !guard > 1_000_000 then Alcotest.fail "program did not halt";
    Machine.step_fast machine
  done;
  machine

let check_reg machine name expect reg_no =
  Alcotest.(check int) name expect (Machine.reg machine (r reg_no))

let test_mov_movt () =
  let m = run [ Instr.Mov_imm (r 0, 0xBEEF); Instr.Movt (r 0, 0xDEAD) ] in
  check_reg m "full word" 0xDEADBEEF 0

let test_alu_ops () =
  let m =
    run
      [
        Instr.Mov_imm (r 1, 12);
        Instr.Mov_imm (r 2, 10);
        Instr.Alu (Instr.Add, r 3, r 1, r 2);
        Instr.Alu (Instr.Sub, r 4, r 1, r 2);
        Instr.Alu (Instr.And, r 5, r 1, r 2);
        Instr.Alu (Instr.Orr, r 6, r 1, r 2);
        Instr.Alu (Instr.Eor, r 7, r 1, r 2);
        Instr.Alu (Instr.Bic, r 8, r 1, r 2);
        Instr.Alu_imm (Instr.Add, r 9, r 1, 4000);
      ]
  in
  check_reg m "add" 22 3;
  check_reg m "sub" 2 4;
  check_reg m "and" 8 5;
  check_reg m "orr" 14 6;
  check_reg m "eor" 6 7;
  check_reg m "bic" 4 8;
  check_reg m "add imm" 4012 9

let test_sub_wraps () =
  let m =
    run [ Instr.Mov_imm (r 1, 1); Instr.Mov_imm (r 2, 2);
          Instr.Alu (Instr.Sub, r 3, r 1, r 2) ]
  in
  check_reg m "1-2 wraps to 0xFFFFFFFF" 0xFFFFFFFF 3

let test_shifts () =
  let m =
    run
      [
        Instr.Mov_imm (r 1, 0x8000); Instr.Movt (r 1, 0x8000);
        Instr.Shift (Instr.Lsl, r 2, r 1, 1);
        Instr.Shift (Instr.Lsr, r 3, r 1, 4);
        Instr.Shift (Instr.Asr, r 4, r 1, 4);
      ]
  in
  check_reg m "lsl drops carry" 0x00010000 2;
  check_reg m "lsr zero-fills" 0x08000800 3;
  check_reg m "asr sign-fills" 0xF8000800 4

let test_mul () =
  let m =
    run [ Instr.Mov_imm (r 1, 1234); Instr.Mov_imm (r 2, 5678);
          Instr.Mul (r 3, r 1, r 2) ]
  in
  check_reg m "product" (1234 * 5678) 3

let test_mul_asp_decomposition () =
  (* Accumulating MUL_ASP over both bytes of y must equal x·y. *)
  let x = 913 and y = 0xA7C3 in
  let m =
    run
      [
        Instr.Mov_imm (r 1, x);
        Instr.Mov_imm (r 2, y land 0xFF);       (* low byte *)
        Instr.Mov_imm (r 3, (y lsr 8) land 0xFF);  (* high byte *)
        Instr.Mov (r 4, r 1);
        Instr.Mul_asp { bits = 8; signed = false; rd = r 4; rn = r 3; shift = 8 };
        Instr.Mov (r 5, r 1);
        Instr.Mul_asp { bits = 8; signed = false; rd = r 5; rn = r 2; shift = 0 };
        Instr.Alu (Instr.Add, r 6, r 4, r 5);
      ]
  in
  check_reg m "byte-decomposed product" (x * y) 6

let test_mul_asp_signed_top () =
  (* Signed top digit: y = -2 as a 16-bit value, top byte 0xFF. *)
  let x = 100 in
  let m =
    run
      [
        Instr.Mov_imm (r 1, x);
        Instr.Mov_imm (r 2, 0xFF);  (* top byte of 0xFFFE *)
        Instr.Mov_imm (r 3, 0xFE);  (* low byte *)
        Instr.Mov (r 4, r 1);
        Instr.Mul_asp { bits = 8; signed = true; rd = r 4; rn = r 2; shift = 8 };
        Instr.Mov (r 5, r 1);
        Instr.Mul_asp { bits = 8; signed = false; rd = r 5; rn = r 3; shift = 0 };
        Instr.Alu (Instr.Add, r 6, r 4, r 5);
      ]
  in
  check_reg m "x * (-2) wrapped" ((x * -2) land 0xFFFFFFFF) 6

let test_mul_asp_truncates_operand () =
  (* Only the low [bits] of rn participate. *)
  let m =
    run
      [
        Instr.Mov_imm (r 1, 10);
        Instr.Mov_imm (r 2, 0xFF7);  (* low nibble 7 *)
        Instr.Mov (r 3, r 1);
        Instr.Mul_asp { bits = 4; signed = false; rd = r 3; rn = r 2; shift = 0 };
      ]
  in
  check_reg m "nibble only" 70 3

let test_sqrt_unit () =
  let m =
    run
      [
        Instr.Mov_imm (r 1, 0); Instr.Movt (r 1, 1);  (* 65536 *)
        Instr.Sqrt (r 2, r 1);
        Instr.Mov_imm (r 3, 99); Instr.Sqrt (r 4, r 3);
        Instr.Mov_imm (r 5, 100); Instr.Sqrt (r 6, r 5);
        Instr.Mov_imm (r 7, 0); Instr.Sqrt (r 8, r 7);
      ]
  in
  check_reg m "sqrt 65536" 256 2;
  check_reg m "sqrt 99 floors" 9 4;
  check_reg m "sqrt 100" 10 6;
  check_reg m "sqrt 0" 0 8;
  (* latency: the full root costs 16 cycles, a 4-bit stage costs 4 *)
  Alcotest.(check int) "full root latency" 16
    (Instr.cycles ~taken:false (Instr.Sqrt (r 0, r 1)));
  Alcotest.(check int) "stage latency" 4
    (Instr.cycles ~taken:false (Instr.Sqrt_asp { bits = 4; rd = r 0; rn = r 1 }))

let prop_sqrt_asp_truncates =
  (* A k-bit SQRT_ASP stage equals the full root with its low bits
     cleared — every digit decision is final. *)
  QCheck.Test.make ~count:300 ~name:"SQRT_ASP stages truncate the exact root"
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_range 1 16))
    (fun (n, bits) ->
      (* the pair shrinker can step outside int_range; clamp *)
      let bits = max 1 (min 16 bits) in
      let m =
        run
          [
            Instr.Mov_imm (r 1, n land 0xFFFF);
            Instr.Movt (r 1, n lsr 16);
            Instr.Sqrt (r 2, r 1);
            Instr.Sqrt_asp { bits; rd = r 3; rn = r 1 };
          ]
      in
      let full = Machine.reg m (r 2) in
      let stage = Machine.reg m (r 3) in
      stage = (full lsr (16 - bits)) lsl (16 - bits)
      && full * full <= n
      && (full + 1) * (full + 1) > n)

let test_asv_lanes () =
  let m =
    run
      [
        Instr.Mov_imm (r 1, 0x00FF); Instr.Movt (r 1, 0x00FF);
        Instr.Mov_imm (r 2, 0x0001); Instr.Movt (r 2, 0x0001);
        Instr.Add_asv (8, r 3, r 1, r 2);
        Instr.Add_asv (16, r 4, r 1, r 2);
        Instr.Sub_asv (8, r 5, r 2, r 1);
      ]
  in
  check_reg m "8-bit lanes cut carries" 0x00000000 3;
  check_reg m "16-bit lanes keep byte carries" 0x01000100 4;
  check_reg m "sub lanes cut borrows" 0x00020002 5

let test_loads_stores () =
  let m =
    run
      [
        Instr.Mov_imm (r 1, 0xBEEF); Instr.Movt (r 1, 0xDEAD);
        Instr.Mov_imm (r 2, 16);
        Instr.Str_reg { width = Instr.Word; rs = r 1; base = r 2; idx = r 2 };
        Instr.Ldr { width = Instr.Word; signed = false; rd = r 3; base = r 2; off = 16 };
        Instr.Ldr { width = Instr.Byte; signed = false; rd = r 4; base = r 2; off = 19 };
        Instr.Ldr { width = Instr.Half; signed = true; rd = r 5; base = r 2; off = 18 };
      ]
  in
  check_reg m "word round trip" 0xDEADBEEF 3;
  check_reg m "MSB byte" 0xDE 4;
  check_reg m "signed half" 0xFFFFDEAD 5

let test_branches_and_flags () =
  (* Sum 1..5 with a loop. *)
  let items =
    [
      Asm.I (Instr.Mov_imm (r 0, 0));
      Asm.I (Instr.Mov_imm (r 1, 1));
      Asm.Label "loop";
      Asm.I (Instr.Alu (Instr.Add, r 0, r 0, r 1));
      Asm.I (Instr.Alu_imm (Instr.Add, r 1, r 1, 1));
      Asm.I (Instr.Cmp_imm (r 1, 6));
      Asm.I (Instr.B (Cond.Lt, "loop"));
      Asm.I Instr.Halt;
    ]
  in
  let program = Asm.assemble_exn items in
  let mem = Wn_mem.Memory.create ~size:64 in
  let machine = Machine.create ~program ~mem () in
  while not (Machine.halted machine) do
    Machine.step_fast machine
  done;
  Alcotest.(check int) "sum" 15 (Machine.reg machine (r 0))

let test_skm_register () =
  let program =
    Asm.assemble_exn
      [ Asm.I (Instr.Skm "tgt"); Asm.I Instr.Nop; Asm.Label "tgt"; Asm.I Instr.Halt ]
  in
  let mem = Wn_mem.Memory.create ~size:64 in
  let m = Machine.create ~program ~mem () in
  while not (Machine.halted m) do
    Machine.step_fast m
  done;
  Alcotest.(check (option int)) "latched" (Some 2) (Machine.skim_target m);
  Alcotest.(check (option int)) "take clears" (Some 2) (Machine.take_skim m);
  Alcotest.(check (option int)) "now empty" None (Machine.skim_target m)

let test_cycle_accounting () =
  let m = run [ Instr.Mov_imm (r 1, 3); Instr.Mov_imm (r 2, 4); Instr.Mul (r 3, r 1, r 2) ] in
  (* mov(1) + mov(1) + mul(16) + halt(1) *)
  Alcotest.(check int) "cycles" 19 (Machine.cycles_executed m);
  Alcotest.(check int) "retired" 4 (Machine.instructions_retired m)

let test_memoization () =
  let config = { Machine.memo_entries = Some 16; zero_skip = false } in
  let m =
    run ~config
      [
        Instr.Mov_imm (r 1, 33); Instr.Mov_imm (r 2, 44);
        Instr.Mul (r 3, r 1, r 2);
        Instr.Mul (r 4, r 1, r 2);
      ]
  in
  check_reg m "first result" (33 * 44) 3;
  check_reg m "memoized result" (33 * 44) 4;
  (match Machine.memo m with
  | Some table ->
      Alcotest.(check int) "one hit" 1 (Memo.hits table);
      Alcotest.(check int) "one miss" 1 (Memo.misses table)
  | None -> Alcotest.fail "no memo table");
  (* mov+mov + mul(16) + mul(1 on hit) + halt *)
  Alcotest.(check int) "hit is single cycle" 20 (Machine.cycles_executed m)

let test_zero_skipping () =
  let config = { Machine.memo_entries = None; zero_skip = true } in
  let m =
    run ~config
      [ Instr.Mov_imm (r 1, 0); Instr.Mov_imm (r 2, 44); Instr.Mul (r 3, r 1, r 2) ]
  in
  check_reg m "zero product" 0 3;
  Alcotest.(check int) "skipped to 1 cycle" 4 (Machine.cycles_executed m)

let test_memo_table_unit () =
  let t = Memo.create ~entries:16 () in
  Alcotest.(check (option int)) "cold" None (Memo.lookup t ~a:5 ~b:7);
  Memo.insert t ~a:5 ~b:7 ~result:35;
  Alcotest.(check (option int)) "hit" (Some 35) (Memo.lookup t ~a:5 ~b:7);
  (* Same index, different tag must miss (direct-mapped conflict). *)
  Alcotest.(check (option int)) "conflict tag miss" None
    (Memo.lookup t ~a:(5 + 1024) ~b:7);
  Memo.clear t;
  Alcotest.(check (option int)) "cleared" None (Memo.lookup t ~a:5 ~b:7);
  Alcotest.check_raises "entries must be a power of two"
    (Invalid_argument "Memo.create") (fun () -> ignore (Memo.create ~entries:12 ()))

let test_capture_restore_scrub () =
  let program = Asm.assemble_exn [ Asm.I (Instr.Mov_imm (r 0, 9)); Asm.I Instr.Halt ] in
  let mem = Wn_mem.Memory.create ~size:64 in
  let m = Machine.create ~program ~mem () in
  Machine.step_fast m;
  let snap = Machine.capture_registers m in
  Machine.scrub_volatile m;
  Alcotest.(check int) "scrubbed reg" 0 (Machine.reg m (r 0));
  Alcotest.(check int) "scrubbed pc" 0 (Machine.pc m);
  Machine.restore_registers m snap;
  Alcotest.(check int) "restored reg" 9 (Machine.reg m (r 0));
  Alcotest.(check int) "restored pc" 1 (Machine.pc m)

let prop_mul_asp_matches_digits =
  (* Machine-level version of the decomposition property, including the
     signed top digit, for 4- and 8-bit digits. *)
  QCheck.Test.make ~count:200 ~name:"machine MUL_ASP digit sums equal MUL"
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (oneofl [ 4; 8 ]))
    (fun (x, y, bits) ->
      let n = 16 / bits in
      let items =
        List.concat
          (List.init n (fun pos ->
               let digit = (y lsr (pos * bits)) land ((1 lsl bits) - 1) in
               [
                 Instr.Mov_imm (r 1, x);
                 Instr.Mov_imm (r 2, digit);
                 Instr.Mul_asp
                   { bits; signed = false; rd = r 1; rn = r 2; shift = pos * bits };
                 Instr.Alu (Instr.Add, r 0, r 0, r 1);
               ]))
      in
      let m = run items in
      Machine.reg m (r 0) = x * y land 0xFFFFFFFF)

(* [find_or_add] must behave exactly like lookup-then-insert: same
   results, same hit/miss counters, same [last_was_hit], over a mix of
   hits, cold misses and conflict evictions. *)
let test_memo_find_or_add () =
  let split = Memo.create ~entries:16 () in
  let combined = Memo.create ~entries:16 () in
  let pairs =
    (* repeats (hits), fresh pairs (misses) and slot-conflicting pairs
       (evictions: 16 entries index on 2 low bits of each operand). *)
    [ (3, 17); (3, 17); (5, 9); (7, 17); (3, 17); (19, 9); (5, 9);
      (3 + 4, 17); (3, 17 + 4); (3, 17); (0, 0); (0, 0) ]
  in
  List.iter
    (fun (a, b) ->
      let r_split =
        match Memo.lookup split ~a ~b with
        | Some r -> r
        | None ->
            let r = a * b in
            Memo.insert split ~a ~b ~result:r;
            r
      in
      let r_combined = Memo.find_or_add combined ~a ~b ~miss:(a * b) in
      Alcotest.(check int) "result" r_split r_combined;
      Alcotest.(check bool) "last_was_hit"
        (Memo.last_was_hit split) (Memo.last_was_hit combined))
    pairs;
  Alcotest.(check int) "hits" (Memo.hits split) (Memo.hits combined);
  Alcotest.(check int) "misses" (Memo.misses split) (Memo.misses combined);
  if Memo.hits combined = 0 then Alcotest.fail "sequence produced no hits";
  if Memo.misses combined = 0 then Alcotest.fail "sequence produced no misses"

(* The dispatch table is predecoded once at [create]; resets and
   volatility scrubs must keep executing from it.  Runs a task with a
   skim point to completion through [step_fast], then again after
   [reset_for_new_task], then replays an outage-with-skim
   ([scrub_volatile] + jump to the skim target). *)
let test_predecode_survives_reset_and_scrub () =
  let program =
    Asm.assemble_exn
      [
        Asm.I (Instr.Mov_imm (r 0, 7));
        Asm.I (Instr.Skm "skim");
        Asm.I (Instr.Mov_imm (r 1, 3));
        Asm.I (Instr.Alu (Instr.Add, r 2, r 0, r 1));
        Asm.Label "skim";
        Asm.I (Instr.Mov_imm (r 3, 42));
        Asm.I Instr.Halt;
      ]
  in
  let mem = Wn_mem.Memory.create ~size:64 in
  let machine = Machine.create ~program ~mem () in
  let run_to_halt () =
    while not (Machine.halted machine) do
      Machine.step_fast machine
    done
  in
  run_to_halt ();
  check_reg machine "first run r2" 10 2;
  check_reg machine "first run r3" 42 3;
  (* Fresh task: the same predecoded table must replay identically. *)
  Machine.reset_for_new_task machine;
  Alcotest.(check int) "reset pc" 0 (Machine.pc machine);
  check_reg machine "reset scrubs r2" 0 2;
  run_to_halt ();
  check_reg machine "second run r2" 10 2;
  (* Outage replay: stop after the skim latch, scrub volatile state and
     resume at the skim target, still through the predecoded table. *)
  Machine.reset_for_new_task machine;
  Machine.step_fast machine;
  Machine.step_fast machine;
  Alcotest.(check bool) "skim latched" true (Machine.skim_target machine <> None);
  Machine.scrub_volatile machine;
  check_reg machine "scrub clears r0" 0 0;
  (match Machine.take_skim machine with
  | Some tgt -> Machine.set_pc machine tgt
  | None -> Alcotest.fail "skim register lost");
  run_to_halt ();
  check_reg machine "skim path r3" 42 3;
  check_reg machine "skim path skips r2" 0 2

let () =
  Alcotest.run "wn.machine"
    [
      ( "semantics",
        [
          Alcotest.test_case "mov/movt" `Quick test_mov_movt;
          Alcotest.test_case "alu" `Quick test_alu_ops;
          Alcotest.test_case "wrapping" `Quick test_sub_wraps;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "loads/stores" `Quick test_loads_stores;
          Alcotest.test_case "branches" `Quick test_branches_and_flags;
        ] );
      ( "wn extensions",
        [
          Alcotest.test_case "mul_asp decomposition" `Quick test_mul_asp_decomposition;
          Alcotest.test_case "mul_asp signed top" `Quick test_mul_asp_signed_top;
          Alcotest.test_case "mul_asp truncates" `Quick test_mul_asp_truncates_operand;
          Alcotest.test_case "asv lanes" `Quick test_asv_lanes;
          Alcotest.test_case "sqrt unit" `Quick test_sqrt_unit;
          QCheck_alcotest.to_alcotest prop_sqrt_asp_truncates;
          Alcotest.test_case "skm register" `Quick test_skm_register;
          QCheck_alcotest.to_alcotest prop_mul_asp_matches_digits;
        ] );
      ( "timing",
        [
          Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
          Alcotest.test_case "memoization" `Quick test_memoization;
          Alcotest.test_case "zero skipping" `Quick test_zero_skipping;
          Alcotest.test_case "memo table" `Quick test_memo_table_unit;
          Alcotest.test_case "find_or_add" `Quick test_memo_find_or_add;
        ] );
      ( "state",
        [
          Alcotest.test_case "capture/restore/scrub" `Quick test_capture_restore_scrub;
          Alcotest.test_case "predecode across reset/scrub" `Quick
            test_predecode_survives_reset_and_scrub;
        ] );
    ]
