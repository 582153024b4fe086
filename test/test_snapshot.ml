(* Tests for the whole-simulation snapshot layer: Machine.snapshot /
   Machine.restore must round-trip bit-exactly — registers, flags, PC,
   counters, skim latch, memoization tables, memory image and access
   stats — under both engines, on every suite workload, into the same
   machine or a fresh one. *)

open Wn_machine
module Memory = Wn_mem.Memory
module Workload = Wn_workloads.Workload
module Runner = Wn_core.Runner
module Rng = Wn_util.Rng

(* Everything architecturally observable about a machine. *)
type obs = {
  pc : int;
  regs : int array;
  flags : Wn_isa.Cond.flags;
  halted : bool;
  skim : int option;
  retired : int;
  wn : int;
  cycles : int;
  mem_stats : int * int;
  digest : Digest.t;
}

let observe m =
  {
    pc = Machine.pc m;
    regs = Array.init Wn_isa.Reg.count (fun i -> Machine.reg m (Wn_isa.Reg.r i));
    flags = Machine.flags m;
    halted = Machine.halted m;
    skim = Machine.skim_target m;
    retired = Machine.instructions_retired m;
    wn = Machine.wn_instructions m;
    cycles = Machine.cycles_executed m;
    mem_stats = Memory.read_stats (Machine.mem m);
    digest = Memory.digest (Machine.mem m);
  }

let engines =
  [
    ("fast", Machine.step_fast);
    ("reference", Machine.step_reference);
  ]

(* Memoization and zero skipping carry extra mutable state (tag/result
   arrays, hit counters) that the snapshot must capture too. *)
let machine_config = { Machine.memo_entries = Some 16; zero_skip = true }

let fresh_machine w =
  let b = Runner.build w { Workload.bits = 8; provisioned = true } in
  let inputs = w.Workload.fresh_inputs (Rng.create 5) in
  fun () ->
    let m = Runner.machine ~machine_config b in
    Runner.load_sample b m inputs;
    m

(* Step [n] times (stopping at halt), observing every [stride] steps;
   returns the observation trace including the final state. *)
let run_observed step m ~n ~stride =
  let trace = ref [] in
  let taken = ref 0 in
  (try
     for i = 1 to n do
       if Machine.halted m then raise Exit;
       step m;
       incr taken;
       if i mod stride = 0 then trace := observe m :: !trace
     done
   with Exit -> ());
  (List.rev (observe m :: !trace), !taken)

let roundtrip_workload (ename, step) w =
  let fresh = fresh_machine w in
  let m = fresh () in
  (* Advance into the program so the snapshot catches warm memo tables,
     live flags and a nonzero skim latch on anytime builds. *)
  let _, warmed = run_observed step m ~n:400 ~stride:400 in
  let snap = Machine.snapshot m in
  let before = observe m in
  Alcotest.(check int)
    (Printf.sprintf "%s/%s: snapshot_retired" w.Workload.name ename)
    before.retired
    (Machine.snapshot_retired snap);
  let trace1, taken = run_observed step m ~n:600 ~stride:100 in
  let name what =
    Printf.sprintf "%s/%s (warmed %d, replayed %d): %s" w.Workload.name ename
      warmed taken what
  in
  (* Restore into the same machine... *)
  Machine.restore m snap;
  if observe m <> before then Alcotest.fail (name "restore is not bit-exact");
  let trace2, _ = run_observed step m ~n:600 ~stride:100 in
  if trace1 <> trace2 then Alcotest.fail (name "replay diverges after restore");
  (* ...and into a fresh machine of the same configuration. *)
  let m2 = fresh () in
  Machine.restore m2 snap;
  if observe m2 <> before then
    Alcotest.fail (name "restore into a fresh machine is not bit-exact");
  let trace3, _ = run_observed step m2 ~n:600 ~stride:100 in
  if trace1 <> trace3 then
    Alcotest.fail (name "fresh-machine replay diverges after restore")

let test_roundtrip_suite () =
  let suite = Wn_workloads.Suite.all Workload.Small in
  List.iter (fun e -> List.iter (roundtrip_workload e) suite) engines

(* Delta snapshots (the default) structurally share memory pages with
   the machine's previous snapshot; full snapshots copy every page.
   Both must restore to bit-identical machines at every point of a
   chain of captures taken at pseudo-random distances. *)
let test_delta_vs_full_chain () =
  let w = Wn_workloads.Suite.find Workload.Small "MatAdd" in
  let fresh = fresh_machine w in
  let m = fresh () in
  let rng = Rng.create 23 in
  let chain = ref [] in
  (* A chain of interleaved delta/full captures at random strides; the
     full capture second so the delta's baseline chain is not broken by
     it being taken first. *)
  for _ = 1 to 12 do
    let n = 1 + Rng.int rng 700 in
    (try
       for _ = 1 to n do
         if Machine.halted m then raise Exit;
         Machine.step_fast m
       done
     with Exit -> ());
    let delta = Machine.snapshot m in
    let full = Machine.snapshot ~full:true m in
    chain := (delta, full, observe m) :: !chain
  done;
  List.iteri
    (fun i (delta, full, expected) ->
      let md = fresh () in
      Machine.restore md delta;
      if observe md <> expected then
        Alcotest.failf "delta restore %d not bit-exact" i;
      if not (Machine.matches_state md full) then
        Alcotest.failf "delta restore %d does not match the full snapshot" i;
      let mf = fresh () in
      Machine.restore mf full;
      if observe mf <> expected then
        Alcotest.failf "full restore %d not bit-exact" i;
      (* Restore the same machine across chain entries out of order:
         in-place restores must not depend on capture order. *)
      Machine.restore md full;
      Machine.restore md delta;
      if observe md <> expected then
        Alcotest.failf "re-restore %d not bit-exact" i)
    !chain

(* Restoring across machines of different configuration must be
   refused, never silently corrupt. *)
let test_restore_mismatch () =
  let w = Wn_workloads.Suite.find Workload.Small "MatAdd" in
  let b = Runner.build w { Workload.bits = 8; provisioned = true } in
  let with_memo = Runner.machine ~machine_config b in
  let plain = Runner.machine b in
  let mismatch = Invalid_argument "Machine.restore: configuration mismatch" in
  Alcotest.check_raises "memo <- plain" mismatch (fun () ->
      Machine.restore with_memo (Machine.snapshot plain));
  Alcotest.check_raises "plain <- memo" mismatch (fun () ->
      Machine.restore plain (Machine.snapshot with_memo));
  let other = Wn_workloads.Suite.find Workload.Small "Conv2d" in
  let ob = Runner.build other { Workload.bits = 8; provisioned = true } in
  Alcotest.check_raises "different program" mismatch (fun () ->
      Machine.restore plain (Machine.snapshot (Runner.machine ob)))

let () =
  Alcotest.run "wn.snapshot"
    [
      ( "machine",
        [
          Alcotest.test_case "suite round-trips (both engines)" `Quick
            test_roundtrip_suite;
          Alcotest.test_case "delta vs full snapshot chain" `Quick
            test_delta_vs_full_chain;
          Alcotest.test_case "configuration mismatch" `Quick
            test_restore_mismatch;
        ] );
    ]
