(* Folds an executor run's observer stream — [on_step] after every
   retired instruction, [on_event] for each runtime event — back into
   the quantities the executor accounts for itself: the outcome
   counters, and the burn windows the WCEC soundness oracle bounds.

   A burn window is every cycle spent between consecutive
   power-fail-safe points: the machine cycles since the last safe point
   plus the checkpoint and restore costs spent since then.  Safe points
   are a Clank checkpoint committing (the window includes the
   checkpoint's own cost), power dying (the restore opens the next
   window), every retired instruction under NVP or always-on (their
   state commits continuously) and the run ending.  Windows read the
   machine's cycle counter rather than summing per step: an overflow
   checkpoint fires inside an instruction's accounting, before that
   instruction's [on_step], and its window must include that
   instruction.

   The fold also forces the run's outages on an always-on supply:
   [cuts] lists retired instruction counts in ascending order, and the
   fold cuts the supply once the run has retired the next listed count.
   A repeated count cuts again on the restore that follows, so power
   fails straight after a restore too (back-to-back outages).  Each
   outage serves a fixed off-period, so several charge windows are
   exercised per task. *)

open Wn_machine
open Wn_runtime

type t = {
  machine : Machine.t;
  supply : Wn_power.Supply.t;
  mutable cuts : int list;  (* retired counts still to cut at, ascending *)
  checkpoint_cost : int;
  restore_cost : int;
  rollback : bool;  (* Clank: a restore re-executes the lost epoch *)
  continuous : bool;  (* NVP / always-on: every instruction commits *)
  halt_at_skim : bool;
  mutable retired : int;
  mutable active : int;
  mutable overhead : int;
  mutable outages : int;
  mutable checkpoints : int;
  mutable reexecuted : int;
  mutable skimmed : bool;
  mutable first_skim_active : int option;
  mutable epoch_start : int;  (* retired count at the last checkpoint or restore *)
  mutable window_start : int;  (* machine cycle count at the last safe point *)
  mutable window_overhead : int;
  mutable max_window : int;
}

let create ~policy ~halt_at_skim ~cuts ~supply machine =
  let checkpoint_cost, restore_cost, rollback =
    match policy with
    | Executor.Clank c -> (c.Executor.checkpoint_cycles, c.clank_restore_cycles, true)
    | Executor.Nvp c -> (0, c.Executor.nvp_restore_cycles, false)
    | Executor.Always_on -> (0, 0, false)
  in
  {
    machine;
    supply;
    cuts;
    checkpoint_cost;
    restore_cost;
    rollback;
    continuous = not rollback;
    halt_at_skim;
    retired = 0;
    active = 0;
    overhead = 0;
    outages = 0;
    checkpoints = 0;
    reexecuted = 0;
    skimmed = false;
    first_skim_active = None;
    epoch_start = Machine.instructions_retired machine;
    window_start = Machine.cycles_executed machine;
    window_overhead = 0;
    max_window = 0;
  }

let close_window t =
  let now = Machine.cycles_executed t.machine in
  t.max_window <- max t.max_window (now - t.window_start + t.window_overhead);
  t.window_start <- now;
  t.window_overhead <- 0

let spend t cycles =
  t.overhead <- t.overhead + cycles;
  t.window_overhead <- t.window_overhead + cycles

let new_epoch t = t.epoch_start <- Machine.instructions_retired t.machine

(* Cut if the run has retired the next listed count. *)
let cut_due t =
  match t.cuts with
  | c :: rest when c <= t.retired ->
      t.cuts <- rest;
      Wn_power.Supply.cut t.supply
  | _ -> ()

let on_step t =
  let m = t.machine in
  t.retired <- t.retired + 1;
  t.active <- t.active + Machine.last_cycles m;
  if Machine.last_was_skm m then begin
    if t.first_skim_active = None then t.first_skim_active <- Some t.active;
    if t.halt_at_skim then t.skimmed <- true
  end;
  if t.continuous then close_window t;
  cut_due t

let on_event t = function
  | Executor.Checkpoint ->
      t.checkpoints <- t.checkpoints + 1;
      spend t t.checkpoint_cost;
      close_window t;
      new_epoch t
  | Executor.Outage ->
      t.outages <- t.outages + 1;
      close_window t
  | Executor.Restore ->
      spend t t.restore_cost;
      if t.rollback then
        t.reexecuted <-
          t.reexecuted + Machine.instructions_retired t.machine - t.epoch_start;
      new_epoch t;
      cut_due t
  | Executor.Skim_restore ->
      spend t t.restore_cost;
      t.skimmed <- true;
      new_epoch t;
      cut_due t

(* The soundness oracle's schedule, shared with the WCEC table: counts
   that land mid-region at several scales, two of them doubled for
   back-to-back outages. *)
let oracle_cuts =
  [ 777; 5_001; 5_001; 12_345; 44_444; 44_444; 99_999; 222_222 ]

(* One from-scratch run, folded, with an outage forced at each of
   [cuts].  [check] sees every step too. *)
let run ?engine ?(halt_at_skim = false) ?(check = fun () -> ()) ~cuts ~policy
    ~machine () =
  let supply =
    Wn_power.Supply.always_on ~off_cycles:Wn_power.Supply.default_off_cycles ()
  in
  let t = create ~policy ~halt_at_skim ~cuts ~supply machine in
  let outcome =
    Executor.run ~policy ?engine ~halt_at_skim
      ~on_step:(fun _ ->
        on_step t;
        check ())
      ~on_event:(on_event t) ~machine ~supply ()
  in
  close_window t;
  (outcome, t)
