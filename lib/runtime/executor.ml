open Wn_isa
open Wn_machine
open Wn_power

type nvp_config = { nvp_restore_cycles : int }

let default_nvp = { nvp_restore_cycles = Runtime_costs.nvp_wakeup_cycles }

type clank_config = {
  watchdog_period : int;
  buffer_entries : int;
  checkpoint_cycles : int;
  clank_restore_cycles : int;
}

let default_clank =
  {
    watchdog_period = Runtime_costs.watchdog_period;
    buffer_entries = Runtime_costs.buffer_entries;
    checkpoint_cycles = Runtime_costs.checkpoint_cycles;
    clank_restore_cycles = Runtime_costs.restore_cycles;
  }

type policy = Always_on | Nvp of nvp_config | Clank of clank_config

type engine = Block | Reference

let engine_of_string = function
  | "block" -> Some Block
  | "reference" -> Some Reference
  | _ -> None

type outcome = {
  completed : bool;
  skimmed : bool;
  first_skim_active : int option;
  wall_cycles : int;
  active_cycles : int;
  overhead_cycles : int;
  reexecuted_instructions : int;
  outage_count : int;
  checkpoint_count : int;
  retired : int;
}

type event = Checkpoint | Outage | Restore | Skim_restore

(* Clank's policy state, one record for the live run, a capture and a
   resumed run: the config, the last checkpoint and the read-first/write
   sets used to detect idempotency (write-after-read) violations at word
   granularity, plus the cycles and instructions since the checkpoint.
   The sets live in one packed [shadow] map over data memory — 2 bits
   per word, four words per byte (bit 0: read first this epoch, bit 1:
   fully written this epoch) — so membership tests and inserts are byte
   indexing instead of hashing, and [copy] is one [Bytes.copy].
   Clearing the sets at a checkpoint or restore is one [Bytes.fill] of
   at most (data words / 4) bytes: 4,388 on the largest suite build.
   [tracked] counts set bits across both planes (a word in both planes
   counts twice), mirroring the hardware's two tracking buffers filling
   independently.

   The written plane only holds words *fully* overwritten this epoch: a
   partial (byte/halfword) store must not suppress read tracking of its
   sibling bytes, or a later write to them would escape WAR detection
   and re-execution would read the new value. *)
module Clank = struct
  type t = {
    cfg : clank_config;
    mutable checkpoint : Machine.register_file;
    shadow : Bytes.t;
    mutable tracked : int;
    mutable since_cycles : int;
    mutable since_retired : int;
  }

  let read_bit = 1
  let write_bit = 2

  let bits t w =
    (Char.code (Bytes.unsafe_get t.shadow (w lsr 2)) lsr ((w land 3) lsl 1))
    land 3

  let set t w bit =
    let i = w lsr 2 in
    Bytes.unsafe_set t.shadow i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.shadow i) lor (bit lsl ((w land 3) lsl 1))))

  (* Four words of data memory per shadow byte. *)
  let shadow_bytes m = (((Wn_mem.Memory.size (Machine.mem m) + 3) / 4) + 3) / 4

  let create cfg m =
    {
      cfg;
      checkpoint = Machine.capture_registers m;
      shadow = Bytes.make (shadow_bytes m) '\000';
      tracked = 0;
      since_cycles = 0;
      since_retired = 0;
    }

  (* The checkpoint register file is replaced wholesale, never mutated,
     so a copy may share it. *)
  let copy t = { t with shadow = Bytes.copy t.shadow }

  let equal a b =
    a.tracked = b.tracked
    && a.since_cycles = b.since_cycles
    && a.since_retired = b.since_retired
    && a.cfg = b.cfg
    && a.checkpoint = b.checkpoint
    && Bytes.equal a.shadow b.shadow

  let clear t =
    Bytes.fill t.shadow 0 (Bytes.length t.shadow) '\000';
    t.tracked <- 0;
    t.since_cycles <- 0;
    t.since_retired <- 0

  (* A new epoch from the machine's registers as they are. *)
  let commit t m =
    t.checkpoint <- Machine.capture_registers m;
    clear t

  (* A new epoch from the last checkpoint; returns the instructions
     retired since it, which re-execute. *)
  let rollback t m =
    let redo = t.since_retired in
    Machine.restore_registers m t.checkpoint;
    clear t;
    redo
end

let word_of_addr addr = addr lsr 2

(* Per-PC store-operand table, built once per [run]: for each PC that
   holds a store, the registers/offset needed to compute its target
   address from the live register file.  Replaces re-matching the
   instruction ADT on every step of the WAR-violation pre-check. *)
type store_table = {
  (* 0 = not a store, 1 = Str (base + off), 2 = Str_reg (base + idx) *)
  st_kind : int array;
  st_base : Reg.t array;
  st_off : int array;
  st_idx : Reg.t array;
}

let build_store_table program =
  let n = Array.length program in
  let t =
    {
      st_kind = Array.make n 0;
      st_base = Array.make n (Reg.r 0);
      st_off = Array.make n 0;
      st_idx = Array.make n (Reg.r 0);
    }
  in
  Array.iteri
    (fun pc i ->
      match i with
      | Instr.Str { base; off; _ } ->
          t.st_kind.(pc) <- 1;
          t.st_base.(pc) <- base;
          t.st_off.(pc) <- off
      | Instr.Str_reg { base; idx; _ } ->
          t.st_kind.(pc) <- 2;
          t.st_base.(pc) <- base;
          t.st_idx.(pc) <- idx
      | _ -> ())
    program;
  t

(* Mid-run resume state, captured at a clean instruction boundary of an
   uninterrupted run: the policy, its Clank state and the outcome the
   run would report had it ended there.  Nothing inside is mutated once
   captured (the shadow map is copied at capture and again at resume),
   so one [resume_state] can seed any number of [run] calls from any
   number of domains. *)
type resume_state = {
  rs_policy : policy;
  rs_clank : Clank.t option;  (* [Some] exactly under [Clank] *)
  rs_at : outcome;
}

(* The run in progress: the loop counters, the bound policy state and
   what the step functions below read from the caller. *)
type live = {
  machine : Machine.t;
  supply : Supply.t;
  policy : policy;
  clank : Clank.t option;
  stores : store_table;
  halt_at_skim : bool;
  on_event : (event -> unit) option;
  (* Energy leases: [Supply.lease] grants cycles that one consume
     charges bit-identically to any split of them (unbounded on an
     always-on supply).  A step, fused run or overhead the lease holds
     only adds its cycles to [pending]; the supply is charged once, when
     the lease runs out, before an observer runs on a capacitor, at an
     outage and at run end.  A span the renewed lease cannot hold is
     charged on its own, which is exact in any state.  [clock] and [on]
     mirror the supply after each call into it, so a leased step calls
     nothing in wn.power. *)
  capacitor_backed : bool;  (* a cut empties the capacitor *)
  mutable clock : int;  (* [Supply.now_cycles] *)
  mutable on : bool;  (* [Supply.is_on], read back after every observer *)
  mutable lease : int;  (* cycles leased from [clock], [pending] of them used *)
  mutable pending : int;  (* not yet charged *)
  (* Offsets that turn the supply clock and the machine's retired count
     into totals from task start: a resumed run inherits its captured
     prefix, so its outcome is bit-identical to an uninterrupted run's. *)
  wall_offset : int;
  retired_offset : int;
  mutable active : int;
  mutable overhead : int;
  mutable reexecuted : int;
  mutable outages : int;
  mutable checkpoints : int;
  mutable skimmed : bool;
  mutable first_skim_active : int option;
  mutable observing : bool;  (* inside the caller's [on_step] *)
  mutable rejoined : outcome option;  (* the run's outcome, once rejoined *)
}

let wall_elapsed l = l.clock + l.pending + l.wall_offset

let outcome_of l =
  {
    completed = Machine.halted l.machine;
    skimmed = l.skimmed;
    first_skim_active = l.first_skim_active;
    wall_cycles = wall_elapsed l;
    active_cycles = l.active;
    overhead_cycles = l.overhead;
    reexecuted_instructions = l.reexecuted;
    outage_count = l.outages;
    checkpoint_count = l.checkpoints;
    retired = Machine.instructions_retired l.machine + l.retired_offset;
  }

(* Charge the used part of the lease; the rest stays leased. *)
let settle l =
  if l.pending > 0 then begin
    ignore (Supply.consume l.supply ~cycles:l.pending);
    l.clock <- l.clock + l.pending;
    l.lease <- l.lease - l.pending;
    l.pending <- 0
  end

let renew l =
  settle l;
  l.lease <- Supply.lease l.supply

let spend l cycles =
  if cycles <= l.lease - l.pending then l.pending <- l.pending + cycles
  else begin
    renew l;
    if cycles <= l.lease then l.pending <- cycles
    else begin
      l.on <- Supply.consume l.supply ~cycles;
      l.clock <- l.clock + cycles;
      (* A charge outside the lease voids it. *)
      l.lease <- 0
    end
  end

let spend_overhead l cycles =
  l.overhead <- l.overhead + cycles;
  spend l cycles

(* Before an observer runs, the leased cycles reach a capacitor: a cut
   empties it, and a charge after the cut would drain an empty
   capacitor.  On an always-on supply a cut only latches the off state,
   and charging them after it leaves the same clock, drain and outage
   count. *)
let before_observer l = if l.capacitor_backed then settle l

(* Report [e] to the [on_event] observer, if any, and read the latch
   back: the observer may have cut the supply.  A checkpoint fires
   inside an instruction's step, so an outage cut there would only be
   taken after that instruction retired on the cut supply: refuse the
   cut rather than land it one instruction late.  A brown-out during
   the checkpoint's own overhead has already turned the supply off and
   is not a cut. *)
let notify l e =
  match l.on_event with
  | None -> ()
  | Some f ->
      before_observer l;
      let was_on = l.on in
      f e;
      l.on <- Supply.is_on l.supply;
      if e = Checkpoint && was_on && not l.on then
        invalid_arg "Executor.run: on_event cut the supply on a Checkpoint"

let do_checkpoint l (st : Clank.t) =
  spend_overhead l st.cfg.checkpoint_cycles;
  Clank.commit st l.machine;
  l.checkpoints <- l.checkpoints + 1;
  notify l Checkpoint

(* Insert into one tracking plane, checkpointing first on overflow
   (capacity is checked before the insert, as the hardware tests the
   buffer before latching a new entry). *)
let track l (st : Clank.t) w bit =
  if Clank.bits st w land bit = 0 then begin
    if st.tracked >= st.cfg.buffer_entries then do_checkpoint l st;
    Clank.set st w bit;
    st.tracked <- st.tracked + 1
  end

(* Skip only reads dominated by a *full-word* write, which
   re-execution is guaranteed to reproduce. *)
let track_read l st addr =
  let w = word_of_addr addr in
  if Clank.bits st w land Clank.write_bit = 0 then track l st w Clank.read_bit

(* Watchdog and WAR-violation pre-check: a store about to write a word
   read first in this epoch forces a checkpoint *before* the violating
   write commits.  The store's target address comes from the per-PC
   table and live registers. *)
let pre_step l (st : Clank.t) =
  if st.since_cycles >= st.cfg.watchdog_period then do_checkpoint l st
  else begin
    let m = l.machine and stores = l.stores in
    let pc = Machine.pc m in
    if pc >= 0 && pc < Array.length stores.st_kind then
      match stores.st_kind.(pc) with
      | 1 ->
          let w =
            word_of_addr (Machine.reg m stores.st_base.(pc) + stores.st_off.(pc))
          in
          (* An out-of-range word cannot have been read this epoch
             (tracked reads all succeeded, hence were in bounds); nor
             can a word past the end of memory that shares the map's
             last byte. *)
          if w >= 0 && w lsr 2 < Bytes.length st.shadow
             && Clank.bits st w land Clank.read_bit <> 0
          then do_checkpoint l st
      | 2 ->
          let w =
            word_of_addr
              (Machine.reg m stores.st_base.(pc) + Machine.reg m stores.st_idx.(pc))
          in
          if w >= 0 && w lsr 2 < Bytes.length st.shadow
             && Clank.bits st w land Clank.read_bit <> 0
          then do_checkpoint l st
      | _ -> ()
  end

let handle_skim_jump l =
  match Machine.take_skim l.machine with
  | Some target ->
      Machine.set_pc l.machine target;
      l.skimmed <- true;
      true
  | None -> false

let handle_outage l =
  (* Cycles are still pending only on an always-on supply, after an
     observer's cut (see [before_observer]). *)
  settle l;
  notify l Outage;
  l.outages <- l.outages + 1;
  l.clock <- l.clock + Supply.wait_for_power l.supply;
  l.on <- true;
  l.lease <- 0;
  let m = l.machine in
  let skim =
    match l.clank with
    | None ->
        spend_overhead l
          (match l.policy with Nvp c -> c.nvp_restore_cycles | _ -> 0);
        (* NVP keeps all state; just honour a pending skim point. *)
        handle_skim_jump l
    | Some st ->
        spend_overhead l st.cfg.clank_restore_cycles;
        let skim = handle_skim_jump l in
        if skim then begin
          (* The skim target's code depends only on NVM state, so a
             scrubbed register file is safe; start a fresh epoch
             there. *)
          let pc = Machine.pc m in
          Machine.scrub_volatile m;
          Machine.set_pc m pc;
          Clank.commit st m
        end
        else
          (* Roll back: everything since the checkpoint re-executes. *)
          l.reexecuted <- l.reexecuted + Clank.rollback st m;
        skim
  in
  (* Restore complete: the machine is in exactly the state execution
     resumes from (skim jump taken, rollback applied). *)
  notify l (if skim then Skim_restore else Restore)

(* Everything after one instruction executes, read from the machine's
   effect scratch: both steppers leave it identically. *)
let post_step l =
  let m = l.machine in
  let cycles = Machine.last_cycles m in
  l.active <- l.active + cycles;
  spend l cycles;
  (match l.clank with
  | Some st ->
      st.since_cycles <- st.since_cycles + cycles;
      st.since_retired <- st.since_retired + 1;
      let read_addr = Machine.last_read_addr m in
      if read_addr >= 0 then track_read l st read_addr;
      let wrote_addr = Machine.last_wrote_addr m in
      if wrote_addr >= 0 && Machine.last_wrote_bytes m = 4 then
        track l st (word_of_addr wrote_addr) Clank.write_bit
  | None -> ());
  if Machine.last_was_skm m then begin
    if l.first_skim_active = None then l.first_skim_active <- Some l.active;
    if l.halt_at_skim then
      (* Model an outage at this very instant: take the skim jump and
         commit the earliest available output. *)
      ignore (handle_skim_jump l)
  end

(* Block engine: one guard at block entry, then the whole run in a
   single call, its energy charged after it.  Each conjunct ensures some
   per-instruction check could not have fired at an *interior* boundary
   of the run; anything that would fire exactly at the run's final
   boundary (the watchdog) fires identically after the batched commit.
   Any failed conjunct just falls back to per-instruction stepping until
   the next run entry — bit-identical, merely slower. *)
let try_block l ~max_wall_cycles b =
  let m = l.machine in
  let n = Machine.block_len b in
  let c = Machine.block_cycles b in
  wall_elapsed l + c <= max_wall_cycles
  && (match l.clank with
     | Some st ->
         (* No interior pre-step can trip the watchdog, and the read set
            cannot overflow the buffer mid-run (runs are store-free, so
            WAR pre-checks are vacuous). *)
         st.since_cycles + Machine.block_pre_cycles b < st.cfg.watchdog_period
         && st.tracked + Machine.block_loads b <= st.cfg.buffer_entries
     | None -> true)
  (* The lease, renewed once if need be, holds the whole run: one
     charge equals the per-instruction charges bit for bit. *)
  && (c <= l.lease - l.pending || (renew l; c <= l.lease))
  && begin
       Machine.exec_block m b;
       l.active <- l.active + c;
       l.pending <- l.pending + c;
       (match l.clank with
       | Some st ->
           st.since_cycles <- st.since_cycles + c;
           st.since_retired <- st.since_retired + n;
           (* Replay read tracking from the recorded load addresses, in
              order — no store ran in between, so the shadow-map
              transitions equal the per-step ones, and the entry guard
              ruled out an overflow checkpoint. *)
           for i = 0 to Machine.block_loads b - 1 do
             track_read l st (Machine.block_read_addr m b i)
           done
       | None -> ());
       (* Runs latch no skim point: [post_step]'s skim handling has
          nothing to do. *)
       true
     end

let observed fn l =
  if not l.observing then invalid_arg ("Executor." ^ fn ^ ": outside on_step")

let capture l =
  observed "capture" l;
  if Machine.halted l.machine || not (Supply.is_on l.supply) then
    invalid_arg "Executor.capture: not a clean boundary";
  {
    rs_policy = l.policy;
    rs_clank = Option.map Clank.copy l.clank;
    rs_at = outcome_of l;
  }

(* The run's outcome so far plus the reference run's progress from the
   matched boundary [at] to its end [final]. *)
let rejoin l ~at ~final =
  observed "rejoin" l;
  at.rs_policy = l.policy
  && Option.equal Clank.equal l.clank at.rs_clank
  && begin
       let o = outcome_of l and a = at.rs_at in
       let moved f = f o + (f final - f a) in
       l.rejoined <-
         Some
           {
             completed = final.completed;
             skimmed = o.skimmed || (final.skimmed && not a.skimmed);
             first_skim_active =
               (match (o.first_skim_active, final.first_skim_active) with
               | (Some _ as s), _ -> s
               | None, Some f when a.first_skim_active = None ->
                   Some (o.active_cycles + (f - a.active_cycles))
               | None, _ -> None);
             wall_cycles = moved (fun o -> o.wall_cycles);
             active_cycles = moved (fun o -> o.active_cycles);
             overhead_cycles = moved (fun o -> o.overhead_cycles);
             reexecuted_instructions =
               moved (fun o -> o.reexecuted_instructions);
             outage_count = moved (fun o -> o.outage_count);
             checkpoint_count = moved (fun o -> o.checkpoint_count);
             retired = moved (fun o -> o.retired);
           };
       true
     end

let task_start =
  {
    completed = false;
    skimmed = false;
    first_skim_active = None;
    wall_cycles = 0;
    active_cycles = 0;
    overhead_cycles = 0;
    reexecuted_instructions = 0;
    outage_count = 0;
    checkpoint_count = 0;
    retired = 0;
  }

let run ?(policy = Always_on) ?(engine = Block)
    ?(max_wall_cycles = 20_000_000_000) ?(halt_at_skim = false) ?resume
    ?on_step ?on_event ~machine ~supply () =
  let at =
    match resume with
    | None -> task_start
    | Some rs when rs.rs_policy <> policy ->
        invalid_arg "Executor.run: resume state captured under another policy"
    | Some rs -> rs.rs_at
  in
  let clank =
    match (policy, resume) with
    | Clank _, Some { rs_clank = Some st; _ } ->
        if Bytes.length st.shadow <> Clank.shadow_bytes machine then
          invalid_arg "Executor.run: resume shadow map size mismatch";
        Some (Clank.copy st)
    | Clank cfg, _ -> Some (Clank.create cfg machine)
    | (Always_on | Nvp _), _ -> None
  in
  let clock = Supply.now_cycles supply in
  let l =
    {
      machine;
      supply;
      policy;
      clank;
      stores = build_store_table (Machine.program machine);
      halt_at_skim;
      on_event;
      capacitor_backed = not (Supply.never_cuts supply);
      clock;
      on = Supply.is_on supply;
      lease = 0;
      pending = 0;
      wall_offset = at.wall_cycles - clock;
      retired_offset = at.retired - Machine.instructions_retired machine;
      active = at.active_cycles;
      overhead = at.overhead_cycles;
      reexecuted = at.reexecuted_instructions;
      outages = at.outage_count;
      checkpoints = at.checkpoint_count;
      skimmed = at.skimmed;
      first_skim_active = at.first_skim_active;
      observing = false;
      rejoined = None;
    }
  in
  let reference = engine = Reference in
  (* One fusion rule: the block engine fuses exactly when no observer
     must see every instruction boundary; the reference engine never
     fuses. *)
  let fuse = (not reference) && Option.is_none on_step in
  let rec loop () =
    if Machine.halted machine || wall_elapsed l > max_wall_cycles then ()
    else if not l.on then begin
      (* Natural brown-outs and an observer's cut alike are taken here,
         before the next instruction's pre-step. *)
      handle_outage l;
      loop ()
    end
    else begin
      (match l.clank with Some st -> pre_step l st | None -> ());
      let fused =
        fuse
        && (match Machine.block_at machine (Machine.pc machine) with
           | Some b -> try_block l ~max_wall_cycles b
           | None -> false)
      in
      if not fused then begin
        if reference then Machine.step_reference machine
        else Machine.step_fast machine;
        post_step l
      end;
      match on_step with
      | None -> loop ()
      | Some f ->
          before_observer l;
          l.observing <- true;
          f l;
          l.observing <- false;
          l.on <- Supply.is_on supply;
          if Option.is_none l.rejoined then loop ()
    end
  in
  loop ();
  settle l;
  (* A rejoined run leaves the machine at the matched state, not at
     halt. *)
  match l.rejoined with Some o -> o | None -> outcome_of l
