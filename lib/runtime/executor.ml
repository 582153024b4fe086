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

(* Clank epoch state: the last checkpoint plus the read-first/write
   sets used to detect idempotency (write-after-read) violations at
   word granularity.  The sets live in one packed [shadow] map over data
   memory — 2 bits per word, four words per byte (bit 0: read first this
   epoch, bit 1: fully written this epoch) — so membership tests and
   inserts are byte indexing instead of hashing, a resume state stores
   the map as it is, and capture and resume are one [Bytes.copy] each.
   Clearing the sets at a checkpoint or restore is one [Bytes.fill] of
   at most (data words / 4) bytes: 4,388 on the largest suite build.
   [tracked] counts set bits across both planes (a word in both planes
   counts twice), mirroring the hardware's two tracking buffers filling
   independently.

   The written plane only holds words *fully* overwritten this epoch: a
   partial (byte/halfword) store must not suppress read tracking of its
   sibling bytes, or a later write to them would escape WAR detection
   and re-execution would read the new value. *)
type clank_state = {
  mutable checkpoint : Machine.register_file;
  shadow : Bytes.t;
  mutable tracked : int;
  mutable since_ckpt_cycles : int;
  mutable since_ckpt_retired : int;
}

let read_bit = 1
let write_bit = 2

let shadow_bits st w =
  (Char.code (Bytes.unsafe_get st.shadow (w lsr 2)) lsr ((w land 3) lsl 1))
  land 3

let shadow_set st w bit =
  let i = w lsr 2 in
  Bytes.unsafe_set st.shadow i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get st.shadow i) lor (bit lsl ((w land 3) lsl 1))))

let shadow_clear st =
  Bytes.fill st.shadow 0 (Bytes.length st.shadow) '\000';
  st.tracked <- 0

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

(* Mid-run resume state: the loop counters plus the Clank policy state,
   captured at a clean instruction boundary of an uninterrupted run.
   Everything inside is immutable once captured (the shadow map is
   copied at capture and again at resume; the checkpoint register file
   is replaced wholesale on checkpoint, never mutated), so one
   [resume_state] can seed any number of [run] calls from any number of
   domains. *)
type clank_resume = {
  rc_checkpoint : Machine.register_file;
  rc_shadow : Bytes.t;
  rc_tracked : int;
  rc_since_cycles : int;
  rc_since_retired : int;
}

type resume_state = {
  rs_policy : policy;  (* the policy the state was captured under *)
  rs_clank : clank_resume option;  (* [Some] exactly under [Clank] *)
  rs_active : int;
  rs_overhead : int;
  rs_reexecuted : int;
  rs_outages : int;
  rs_checkpoints : int;
  rs_skimmed : bool;
  rs_first_skim_active : int option;
  rs_wall : int;  (* wall cycles elapsed from task start to capture *)
  rs_retired : int;  (* instructions retired from task start to capture *)
}

(* Fast-forward: the caller has detected that the machine's
   architectural state bit-matches a recorded boundary of a reference
   run whose completion is already known, so the rest of this run is
   fully determined.  [ff_at] holds the reference counters at the
   matched boundary, [ff_final] the reference outcome at halt; the
   outcome of this run is its live counters plus the reference
   deltas. *)
type fast_forward = { ff_at : resume_state; ff_final : outcome }

(* The run in progress: the loop counters, the bound policy state and
   what the step functions below read from the caller. *)
type live = {
  machine : Machine.t;
  supply : Supply.t;
  policy : policy;
  clank : (clank_config * clank_state) option;
  stores : store_table;
  halt_at_skim : bool;
  emit : event -> unit;
  (* Consume coalescing: when the supply can never cut power on its own
     (an always-on supply), per-instruction
     [Supply.consume] calls are pure clock-and-drain arithmetic — so
     they are batched into [pending] and flushed only at an outage or at
     run end.  Energy accounting is in integer cycles on the supply side,
     so the flush is bit-identical to the per-instruction sequence. *)
  coalesce : bool;
  mutable pending : int;
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
  mutable rejoined : fast_forward option;
}

let wall_elapsed l = Supply.now_cycles l.supply + l.pending + l.wall_offset

let task_retired l = Machine.instructions_retired l.machine + l.retired_offset

let flush_pending l =
  if l.pending > 0 then begin
    ignore (Supply.consume l.supply ~cycles:l.pending);
    l.pending <- 0
  end

let spend l cycles =
  if l.coalesce then l.pending <- l.pending + cycles
  else ignore (Supply.consume l.supply ~cycles)

let spend_overhead l cycles =
  l.overhead <- l.overhead + cycles;
  spend l cycles

let do_checkpoint l cfg st =
  spend_overhead l cfg.checkpoint_cycles;
  st.checkpoint <- Machine.capture_registers l.machine;
  shadow_clear st;
  st.since_ckpt_cycles <- 0;
  st.since_ckpt_retired <- 0;
  l.checkpoints <- l.checkpoints + 1;
  (* A checkpoint fires inside an instruction's step, so an outage cut
     here would only be taken after that instruction retired on the cut
     supply: refuse the cut rather than land it one instruction late.
     A brown-out during the checkpoint's own overhead has already
     turned the supply off and is not a cut. *)
  let on = Supply.is_on l.supply in
  l.emit Checkpoint;
  if on && not (Supply.is_on l.supply) then
    invalid_arg "Executor.run: on_event cut the supply on a Checkpoint"

(* Insert into one tracking plane, checkpointing first on overflow
   (capacity is checked before the insert, as the hardware tests the
   buffer before latching a new entry). *)
let track l cfg st w bit =
  if shadow_bits st w land bit = 0 then begin
    if st.tracked >= cfg.buffer_entries then do_checkpoint l cfg st;
    shadow_set st w bit;
    st.tracked <- st.tracked + 1
  end

(* Skip only reads dominated by a *full-word* write, which
   re-execution is guaranteed to reproduce. *)
let track_read l cfg st addr =
  let w = word_of_addr addr in
  if shadow_bits st w land write_bit = 0 then track l cfg st w read_bit

(* Watchdog and WAR-violation pre-check: a store about to write a word
   read first in this epoch forces a checkpoint *before* the violating
   write commits.  The store's target address comes from the per-PC
   table and live registers. *)
let pre_step l cfg st =
  if st.since_ckpt_cycles >= cfg.watchdog_period then do_checkpoint l cfg st
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
             && shadow_bits st w land read_bit <> 0
          then do_checkpoint l cfg st
      | 2 ->
          let w =
            word_of_addr
              (Machine.reg m stores.st_base.(pc) + Machine.reg m stores.st_idx.(pc))
          in
          if w >= 0 && w lsr 2 < Bytes.length st.shadow
             && shadow_bits st w land read_bit <> 0
          then do_checkpoint l cfg st
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
  (* On a coalescing supply the only way here is an observer's cut,
     which only latched the supply off: flushing now leaves the clock,
     the drain and the outage count exactly as flushing before the cut
     would have. *)
  flush_pending l;
  l.emit Outage;
  l.outages <- l.outages + 1;
  ignore (Supply.wait_for_power l.supply);
  let m = l.machine in
  let skim =
    match l.clank with
    | None ->
        spend_overhead l
          (match l.policy with Nvp c -> c.nvp_restore_cycles | _ -> 0);
        (* NVP keeps all state; just honour a pending skim point. *)
        handle_skim_jump l
    | Some (cfg, st) ->
        spend_overhead l cfg.clank_restore_cycles;
        let skim = handle_skim_jump l in
        if skim then begin
          (* The skim target's code depends only on NVM state, so a
             scrubbed register file is safe; start a fresh epoch
             there. *)
          let pc = Machine.pc m in
          Machine.scrub_volatile m;
          Machine.set_pc m pc;
          st.checkpoint <- Machine.capture_registers m
        end
        else begin
          (* Roll back: everything since the checkpoint re-executes. *)
          l.reexecuted <- l.reexecuted + st.since_ckpt_retired;
          Machine.restore_registers m st.checkpoint
        end;
        shadow_clear st;
        st.since_ckpt_cycles <- 0;
        st.since_ckpt_retired <- 0;
        skim
  in
  (* Restore complete: the machine is in exactly the state execution
     resumes from (skim jump taken, rollback applied). *)
  l.emit (if skim then Skim_restore else Restore)

(* Everything after one instruction executes, read from the machine's
   effect scratch: both steppers leave it identically. *)
let post_step l =
  let m = l.machine in
  let cycles = Machine.last_cycles m in
  l.active <- l.active + cycles;
  spend l cycles;
  (match l.clank with
  | Some (cfg, st) ->
      st.since_ckpt_cycles <- st.since_ckpt_cycles + cycles;
      st.since_ckpt_retired <- st.since_ckpt_retired + 1;
      let read_addr = Machine.last_read_addr m in
      if read_addr >= 0 then track_read l cfg st read_addr;
      let wrote_addr = Machine.last_wrote_addr m in
      if wrote_addr >= 0 && Machine.last_wrote_bytes m = 4 then
        track l cfg st (word_of_addr wrote_addr) write_bit
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
     | Some (cfg, st) ->
         (* No interior pre-step can trip the watchdog, and the read set
            cannot overflow the buffer mid-run (runs are store-free, so
            WAR pre-checks are vacuous). *)
         st.since_ckpt_cycles + Machine.block_pre_cycles b < cfg.watchdog_period
         && st.tracked + Machine.block_loads b <= cfg.buffer_entries
     | None -> true)
  && (l.coalesce || Supply.assured l.supply ~cycles:c)
  && begin
       Machine.exec_block m b;
       l.active <- l.active + c;
       if l.coalesce then l.pending <- l.pending + c
       else begin
         (* Capacitor-backed: the exact per-instruction consume sequence,
            so harvest/drain interleaving (and its float rounding) is
            bit-identical to per-step execution.  The guard ruled out an
            interior brown-out. *)
         let costs = Machine.block_costs b in
         for i = 0 to Array.length costs - 1 do
           ignore (Supply.consume l.supply ~cycles:(Array.unsafe_get costs i))
         done
       end;
       (match l.clank with
       | Some (cfg, st) ->
           st.since_ckpt_cycles <- st.since_ckpt_cycles + c;
           st.since_ckpt_retired <- st.since_ckpt_retired + n;
           (* Replay read tracking from the recorded load addresses, in
              order — no store ran in between, so the shadow-map
              transitions equal the per-step ones, and the entry guard
              ruled out an overflow checkpoint. *)
           for i = 0 to Machine.block_loads b - 1 do
             track_read l cfg st (Machine.block_read_addr m b i)
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
    rs_clank =
      Option.map
        (fun (_cfg, st) ->
          {
            rc_checkpoint = st.checkpoint;
            rc_shadow = Bytes.copy st.shadow;
            rc_tracked = st.tracked;
            rc_since_cycles = st.since_ckpt_cycles;
            rc_since_retired = st.since_ckpt_retired;
          })
        l.clank;
    rs_active = l.active;
    rs_overhead = l.overhead;
    rs_reexecuted = l.reexecuted;
    rs_outages = l.outages;
    rs_checkpoints = l.checkpoints;
    rs_skimmed = l.skimmed;
    rs_first_skim_active = l.first_skim_active;
    rs_wall = wall_elapsed l;
    rs_retired = task_retired l;
  }

let rejoin l ff =
  observed "rejoin" l;
  l.rejoined <- Some ff

let no_event (_ : event) = ()

let run ?(policy = Always_on) ?(engine = Block)
    ?(max_wall_cycles = 20_000_000_000) ?(halt_at_skim = false) ?resume
    ?on_step ?(on_event = no_event) ~machine ~supply () =
  (match resume with
  | Some rs when rs.rs_policy <> policy ->
      invalid_arg "Executor.run: resume state captured under another policy"
  | _ -> ());
  let clank =
    match policy with
    | Clank cfg ->
        (* Four words of data memory per shadow byte. *)
        let shadow_bytes =
          (((Wn_mem.Memory.size (Machine.mem machine) + 3) / 4) + 3) / 4
        in
        let st =
          match resume with
          | Some { rs_clank = Some rc; _ } ->
              if Bytes.length rc.rc_shadow <> shadow_bytes then
                invalid_arg "Executor.run: resume shadow map size mismatch";
              {
                checkpoint = rc.rc_checkpoint;
                shadow = Bytes.copy rc.rc_shadow;
                tracked = rc.rc_tracked;
                since_ckpt_cycles = rc.rc_since_cycles;
                since_ckpt_retired = rc.rc_since_retired;
              }
          | _ ->
              {
                checkpoint = Machine.capture_registers machine;
                shadow = Bytes.make shadow_bytes '\000';
                tracked = 0;
                since_ckpt_cycles = 0;
                since_ckpt_retired = 0;
              }
        in
        Some (cfg, st)
    | Always_on | Nvp _ -> None
  in
  let field f zero = match resume with Some rs -> f rs | None -> zero in
  let l =
    {
      machine;
      supply;
      policy;
      clank;
      stores = build_store_table (Machine.program machine);
      halt_at_skim;
      emit = on_event;
      coalesce = Supply.never_cuts supply;
      pending = 0;
      wall_offset = field (fun r -> r.rs_wall) 0 - Supply.now_cycles supply;
      retired_offset =
        field (fun r -> r.rs_retired) 0 - Machine.instructions_retired machine;
      active = field (fun r -> r.rs_active) 0;
      overhead = field (fun r -> r.rs_overhead) 0;
      reexecuted = field (fun r -> r.rs_reexecuted) 0;
      outages = field (fun r -> r.rs_outages) 0;
      checkpoints = field (fun r -> r.rs_checkpoints) 0;
      skimmed = field (fun r -> r.rs_skimmed) false;
      first_skim_active = field (fun r -> r.rs_first_skim_active) None;
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
    else if not (Supply.is_on supply) then begin
      (* Natural brown-outs and an observer's cut alike are taken here,
         before the next instruction's pre-step. *)
      handle_outage l;
      loop ()
    end
    else begin
      (match l.clank with Some (cfg, st) -> pre_step l cfg st | None -> ());
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
          l.observing <- true;
          f l;
          l.observing <- false;
          if Option.is_none l.rejoined then loop ()
    end
  in
  loop ();
  flush_pending l;
  match l.rejoined with
  | None ->
      {
        completed = Machine.halted machine;
        skimmed = l.skimmed;
        first_skim_active = l.first_skim_active;
        wall_cycles = wall_elapsed l;
        active_cycles = l.active;
        overhead_cycles = l.overhead;
        reexecuted_instructions = l.reexecuted;
        outage_count = l.outages;
        checkpoint_count = l.checkpoints;
        retired = task_retired l;
      }
  | Some ff ->
      (* The machine is left at the matched state, not at halt. *)
      let at = ff.ff_at and fin = ff.ff_final in
      {
        completed = fin.completed;
        skimmed = l.skimmed || (fin.skimmed && not at.rs_skimmed);
        first_skim_active =
          (match (l.first_skim_active, fin.first_skim_active, at.rs_first_skim_active) with
          | (Some _ as s), _, _ -> s
          | None, Some a, None -> Some (l.active + (a - at.rs_active))
          | None, _, _ -> None);
        wall_cycles = wall_elapsed l + (fin.wall_cycles - at.rs_wall);
        active_cycles = l.active + (fin.active_cycles - at.rs_active);
        overhead_cycles = l.overhead + (fin.overhead_cycles - at.rs_overhead);
        reexecuted_instructions =
          l.reexecuted + (fin.reexecuted_instructions - at.rs_reexecuted);
        outage_count = l.outages + (fin.outage_count - at.rs_outages);
        checkpoint_count =
          l.checkpoints + (fin.checkpoint_count - at.rs_checkpoints);
        retired = task_retired l + (fin.retired - at.rs_retired);
      }
