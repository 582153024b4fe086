(** Intermittent execution of one task under a power supply.

    Three system models, matching the paper's evaluation:

    - [Always_on] — continuously powered (the reference used to define
      baseline runtime and the runtime–quality curves of Figure 9);
    - [Nvp] — non-volatile processor with the backup-every-cycle policy:
      architectural state survives outages, execution resumes in place
      after a small wake-up latency (Section V-C);
    - [Clank] — checkpoint-based volatile processor: registers are lost
      on an outage and recovered from the last checkpoint in NVM.
      Checkpoints are triggered by idempotency (write-after-read)
      violations, by read/write-set buffer overflow, and by a periodic
      watchdog, as in Clank (Section IV).

    Skim points: on restore from an outage, if the task latched a skim
    target with [SKM], the executor jumps there instead of resuming,
    committing the approximate result as-is (Section III-C). *)

type nvp_config = { nvp_restore_cycles : int }

val default_nvp : nvp_config
(** {!Wn_power.Runtime_costs.nvp_wakeup_cycles} wake-up. *)

type clank_config = {
  watchdog_period : int;  (** cycles between forced checkpoints *)
  buffer_entries : int;  (** read/write-set capacity before overflow *)
  checkpoint_cycles : int;  (** cost of saving 16 regs + PC + flags to NVM *)
  clank_restore_cycles : int;
}

val default_clank : clank_config
(** The {!Wn_power.Runtime_costs} watchdog period, tracking capacity,
    checkpoint and restore costs. *)

type policy = Always_on | Nvp of nvp_config | Clank of clank_config

type engine = Block | Reference
(** Which stepper drives the loop.  [Block] (the default) executes
    fused straight-line superinstructions
    ({!Wn_machine.Machine.exec_block}) whenever one energy-gated entry
    guard passes — the wall-clock limit, watchdog slack and Clank
    tracking capacity cover the run, and the supply's energy lease
    ({!Wn_power.Supply.lease}), renewed once if need be, holds its
    cycles; a failed guard falls back to per-instruction
    {!Wn_machine.Machine.step_fast} until the next run entry.  Under
    either engine, the fused runs, steps and overheads a lease holds
    are charged together, in one {!Wn_power.Supply.consume} once the
    lease runs out, bit-identical to charging them one by one; a span
    a fresh lease cannot hold is charged on its own.  An
    [on_step] observer turns fusion off for the whole run, so it sees
    every instruction boundary.
    [Reference] never fuses and steps every instruction through the
    ISA spec {!Wn_machine.Machine.step_reference}: the independent
    cross-check.  Both are observably identical (the differential suite
    asserts it). *)

val engine_of_string : string -> engine option
(** ["block"] or ["reference"]. *)

type outcome = {
  completed : bool;  (** reached [Halt] (possibly via a skim jump) *)
  skimmed : bool;  (** finished through a skim-point jump *)
  first_skim_active : int option;
      (** active cycles when the first skim point was latched — the
          paper's "earliest available output" instant *)
  wall_cycles : int;  (** total wall-clock cycles for this task, off-time included *)
  active_cycles : int;  (** cycles spent executing instructions *)
  overhead_cycles : int;  (** checkpoint + restore cycles *)
  reexecuted_instructions : int;  (** work redone after rollbacks (Clank) *)
  outage_count : int;
  checkpoint_count : int;
  retired : int;
}

type event =
  | Checkpoint  (** a Clank checkpoint committed, its cost spent *)
  | Outage  (** power died; the restore follows once power is back *)
  | Restore
      (** the restore completed by rolling back (Clank) or resuming in
          place (NVP, always-on); the machine is in exactly the state
          execution resumes from *)
  | Skim_restore
      (** the restore completed by taking the latched skim jump; the
          machine is in exactly the state execution resumes from *)
(** Runtime events, reported in order to [on_event].  The constructors
    are constant, so reporting allocates nothing. *)

type resume_state
(** Executor-visible state at a clean instruction boundary of an
    uninterrupted run: the policy, under [Clank] its policy state — the
    last register-file checkpoint, the packed read-first/written shadow
    map, the tracked-entry count and the cycles and instructions since
    the checkpoint — and the outcome the run would report had it ended
    at that boundary.  Taken with {!capture}; immutable once captured,
    so one value can seed any number of resumed runs from any number of
    domains (each [run ~resume] deep-copies the mutable parts).  Pair it
    with the {!Wn_machine.Machine.snapshot} taken at the same boundary
    to resume execution as if the run had never stopped: the resumed
    run's [outcome] is bit-identical to the from-scratch run's. *)

type live
(** The run in progress, handed to [on_step]. *)

val capture : live -> resume_state
(** The run's resume state at this boundary.  Raises [Invalid_argument]
    outside [on_step] or unless the boundary is clean: machine not
    halted and power up — a supply the observer has just cut leaves no
    clean boundary until the outage is taken. *)

val rejoin : live -> at:resume_state -> final:outcome -> bool
(** Try to end the run after this step as the rest of a reference run:
    [at] is that run's {!capture} at a boundary whose machine state the
    caller has found to bit-match this one
    ({!Wn_machine.Machine.matches_state}), and [final] its outcome at
    halt.  Refuses, returning [false], unless the policy and its Clank
    state equal [at]'s as well.  Then, with no cut due from here on, the
    rest of this run is the rest of that one, and its outcome is the
    live outcome plus the reference run's progress from [at] to
    [final], exact in every field.  The machine is left at the matched
    state, not at halt.  Raises [Invalid_argument] outside
    [on_step]. *)

val run :
  ?policy:policy ->
  ?engine:engine ->
  ?max_wall_cycles:int ->
  ?halt_at_skim:bool ->
  ?resume:resume_state ->
  ?on_step:(live -> unit) ->
  ?on_event:(event -> unit) ->
  machine:Wn_machine.Machine.t ->
  supply:Wn_power.Supply.t ->
  unit ->
  outcome
(** Execute the current task until [Halt] or until [max_wall_cycles]
    (default 20 billion — a watchdog against starved supplies) elapses
    on the wall clock.  The machine should be positioned at the task
    entry ([Machine.reset_for_new_task]).  Default policy is
    [Always_on].

    [halt_at_skim] models a power outage the instant the first skim
    point is latched: the skim jump is taken immediately, committing the
    earliest available output — the configuration of the paper's
    memoization, small-subword and sampling studies ("when the earliest
    available output is taken").  No power is lost, so the jump reports
    no event.

    Observers (either engine): [on_step] runs after every retired
    instruction's accounting, with the machine's [last_*] scratch
    accessors valid, and turns block fusion off; it may {!capture} the
    run or {!rejoin} a reference run.  It may also cut the run's supply
    ([cut] in {!Wn_power.Supply}): the outage is then taken before the
    next instruction, ahead of any Clank checkpoint that instruction
    would trigger, so a cut at retired instruction [k] strikes exactly
    at boundary [k] (or not at all, if instruction [k] halted the
    task).
    [on_event] reports each runtime {!event} the moment it happens.  It
    may cut the supply on a [Restore] or [Skim_restore] event: the
    outage is then taken before the next instruction, so power fails
    again straight after the restore (back-to-back outages).  A cut on
    a [Checkpoint] event raises [Invalid_argument]: the checkpoint
    fires inside an instruction's step, so the outage would only be
    taken after that instruction retired on the cut supply.  Otherwise
    it never changes how the run steps.
    On a capacitor-backed supply every cycle spent so far has been
    charged when an observer runs, so a cut empties the capacitor after
    them.  On an {!Wn_power.Supply.always_on} supply, where a cut only
    latches the off state, leased cycles are charged at the next outage
    or at the run's end, and an observer may read a clock and a drain
    count that lag behind the run's.

    Resume: [resume] seeds the run with a previously captured
    [resume_state]; the caller must first restore the matching
    {!Wn_machine.Machine.snapshot} into [machine].  The policy must
    equal the one the state was captured under, or [Invalid_argument]
    is raised.  A resumed run's [outcome] reports totals from task
    start and is bit-identical to running from scratch; its events are
    exactly those from the resume point on. *)
