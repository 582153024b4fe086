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
    guard passes — step budget covers the run length, watchdog slack
    and Clank tracking capacity cover the run, the capacitor's usable
    charge covers the run's worst-case energy, and no snapshot/keyframe
    boundary lands inside it — with one batched supply consume and one
    commit; any failed guard (or a hook that must observe every
    instruction boundary: [on_step], [on_region], [fast_forward]) falls
    back to per-instruction {!Wn_machine.Machine.step_fast} until the
    next run entry, so fault injection at any instruction boundary
    still works.  [Reference] never fuses and steps every instruction
    through the ISA spec {!Wn_machine.Machine.step_reference}: the
    independent cross-check.  Both are observably identical (the
    differential suite asserts it). *)

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

type snapshot_hook = active_cycles:int -> wall_cycles:int -> unit
(** Invoked every [snapshot_every] *active* cycles (approximately — at
    the first instruction boundary past each multiple) and once at task
    end; used to sample output quality over time. *)

type resume_state
(** Executor-visible state at a clean instruction boundary of an
    uninterrupted run: the loop's accumulated counters (active,
    overhead and wall cycles, retired instructions, outage / checkpoint
    counts, skim bookkeeping) plus, under [Clank], the policy state —
    the last register-file checkpoint, the read-first/written shadow
    map and the epoch counters.  Captured via [on_keyframe]; immutable
    once captured, so one value can seed any number of resumed runs
    from any number of domains (each [run ~resume] deep-copies the
    mutable parts).  Pair it with the {!Wn_machine.Machine.snapshot}
    taken at the same boundary to resume execution as if the run had
    never stopped: the resumed run's [outcome] is bit-identical to the
    from-scratch run's. *)

type fast_forward = { ff_at : resume_state; ff_final : outcome }
(** A rejoin certificate: the caller has observed that the machine's
    architectural state bit-matches a boundary of a reference run whose
    completion is already recorded.  Since the architectural state alone
    determines all future execution on a scripted supply, the rest of
    this run is the rest of that one.  [ff_at] is the reference run's
    [resume_state] at the matched boundary; [ff_final] its outcome at
    halt. *)

val run :
  ?policy:policy ->
  ?engine:engine ->
  ?max_wall_cycles:int ->
  ?snapshot_every:int ->
  ?snapshot:snapshot_hook ->
  ?halt_at_skim:bool ->
  ?on_checkpoint:(int -> unit) ->
  ?on_restore:(int -> unit) ->
  ?on_region:(cycles:int -> unit) ->
  ?on_step:(unit -> unit) ->
  ?resume:resume_state ->
  ?keyframe_every:int ->
  ?on_keyframe:(resume_state -> unit) ->
  ?fast_forward:(unit -> fast_forward option) ->
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
    available output is taken").

    Fault-injection hooks (either engine): [on_checkpoint n] fires after
    each Clank checkpoint completes, with [n] the machine's total
    retired-instruction count at that instant; [on_restore k] fires
    after the [k]'th outage's restore completes — skim jump taken or
    rollback applied — with the machine in exactly the state execution
    resumes from.  Additionally, if the machine's step budget
    ({!Wn_machine.Machine.set_step_budget}) reaches zero the executor
    clears it and forces an outage ({!Wn_power.Supply.cut}) at that
    exact instruction boundary.

    Region metering: [on_region ~cycles] fires at every
    power-fail-safe point with the number of cycles burned — execution
    plus runtime overhead (checkpoint, restore) — since the previous
    such point.  Safe points are: a Clank checkpoint committing (the
    window includes the checkpoint's own cycles), power dying (the
    next window opens with the restore), every retired instruction
    under NVP or always-on (their state commits continuously), and the
    run ending.  The maximum reported value is the dynamic quantity
    the static WCEC verifier's per-charge bound
    ({!Wn_analysis.Progress.max_region_cycles}) must dominate; the
    soundness oracle in the test suite checks exactly that.  Windows
    are metered for from-scratch runs only: combining [on_region] with
    [resume] or [fast_forward] raises [Invalid_argument].

    Observation and keyframes: [on_step] fires after every instruction's
    post-step accounting, with the machine's [last_*] scratch accessors
    valid — the streaming profiler in [wn.faults] records store/SKM
    boundaries and prefix digests through it.  With [keyframe_every = k]
    and [on_keyframe] set, a {!resume_state} is captured and handed to
    the hook at every [k]'th retired instruction (counted from task
    start) that is a clean boundary — machine not halted, power up, no
    forced outage pending.  [keyframe_every] must be >= 1.

    Resume: [resume] seeds the run with a previously captured
    [resume_state]; the caller must first restore the matching
    {!Wn_machine.Machine.snapshot} into [machine] (and may then set a
    fresh step budget).  The policy must match the one the state was
    captured under, or [Invalid_argument] is raised.  A resumed run's
    [outcome] reports totals from task start and is bit-identical to
    running from scratch.

    Fast-forward: [fast_forward] is probed after every instruction's
    post-step accounting (after [on_step]) until the run skim-commits —
    a commit leaves the trajectory the certificate describes, so the
    probe is dropped rather than paid on every commit-tail step;
    returning [Some ff] ends the run immediately with the outcome
    reconstructed as the live counters plus the reference deltas
    [ff_final - ff_at].  The probe must only
    certify a genuine bit-level architectural match
    ({!Wn_machine.Machine.matches_state}) against the run [ff] came
    from, on the same supply script — then the reconstruction is exact
    for [completed], [skimmed], [outage_count] and [retired], while the
    cycle-accounting fields ([wall], [active], [overhead],
    [reexecuted], [checkpoint_count]) are exact relative to the
    reference run's own policy phase (a Clank watchdog realigned by an
    earlier outage may differ from a literal continuation).  When it
    fires, the machine is left at the matched state, not at halt, and
    the [snapshot] hook does not replay over the skipped tail. *)
