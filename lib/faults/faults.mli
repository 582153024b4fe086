(** Deterministic outage-point fault injection with a crash-consistency
    oracle.

    The trace-driven supplies exercise outages only where the energy
    model happens to put them — a vanishingly small slice of the
    outage-point space.  This engine instead forces an outage at a
    *chosen instruction boundary* (boundary [k] = between the [k]'th and
    [k+1]'th retired instruction of the continuous run): an [on_step]
    observer cuts the run's {!Wn_power.Supply.always_on} supply the
    moment the [k]'th instruction retires, and the executor takes the
    outage before the next one.  It then audits the restore against
    three oracle properties:

    - (a) {b no torn state}: at the instant of restore, non-volatile
      memory is bit-identical to the image the continuous run had at
      that same boundary (FRAM writes are instruction-atomic; nothing
      the runtime does across an outage may touch memory);
    - (b) {b convergence}: if no skim point fires, re-execution reaches
      the continuous run's final memory image bit-exactly;
    - (c) {b anytime commit}: if a skim point fires, the early-committed
      memory image equals an independent reference that replays the
      paper's skim semantics (jump to the latched target at that
      boundary — registers scrubbed first on a volatile Clank core —
      and run to halt).

    All runs are deterministic: a scenario is a thunk producing a fresh,
    identically-loaded machine, so any number of injected runs can be
    farmed out to domains and re-merged in boundary order.

    {b Keyframes.}  Replaying the continuous prefix from instruction 0
    for every injected point makes an exhaustive sweep O(n²) in program
    length.  A {!survey} pass can instead record {!keyframes} — whole
    simulation snapshots ({!Wn_machine.Machine.snapshot} paired with the
    executor's {!Wn_runtime.Executor.resume_state}) every [interval]
    retired instructions — and {!run_point} / {!skim_reference} then
    restore the nearest keyframe and step forward at most [interval]
    instructions, making the sweep O(n·K) with bit-identical results.
    A keyframe store is immutable after the survey and safe to share
    read-only across pool domains: every restore deep-copies into the
    consuming machine.  A keyframed point pays for what it changes,
    not for what memory holds: the restore copies only the pages that
    differ from the machine's last frame, a Clank resume copies the
    packed tracking planes (2 bits per data word) as they are, and a
    rejoin-probe memory compare skips every page the candidate frame
    shares with the restored one that the run has not written since. *)

type scenario = {
  fresh : unit -> Wn_machine.Machine.t;
      (** Build a fresh machine positioned at task entry with inputs
          loaded.  Must be pure (same machine state every call) and
          thread-safe: injected runs call it from pool domains. *)
  policy : Wn_runtime.Executor.policy;
}

(** Continuous-run profile: everything the planner and oracle need. *)
type profile = {
  retired : int;  (** instructions retired by the continuous run *)
  final_digest : Digest.t;  (** memory image at halt *)
  first_skim : int option;
      (** boundary after which a skim target is latched, if any *)
  store_boundaries : int array;  (** boundaries following a store *)
  skm_boundaries : int array;  (** boundaries following an [Skm] *)
  checkpoint_boundaries : int array;
      (** retired counts at which the policy checkpointed (Clank) *)
}

(** One whole-simulation keyframe: the machine snapshot and the
    executor resume state captured at the same clean boundary of the
    uninterrupted run. *)
type keyframe = {
  kf_retired : int;
  kf_machine : Wn_machine.Machine.snapshot;
  kf_exec : Wn_runtime.Executor.resume_state;
}

type rejoin_index
(** The frames grouped by PC, latest first, each with its value of one
    key register per PC: the register whose values differ most among
    that PC's frames. *)

type keyframes = {
  interval : int;
  frames : keyframe array;
  kf_final : Wn_runtime.Executor.outcome;
      (** the continuous run's outcome at halt — the rejoin target *)
  kf_final_digest : Digest.t;  (** the continuous run's final memory image *)
  rejoin : rejoin_index;  (** built once by {!survey} from [frames] *)
}
(** [frames] ascend in [kf_retired]; frame [i] sits at boundary
    [(i + 1) * interval] (boundaries past halt are never captured). *)

val auto_keyframe_interval : boundaries:int -> int
(** Derived keyframe interval for a run with [boundaries] injectable
    boundaries: [2·sqrt(boundaries)] clamped to [32, 4096].  Delta
    frames make dense keyframes cheap (O(dirty pages) each), so the
    interval only has to balance replay-window length against
    rejoin-probe candidate density. *)

type survey_result = {
  sv_profile : profile;
  sv_digests : Digest.t array;
      (** continuous-run memory digests, aligned with the requested
          [boundaries] *)
  sv_keyframes : keyframes option;
}

val survey :
  ?boundaries:int array ->
  ?keyframe_interval:int ->
  ?full_frames:bool ->
  scenario ->
  survey_result
(** ONE streaming pass over the uninterrupted run under the scenario's
    policy, gathering the {!profile} (store/SKM boundaries, checkpoint
    placement, final digest), the prefix digests at the
    strictly-ascending [boundaries] (all within [1, retired]) and — when
    [keyframe_interval] is given — a keyframe store.  Replaces the
    separate effect, checkpoint-observation and digest passes.

    Keyframes are delta snapshots by default: each frame structurally
    shares the memory pages unwritten since the previous frame, making
    the store O(pages dirtied) per frame.  [full_frames] forces
    isolated full-copy frames (every page copied) — observably
    identical, only bigger and slower to capture.

    Raises [Failure] if the program does not halt within one billion
    instructions, [Invalid_argument] on malformed
    [boundaries], a boundary past halt, or [keyframe_interval < 1]. *)

val profile : scenario -> profile
(** [profile s = (survey s).sv_profile] — one pass. *)

(** Machine state captured by the oracle at the instant restore
    completes (the executor's first [Restore] or [Skim_restore]
    event). *)
type restore_state = {
  at_retired : int;  (** total retired instructions when the outage struck *)
  r_pc : int;
  r_regs : int array;
  r_flags : Wn_isa.Cond.flags;
  r_mem_digest : Digest.t;
}

type point_result = {
  boundary : int;
  outcome : Wn_runtime.Executor.outcome;
  restore : restore_state option;  (** [None] if no outage fired *)
  final_digest : Digest.t;
}

val run_point :
  ?engine:Wn_runtime.Executor.engine ->
  ?off_cycles:int ->
  ?keyframes:keyframes ->
  ?machine:Wn_machine.Machine.t ->
  scenario ->
  boundary:int ->
  point_result
(** Run the task with exactly one forced outage at [boundary] (which
    must be within [1, retired - 1] for the outage to strike before
    halt; at [retired] the cut lands on the halted task and no outage
    is taken) under [engine] (default [Block]).  [off_cycles] is the
    powered-off period served before restore (default
    {!Wn_power.Supply.default_off_cycles}).  The run always carries the
    outage observer, so it never fuses.

    With [keyframes] the point costs O(interval + recovery) instead of
    O(retired): the continuous prefix resumes from the nearest keyframe
    strictly before [boundary], and after the outage the run rejoins the
    continuous run the moment its architectural state bit-matches a
    keyframe's ({!Wn_machine.Machine.matches_state}) and its Clank
    policy state equals the keyframe's ({!Wn_runtime.Executor.rejoin}):
    at that instant the remainder is fully determined, so the executor
    takes the tail from the survey's recorded final outcome and digest.
    The result is bit-identical to the from-scratch run's, every
    outcome field included.

    Cost of a keyframed point: a fixed set-up (the frame restore and the
    executor's resume), then the replayed prefix, then per post-outage
    step a probe over the keyframes recorded at the current PC, in the
    store's [rejoin] index.  It compares one key register per candidate
    and calls {!Wn_machine.Machine.matches_state} only on a key match,
    without allocating: over the 40,979 points of an exhaustive MatAdd
    sweep that is 71.6 M key compares (about 2.5 per post-outage step)
    and 83,896 state compares.  A state compare reaches memory only when
    the registers and flags already match, and the Clank state is
    compared only when the machine state matches: no candidate is
    refused in that sweep.

    [machine] is an optional scratch machine (from this scenario's
    [fresh]) whose entire state the call may clobber.  It is used only
    when a keyframe is restored into it — the restore overwrites every
    mutable field, and restoring along one keyframe chain into one
    long-lived machine touches only the pages that differ, so a caller
    sweeping many boundaries (one scratch machine per domain) skips the
    per-point machine construction and full-image copy.  Results are
    bit-identical with or without it. *)

type skim_cache
(** Cross-boundary memo for skim-commit tails.  The tail a reference
    run executes after the skim jump is a pure function of the machine
    state at the jump: memory image and latched target (Clank scrubs
    the register file first), plus registers and flags under NVP /
    always-on.  Consecutive boundaries share that state until a store
    or a fresh [Skm] changes it, so one cached tail serves whole runs
    of boundaries.  Mutex-protected and safe to share across pool
    domains; cached results equal what re-execution would produce (by
    machine determinism), so reports are byte-identical with or
    without a cache, at any pool width. *)

val skim_cache : unit -> skim_cache

val skim_reference :
  ?keyframes:keyframes ->
  ?cache:skim_cache ->
  ?prefix_digest:Digest.t ->
  ?machine:Wn_machine.Machine.t ->
  scenario ->
  boundary:int ->
  Digest.t option
(** Independent model of the paper's skim semantics at [boundary]: step
    a fresh machine [boundary] raw instructions, read the latched skim
    target ([None] if there is none), jump there — scrubbing the
    register file first under Clank — and run to halt; returns the
    final memory digest.  [keyframes] shortcut the prefix walk exactly
    as in {!run_point}.  With [cache], the tail is looked up before
    being executed; [prefix_digest] (the continuous run's memory digest
    at [boundary], e.g. from {!survey}) saves the cache-key digest
    recomputation and must match the machine's memory at [boundary] if
    supplied.  [machine] is a clobberable scratch machine under the
    same contract as in {!run_point}.  Raises [Invalid_argument] if
    [boundary] lies past the program's halt (the machine would
    otherwise be stepped while halted). *)

val check :
  profile:profile ->
  prefix_digest:Digest.t ->
  skim_ref:Digest.t option ->
  point_result ->
  string list
(** Oracle verdict for one injected point: the empty list, or one
    human-readable message per violated property.  [prefix_digest] is
    the continuous-run digest at the point's boundary; [skim_ref] is
    {!skim_reference} at that boundary (only consulted when a skim
    commit is expected there). *)
