(** Cycle-accurate WN-32 core.

    Models the paper's target: a Cortex M0+-class 2-stage in-order core
    at a 32-bit datapath with no caches or branch prediction, an
    iterative multiplier (16 cycles full precision, [bits] cycles for a
    [MUL_ASP<bits>] stage), the subword-vector ALU of Figure 8, an
    optional multiply memoization table with zero-skipping, and the
    non-volatile SKM register that implements skim points.

    The machine executes one instruction per step and reports its
    latency plus the memory effects the intermittency runtimes need
    (Clank tracks read/write sets for idempotency violations) in
    scratch fields read through the [last_*] accessors.

    {!create} compiles the program once into a table of one closure per
    PC, the only compiled form: the closure holds just the instruction's
    effect on architectural state, while static latencies come from
    {!Wn_isa.Instr.cycles}.  {!step_fast} runs one closure and
    {!exec_block} runs a fused run's closures back to back;
    {!step_reference} is the independent ISA specification both are
    tested against.

    A memory access out of bounds raises [Invalid_argument] from
    {!Wn_mem.Memory}.  By then {!step_fast} has already advanced the PC
    past the faulting instruction, and {!exec_block} has applied part of
    the run without its batched bookkeeping, so the machine's state
    after such a raise is unspecified; every caller propagates the
    exception. *)

open Wn_isa

type config = {
  memo_entries : int option;  (** [Some n]: enable an n-entry memo table *)
  zero_skip : bool;  (** 1-cycle result when a multiply operand is zero *)
}

val default_config : config
(** No memoization, no zero skipping — the paper's baseline core. *)

type t

val create :
  ?config:config -> program:int Instr.t array -> mem:Wn_mem.Memory.t -> unit -> t
(** The program is immutable instruction memory (Harvard style; the
    data memory [mem] holds only data).  The PC starts at 0. *)

val program : t -> int Instr.t array
val mem : t -> Wn_mem.Memory.t

val pc : t -> int
val set_pc : t -> int -> unit

val reg : t -> Reg.t -> int
(** Register contents as an unsigned 32-bit pattern. *)

val set_reg : t -> Reg.t -> int -> unit

val flags : t -> Cond.flags

val halted : t -> bool

val skim_target : t -> int option
(** Contents of the non-volatile SKM register, set by the [Skm]
    instruction and surviving power outages. *)

val take_skim : t -> int option
(** Read and clear the SKM register (done once on restore). *)

val reset_for_new_task : t -> unit
(** Prepare the core for the next input sample: PC back to 0, halt
    latch and SKM register cleared, registers scrubbed.  Statistics and
    the memoization table persist across tasks. *)

(** {2 Allocation-free fast path}

    [step_fast] presets the fall-through PC and the instruction's static
    latency ([Instr.cycles ~taken:false]), then calls the PC's compiled
    closure, which overrides them only for a taken branch, a call or
    return, or a memo/zero-skip multiply shortcut.  It reports the
    instruction's effects in scratch fields on the machine.  Observable
    behaviour — register file, flags, memory, PC, SKM latch,
    statistics, memo-table contents and counters, and the scratch — is
    bit-identical to {!step_reference}; the per-instruction cost is two
    array loads, an indirect call and integer field writes, with no
    heap allocation.

    The scratch accessors below are valid until the next step.
    Addresses are [-1] when the instruction made no such access; byte
    counts keep the last access's value and are meaningful only when
    the address is non-negative. *)

val step_fast : t -> unit
(** Execute the instruction at the PC.  Raises [Failure] if the machine
    is already halted or the PC is outside the program. *)

val last_pc : t -> int
(** PC of the most recently executed instruction. *)

val last_cycles : t -> int
(** Latency actually paid, after memo/zero-skip shortcuts. *)

val worst_case_cycles : 'lbl Instr.t -> int
(** Static latency ceiling of one instruction: {!last_cycles} never
    exceeds it under either engine (memoization and zero-skipping only
    shorten multiplies, a taken/untaken branch never exceeds the taken
    cost).  This is the per-instruction cost the {!Wn_analysis} WCEC
    verifier sums, re-exported here to pin the two models together. *)

val last_read_addr : t -> int
val last_read_bytes : t -> int
val last_wrote_addr : t -> int
val last_wrote_bytes : t -> int

val last_was_skm : t -> bool
(** Whether the last instruction was [Skm] (latched a skim target). *)

(** {2 Block-compiled execution — fused superinstructions}

    The machine lazily partitions its program into maximal fusible runs
    ({!Wn_analysis.Fuse.plan}: straight-line, no store, no [Skm], no
    memoizable multiply, statically known latency).  A {!fused} run is
    a pc range of the compiled table: {!exec_block} calls the same
    closures {!step_fast} does, back to back, and applies the per-step
    bookkeeping — scratch, PC advance, retired/cycle statistics — once
    per run.  Executing a run is bit-identical to the same number of
    {!step_fast} calls, including the [last_*] scratch left at the
    boundary, and allocates nothing.

    Runs never contain a store or a skim latch, so a power failure at
    the run boundary tears nothing a mid-run failure wouldn't; the
    per-instruction effects an intermittency runtime must still observe
    are exposed statically ({!block_cycles}, {!block_loads}) or read
    back after the run ({!block_read_addr}: the effective address of
    each load). *)

type fused

val block_at : t -> int -> fused option
(** The fused run starting at exactly this pc, if any.  Builds the
    block table on first call (one CFG pass); later calls are an array
    read.  Runs start only at pcs the partition chose, so a mid-run pc
    (e.g. a checkpoint restore target) answers [None] — per-step
    execution then reaches the next run start naturally. *)

val block_len : fused -> int

val block_cycles : fused -> int
(** Total latency of the run — the sum of its instructions' latencies
    ([Instr.cycles ~taken:false]), which equals the sum of
    {!worst_case_cycles} over its pc range because fusible instructions
    have static latency.  This is the run's energy in cycles: the
    executor's entry guard prices it against the capacitor and charges
    it in one supply call. *)

val block_pre_cycles : fused -> int
(** [block_cycles] minus the last instruction's latency: the watchdog
    slack needed so no interior boundary can trip a Clank checkpoint. *)

val block_loads : fused -> int

val block_read_addr : t -> fused -> int -> int
(** [block_read_addr m b i]: effective address of the [i]'th load
    (0-based, program order) of run [b] at its latest execution.  Read
    it right after {!exec_block}[ m b]: any later step through one of
    the run's loads overwrites it. *)

val exec_block : t -> fused -> unit
(** Execute the whole run in one call.  The caller must ensure the
    machine is not halted and the PC is the run's first pc;
    {!step_block} and the executor's block engine do. *)

val step_block : t -> unit
(** {!exec_block} when a fused run starts at the PC, {!step_fast}
    otherwise.  Same failure conditions as {!step_fast}. *)

val step_reference : t -> unit
(** The direct interpreter over [int Instr.t], kept as the executable
    specification of the ISA.  Interchangeable with {!step_fast},
    [last_*] scratch included; the differential suite runs both in
    lockstep, and the executor's [Reference] engine steps every
    instruction through it.  Same failure conditions as {!step_fast};
    slower, not intended for production use. *)

(** {2 Whole-state snapshot — keyframe support}

    A {!snapshot} is an opaque, immutable capture of the machine's full
    mutable state: registers, flags, PC, halt latch, SKM register,
    retired/cycle statistics, the [last_*] effect scratch, data memory
    (with its access counters) and the memo table (contents and
    counters).  The program and the predecoded dispatch table are
    immutable and shared, so capture cost is two array copies plus the
    memory image.

    Memory is captured as a [Memory.image]: by default a *delta* that
    structurally shares pages unwritten since this machine's previous
    snapshot, making a dense keyframe train O(dirty pages) per frame in
    time and space; [~full:true] copies every page.  Both forms are
    complete — restore never consults other snapshots.

    [restore] writes a snapshot into a machine built from the same
    program and configuration — the same machine, or a fresh
    {!create}d one — in place, so the target's predecode table (and the
    memo table its closures capture) stays valid.  The invariant:
    restoring and re-stepping is bit-exact with the original run under
    both {!step_fast} and {!step_reference}.  Snapshots are never
    mutated after capture and can be shared read-only across domains;
    each [restore] deep-copies into the target. *)

type snapshot

val snapshot : ?full:bool -> t -> snapshot
(** [full] (default [false]) forces an isolated copy of every memory
    page instead of the page-sharing delta capture. *)

val restore : t -> snapshot -> unit
(** Raises [Invalid_argument] if the target machine's program length,
    zero-skip setting, memo configuration or memory size does not match
    the snapshot's origin. *)

val snapshot_retired : snapshot -> int
(** Retired-instruction count at capture (keyframe placement). *)

val snapshot_pc : snapshot -> int
(** Program counter at capture (rejoin-candidate indexing). *)

val snapshot_reg : snapshot -> Reg.t -> int
(** A register's value at capture (the rejoin index's key register). *)

val matches_state : t -> snapshot -> bool
(** True iff the machine's architectural state — PC, registers, flags,
    halt and skim latches, memo slot contents, full memory image —
    bit-matches the snapshot's.  Statistics counters (retired
    instructions, cycles, memory access counts, memo hit rates) and the
    last-effect scratch fields are ignored: they record the past, while
    the compared state alone determines all future execution.  A
    configuration mismatch (program length, zero-skip, memo presence or
    size) compares as unequal rather than raising. *)

(** {2 State capture — checkpointing and volatility} *)

type register_file

val capture_registers : t -> register_file
(** Registers, flags and PC — what a Clank checkpoint saves to NVM. *)

val restore_registers : t -> register_file -> unit

val scrub_volatile : t -> unit
(** Model a power loss on a volatile core: registers and flags are
    cleared, PC reset to 0.  The SKM register, data memory (FRAM) and
    halt latch survive. *)

(** {2 Statistics} *)

val instructions_retired : t -> int
val wn_instructions : t -> int
(** Dynamic count of WN-extension instructions (Table I's "Insn %"). *)

val cycles_executed : t -> int
(** Active cycles spent executing (excludes powered-off time). *)

val memo : t -> Memo.t option
