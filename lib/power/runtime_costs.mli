(** Intermittency-runtime constants, in cycles.  The executor's default
    policies ({!Wn_runtime.Executor.default_clank},
    {!Wn_runtime.Executor.default_nvp}) and the static forward-progress
    verifier's runtime models ({!Wn_analysis.Progress}) both read them
    from here, so the two cannot drift apart. *)

val watchdog_period : int
(** 8000 cycles between forced Clank checkpoints: of the order of one
    power burst, as Clank tunes it. *)

val buffer_entries : int
(** 2048 words of Clank read/write-set capacity before an overflow
    checkpoint: Clank's Bloom filters cover thousands of addresses
    before saturating. *)

val checkpoint_cycles : int
(** 40 cycles to save 16 registers, PC and flags to NVM. *)

val restore_cycles : int
(** 40 cycles to restore them after an outage. *)

val nvp_wakeup_cycles : int
(** 8-cycle wake-up of a non-volatile processor. *)
