(** Addressing-mode CSE over the generated assembly.

    The code generator re-materialises array base addresses with
    [MOV]/[MOVT] pairs at every access.  Within a straight-line run
    this pass tracks, per register, the constant it is known to hold,
    and deletes re-materialisations that would write a value the
    register already contains (including [MOV rd, rs] copies of the
    same known constant and [MOVT]s that replace the high half with
    itself).

    Soundness is purely local: knowledge starts empty, is killed for a
    register by any other definition of it, and is killed entirely at
    every label (branch targets make the incoming state a join).  A
    conditional branch's fall-through keeps the state — no WN-32
    branch writes a general register ([BL]'s [lr] def is handled
    generically).  None of the deleted forms touch memory or flags, so
    checkpoint/restore replay and the WAR analysis are unaffected. *)

val run : Wn_isa.Asm.program -> Wn_isa.Asm.program
