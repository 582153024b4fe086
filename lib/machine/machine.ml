open Wn_util
open Wn_isa

type config = { memo_entries : int option; zero_skip : bool }

let default_config = { memo_entries = None; zero_skip = false }

(* The core keeps two representations of the program: the [int Instr.t]
   array (the architectural instruction memory, used for disassembly,
   static analysis and the reference interpreter) and the compiled table
   [code] built once at [create] — one closure per PC holding only the
   instruction's effect on architectural state, capturing only immutable
   operand data.  [step_fast] presets the fall-through pc and the static
   latency [cost.(pc)] and calls the closure, which overrides them only
   where the instruction decides otherwise; [exec_block] calls the
   closures of a fused run back to back.  Both report effects in the
   [last_*] scratch fields without allocating; [step_reference]
   interprets the [int Instr.t] array directly and leaves the same
   scratch.

   Flags are four mutable bools (not a [Cond.flags] record) so [Cmp]
   does not allocate; [flags] materialises the record on demand. *)
type t = {
  program : int Instr.t array;
  mem : Wn_mem.Memory.t;
  regs : int array;
  mutable pcv : int;
  mutable fn : bool;
  mutable fz : bool;
  mutable fc : bool;
  mutable fv : bool;
  mutable halt : bool;
  mutable skim : int option;
  memo_table : Memo.t option;
  zero_skip : bool;
  mutable retired : int;
  mutable wn_retired : int;
  mutable cycles : int;
  code : (t -> unit) array;
  cost : int array;  (* [Instr.cycles ~taken:false] per pc *)
  (* Effective address of the latest execution of the load at each pc
     (other slots unused): the loads of one fused run sit at distinct
     pcs, so the executor reads them back after the run commits to
     replay Clank read tracking. *)
  load_addr : int array;
  (* step_fast scratch: effects of the last instruction, encoded without
     allocation.  Addresses are -1 when the instruction made no access
     of that kind; the byte counts are only meaningful when the
     corresponding address is >= 0. *)
  mutable last_pc : int;
  mutable last_cycles : int;
  mutable last_read_addr : int;
  mutable last_read_bytes : int;
  mutable last_wrote_addr : int;
  mutable last_wrote_bytes : int;
  mutable last_skm : bool;
  (* Block-compiled execution: per-pc table of fused runs (entries only
     at run-start pcs), built lazily on first use because it needs a CFG
     pass over the program. *)
  mutable fused_table : fused option array;
  mutable blocks_built : bool;
}

(* One fused run: straight-line, store-free, [Skm]-free, statically
   timed (see [Wn_analysis.Fuse]). *)
and fused = {
  b_first : int;
  b_len : int;
  b_cycles : int;  (* total latency, exact *)
  b_pre_cycles : int;  (* cycles before the last instruction *)
  b_load_pcs : int array;  (* pcs of the run's loads, in order *)
  b_last_is_load : bool;
}

let u32 v = v land 0xFFFF_FFFF

let signed32 v = Subword.to_signed ~bits:32 v

(* Flag computation for compares: NZCV of rn - rm on the 32-bit
   datapath. *)
let set_compare_flags t a b =
  let sa = signed32 a and sb = signed32 b in
  let result = u32 (sa - sb) in
  let n = result land 0x8000_0000 <> 0 in
  t.fn <- n;
  t.fz <- result = 0;
  t.fc <- a >= b;
  (* signed overflow: operands of differing sign and the truncated
     result's sign differs from the minuend's *)
  t.fv <- (sa < 0) <> (sb < 0) && (sa < 0) <> n

(* Cond.holds over the unboxed flag fields (same truth table, no
   record to build). *)
let holds c t =
  match (c : Cond.t) with
  | Al -> true
  | Eq -> t.fz
  | Ne -> not t.fz
  | Lt -> t.fn <> t.fv
  | Ge -> t.fn = t.fv
  | Gt -> (not t.fz) && t.fn = t.fv
  | Le -> t.fz || t.fn <> t.fv
  | Lo -> not t.fc
  | Hs -> t.fc
  | Mi -> t.fn
  | Pl -> not t.fn

let alu_eval op a b =
  match (op : Instr.alu_op) with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Orr -> a lor b
  | Eor -> a lxor b
  | Bic -> a land lnot b
  | Adc -> a + b (* carry-in unused: the compiler never emits Adc/Sbc chains *)
  | Sbc -> a - b

(* Digit-by-digit (restoring) square root: decide result bits from the
   most significant down; each decision is final, so computing only the
   top [bits] of the 16-bit root is exact truncation of the full
   root. *)
let isqrt_top ~bits n =
  let r = ref 0 in
  for bitpos = 15 downto 16 - bits do
    let candidate = !r lor (1 lsl bitpos) in
    if candidate * candidate <= n then r := candidate
  done;
  !r

(* ---------------- predecode ---------------- *)

let reader (width : Instr.width) ~signed =
  let open Wn_mem in
  match (width, signed) with
  | Instr.Byte, false -> fun mem addr -> Memory.read8 mem addr
  | Instr.Byte, true -> fun mem addr -> u32 (Memory.read8_signed mem addr)
  | Instr.Half, false -> fun mem addr -> Memory.read16 mem addr
  | Instr.Half, true -> fun mem addr -> u32 (Memory.read16_signed mem addr)
  | Instr.Word, _ -> fun mem addr -> Memory.read32 mem addr

let writer (width : Instr.width) =
  let open Wn_mem in
  match width with
  | Instr.Byte -> Memory.write8
  | Instr.Half -> Memory.write16
  | Instr.Word -> Memory.write32

let access_bytes (width : Instr.width) =
  match width with Instr.Byte -> 1 | Instr.Half -> 2 | Instr.Word -> 4

(* Register accesses skip the bounds check: [Reg.t] is a private int
   that [Reg.r] validates to [0 <= i < Reg.count], and the register file
   is always [Reg.count] long.  Top-level so that they inline into the
   closures below. *)
let[@inline] get t r = Array.unsafe_get t.regs r
let[@inline] set t r v = Array.unsafe_set t.regs r v

let[@inline] loaded t pc addr bytes =
  Array.unsafe_set t.load_addr pc addr;
  t.last_read_addr <- addr;
  t.last_read_bytes <- bytes

let[@inline] stored t addr bytes =
  t.last_wrote_addr <- addr;
  t.last_wrote_bytes <- bytes

(* Multiply front end (zero-skip / memoization), specialized per machine
   configuration at predecode time.  Overrides the preset full latency
   when a shortcut applies; the caller writes the product. *)
let mul_front ~zero_skip ~memo_table =
  match (memo_table, zero_skip) with
  | None, false -> fun _t _a _b -> ()
  | None, true -> fun t a b -> if a = 0 || b = 0 then t.last_cycles <- 1
  | Some table, zs ->
      fun t a b ->
        if zs && (a = 0 || b = 0) then t.last_cycles <- 1
        else begin
          ignore (Memo.find_or_add table ~a ~b ~miss:(u32 (a * b)));
          if Memo.last_was_hit table then t.last_cycles <- 1
        end

(* One closure per PC: the instruction's effect on architectural state.
   The caller has already set [pcv] to the fall-through pc and
   [last_cycles] to [cost.(pc)]; a closure writes them only to override
   that preset, for a taken branch, a call or return, or a multiply
   shortcut.  Closures never capture the machine itself, only operand
   data, so a single table serves the machine for its whole lifetime —
   [reset_for_new_task] and [scrub_volatile] need no re-decode. *)
let compile_op ~zero_skip ~memo_table pc (i : int Instr.t) : t -> unit =
  let idx = Reg.index in
  match i with
  | Instr.Nop -> fun _ -> ()
  | Instr.Halt -> fun t -> t.halt <- true
  | Instr.Mov_imm (rd, imm) ->
      let rd = idx rd and imm = u32 imm in
      fun t -> set t rd imm
  | Instr.Movt (rd, imm) ->
      let rd = idx rd and hi = imm lsl 16 in
      fun t -> set t rd (u32 ((get t rd land 0xFFFF) lor hi))
  | Instr.Mov (rd, rn) ->
      let rd = idx rd and rn = idx rn in
      fun t -> set t rd (get t rn)
  | Instr.Alu (op, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t -> set t rd (u32 (alu_eval op (get t rn) (get t rm)))
  | Instr.Alu_imm (op, rd, rn, imm) ->
      let rd = idx rd and rn = idx rn in
      fun t -> set t rd (u32 (alu_eval op (get t rn) imm))
  | Instr.Shift (op, rd, rn, sh) -> (
      let rd = idx rd and rn = idx rn in
      match op with
      | Instr.Lsl -> fun t -> set t rd (u32 (get t rn lsl sh))
      | Instr.Lsr -> fun t -> set t rd (u32 (get t rn lsr sh))
      | Instr.Asr -> fun t -> set t rd (u32 (signed32 (get t rn) asr sh)))
  | Instr.Mul (rd, rn, rm) ->
      (* The product is recomputed even on a memo hit: the table holds
         [u32 (a * b)] under the exact operand pair, so the two agree. *)
      let rd = idx rd and rn = idx rn and rm = idx rm in
      let front = mul_front ~zero_skip ~memo_table in
      fun t ->
        let a = get t rn and b = get t rm in
        front t a b;
        set t rd (u32 (a * b))
  | Instr.Mul_asp { bits; signed; rd; rn; shift } ->
      (* rd := rd * subword, shifted into place.  The subword sits in
         the low [bits] bits of rn (a byte load or shift put it there);
         the most significant subword of signed data multiplies
         signed. *)
      let rd = idx rd and rn = idx rn in
      let front = mul_front ~zero_skip ~memo_table in
      fun t ->
        let sub_raw = Subword.truncate ~bits (get t rn) in
        let multiplicand = signed32 (get t rd) in
        let sub = if signed then Subword.to_signed ~bits sub_raw else sub_raw in
        (* The memo table and zero-skip front end decide the latency; the
           product itself is recomputed signed (the cached pattern equals
           it bit-for-bit). *)
        front t (u32 multiplicand) (u32 sub);
        set t rd (u32 ((multiplicand * sub) lsl shift));
        t.wn_retired <- t.wn_retired + 1
  | Instr.Add_asv (w, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t ->
        set t rd (Subword.lanes_add ~lane_bits:w ~width:32 (get t rn) (get t rm));
        t.wn_retired <- t.wn_retired + 1
  | Instr.Sub_asv (w, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t ->
        set t rd (Subword.lanes_sub ~lane_bits:w ~width:32 (get t rn) (get t rm));
        t.wn_retired <- t.wn_retired + 1
  | Instr.Sqrt (rd, rn) ->
      let rd = idx rd and rn = idx rn in
      fun t -> set t rd (isqrt_top ~bits:16 (get t rn))
  | Instr.Sqrt_asp { bits; rd; rn } ->
      let rd = idx rd and rn = idx rn in
      fun t ->
        set t rd (isqrt_top ~bits (get t rn));
        t.wn_retired <- t.wn_retired + 1
  | Instr.Cmp (rn, rm) ->
      let rn = idx rn and rm = idx rm in
      fun t -> set_compare_flags t (get t rn) (get t rm)
  | Instr.Cmp_imm (rn, imm) ->
      let rn = idx rn in
      fun t -> set_compare_flags t (get t rn) imm
  | Instr.Ldr { width; signed; rd; base; off } ->
      let rd = idx rd and base = idx base in
      let read = reader width ~signed and bytes = access_bytes width in
      fun t ->
        let addr = get t base + off in
        set t rd (read t.mem addr);
        loaded t pc addr bytes
  | Instr.Str { width; rs; base; off } ->
      let rs = idx rs and base = idx base in
      let write = writer width and bytes = access_bytes width in
      fun t ->
        let addr = get t base + off in
        write t.mem addr (get t rs);
        stored t addr bytes
  | Instr.Ldr_reg { width; signed; rd; base; idx = ix } ->
      let rd = idx rd and base = idx base and ix = idx ix in
      let read = reader width ~signed and bytes = access_bytes width in
      fun t ->
        let addr = get t base + get t ix in
        set t rd (read t.mem addr);
        loaded t pc addr bytes
  | Instr.Str_reg { width; rs; base; idx = ix } ->
      let rs = idx rs and base = idx base and ix = idx ix in
      let write = writer width and bytes = access_bytes width in
      fun t ->
        let addr = get t base + get t ix in
        write t.mem addr (get t rs);
        stored t addr bytes
  | Instr.B (Cond.Al, tgt) -> fun t -> t.pcv <- tgt
  | Instr.B (c, tgt) ->
      let taken = Instr.cycles ~taken:true i in
      fun t ->
        if holds c t then begin
          t.last_cycles <- taken;
          t.pcv <- tgt
        end
  | Instr.Bl tgt ->
      let lr = idx Reg.lr and ret = u32 (pc + 1) in
      fun t ->
        set t lr ret;
        t.pcv <- tgt
  | Instr.Bx_lr ->
      let lr = idx Reg.lr in
      fun t -> t.pcv <- get t lr
  | Instr.Skm tgt ->
      (* The option cell is built once here, so latching allocates
         nothing per execution. *)
      let latched = Some tgt in
      fun t ->
        t.skim <- latched;
        t.last_skm <- true;
        t.wn_retired <- t.wn_retired + 1

let create ?(config = default_config) ~program ~mem () =
  let memo_table =
    Option.map (fun entries -> Memo.create ~entries ()) config.memo_entries
  in
  {
    program;
    mem;
    regs = Array.make Reg.count 0;
    pcv = 0;
    fn = false;
    fz = false;
    fc = false;
    fv = false;
    halt = false;
    skim = None;
    memo_table;
    zero_skip = config.zero_skip;
    retired = 0;
    wn_retired = 0;
    cycles = 0;
    code =
      Array.mapi (compile_op ~zero_skip:config.zero_skip ~memo_table) program;
    cost = Array.map (Instr.cycles ~taken:false) program;
    load_addr = Array.make (Array.length program) 0;
    last_pc = -1;
    last_cycles = 0;
    last_read_addr = -1;
    last_read_bytes = 0;
    last_wrote_addr = -1;
    last_wrote_bytes = 0;
    last_skm = false;
    fused_table = [||];
    blocks_built = false;
  }

let program t = t.program
let mem t = t.mem
let pc t = t.pcv
let set_pc t v = t.pcv <- v

let reg t r = t.regs.(Reg.index r)
let set_reg t r v = t.regs.(Reg.index r) <- u32 v

let flags t = { Cond.n = t.fn; z = t.fz; c = t.fc; v = t.fv }

let set_flags t (f : Cond.flags) =
  t.fn <- f.Cond.n;
  t.fz <- f.Cond.z;
  t.fc <- f.Cond.c;
  t.fv <- f.Cond.v

let halted t = t.halt

let skim_target t = t.skim

let take_skim t =
  let s = t.skim in
  t.skim <- None;
  s

let reset_for_new_task t =
  t.pcv <- 0;
  t.halt <- false;
  t.skim <- None;
  Array.fill t.regs 0 Reg.count 0;
  set_flags t Cond.initial_flags

(* ---------------- the fast path ---------------- *)

let step_fast t =
  if t.halt then failwith "Machine.step_fast: halted";
  let pc = t.pcv in
  if pc < 0 || pc >= Array.length t.code then
    failwith (Printf.sprintf "Machine.step_fast: PC %d out of program" pc);
  t.last_pc <- pc;
  t.last_read_addr <- -1;
  t.last_wrote_addr <- -1;
  t.last_skm <- false;
  t.pcv <- pc + 1;
  t.last_cycles <- Array.unsafe_get t.cost pc;
  (Array.unsafe_get t.code pc) t;
  t.retired <- t.retired + 1;
  t.cycles <- t.cycles + t.last_cycles

let last_pc t = t.last_pc
let last_cycles t = t.last_cycles
let worst_case_cycles = Instr.worst_cycles
let last_read_addr t = t.last_read_addr
let last_read_bytes t = t.last_read_bytes
let last_wrote_addr t = t.last_wrote_addr
let last_wrote_bytes t = t.last_wrote_bytes
let last_was_skm t = t.last_skm

(* ---------------- block-compiled execution ---------------- *)

let build_blocks t =
  let memoizable = t.memo_table <> None || t.zero_skip in
  let table = Array.make (Array.length t.program) None in
  List.iter
    (fun (r : Wn_analysis.Fuse.run) ->
      let first = r.Wn_analysis.Fuse.r_first and len = r.Wn_analysis.Fuse.r_len in
      let last = first + len - 1 in
      let cycles = Array.fold_left ( + ) 0 (Array.sub t.cost first len) in
      let load_pcs =
        List.init len (( + ) first)
        |> List.filter (fun pc -> Instr.reads_memory t.program.(pc))
        |> Array.of_list
      in
      table.(first) <-
        Some
          {
            b_first = first;
            b_len = len;
            b_cycles = cycles;
            b_pre_cycles = cycles - t.cost.(last);
            b_load_pcs = load_pcs;
            b_last_is_load = Instr.reads_memory t.program.(last);
          })
    (Wn_analysis.Fuse.plan ~memoizable t.program);
  t.fused_table <- table;
  t.blocks_built <- true

let block_at t pc =
  if not t.blocks_built then build_blocks t;
  if pc >= 0 && pc < Array.length t.fused_table then
    Array.unsafe_get t.fused_table pc
  else None

let block_len b = b.b_len
let block_cycles b = b.b_cycles
let block_pre_cycles b = b.b_pre_cycles
let block_loads b = Array.length b.b_load_pcs
let block_read_addr t b i = t.load_addr.(b.b_load_pcs.(i))

(* Execute one fused run in a single call.  Preconditions (the executor
   and [step_block] enforce them): machine not halted and
   [pcv = b.b_first].  The run's closures are the ones [step_fast]
   calls; none of them redirects control or takes a multiply shortcut,
   so they never read or override the per-step presets, and the
   bookkeeping [b_len] [step_fast] calls would have done is written once
   afterwards.  The machine is then bit-identical — architectural
   state, statistics and the [last_*] scratch — to those calls: the
   loads already left the sticky [last_read_bytes], and no run contains
   a store. *)
let exec_block t b =
  let last = b.b_first + b.b_len - 1 in
  for pc = b.b_first to last do
    (Array.unsafe_get t.code pc) t
  done;
  t.last_pc <- last;
  t.last_cycles <- Array.unsafe_get t.cost last;
  if not b.b_last_is_load then t.last_read_addr <- -1;
  t.last_wrote_addr <- -1;
  t.last_skm <- false;
  t.pcv <- last + 1;
  t.retired <- t.retired + b.b_len;
  t.cycles <- t.cycles + b.b_cycles

(* Whole-block step when a fused run starts at the pc; per-instruction
   [step_fast] otherwise.  Always makes progress by at least one
   instruction (same failure conditions as [step_fast] when halted or
   out of program). *)
let step_block t =
  if t.halt then step_fast t
  else
    match block_at t t.pcv with
    | Some b -> exec_block t b
    | None -> step_fast t

(* ---------------- the reference interpreter ---------------- *)

let load t (width : Instr.width) ~signed addr =
  let open Wn_mem in
  match (width, signed) with
  | Instr.Byte, false -> (Memory.read8 t.mem addr, 1)
  | Instr.Byte, true -> (u32 (Memory.read8_signed t.mem addr), 1)
  | Instr.Half, false -> (Memory.read16 t.mem addr, 2)
  | Instr.Half, true -> (u32 (Memory.read16_signed t.mem addr), 2)
  | Instr.Word, _ -> (Memory.read32 t.mem addr, 4)

let store t (width : Instr.width) addr v =
  let open Wn_mem in
  match width with
  | Instr.Byte -> (Memory.write8 t.mem addr v, 1)
  | Instr.Half -> (Memory.write16 t.mem addr v, 2)
  | Instr.Word -> (Memory.write32 t.mem addr v, 4)

(* Multiply through the zero-skip / memoization front end.  Returns the
   raw product and the latency actually paid.  (Kept on the reference
   path; exercises the split lookup/insert Memo API.) *)
let multiply t ~full_cycles a b =
  if t.zero_skip && (a = 0 || b = 0) then (0, 1)
  else
    match t.memo_table with
    | Some table -> (
        match Memo.lookup table ~a ~b with
        | Some r -> (r, 1)
        | None ->
            let r = u32 (a * b) in
            Memo.insert table ~a ~b ~result:r;
            (r, full_cycles))
    | None -> (u32 (a * b), full_cycles)

(* The direct interpreter over [int Instr.t], kept as the executable
   specification of the ISA: it shares only the ALU, compare and
   square-root helpers with the predecoded table, and the differential
   suite and the executor's [Reference] engine step it to prove
   [step_fast] and [exec_block] faithful.  It leaves the same [last_*]
   scratch as [step_fast], byte counts included: those are sticky, so
   an instruction without such an access keeps the previous value. *)
let step_reference t =
  if t.halt then failwith "Machine.step_reference: halted";
  let pc = t.pcv in
  if pc < 0 || pc >= Array.length t.program then
    failwith (Printf.sprintf "Machine.step_reference: PC %d out of program" pc);
  let i = t.program.(pc) in
  let next = pc + 1 in
  let rd_set r v = set_reg t r v in
  let rv r = reg t r in
  let cycles = ref (Instr.cycles ~taken:false i) in
  let pc' = ref next in
  let read_addr = ref (-1) and wrote_addr = ref (-1) in
  (match i with
  | Instr.Nop -> ()
  | Instr.Halt -> t.halt <- true
  | Instr.Mov_imm (rd, imm) -> rd_set rd imm
  | Instr.Movt (rd, imm) -> rd_set rd ((rv rd land 0xFFFF) lor (imm lsl 16))
  | Instr.Mov (rd, rn) -> rd_set rd (rv rn)
  | Instr.Alu (op, rd, rn, rm) -> rd_set rd (alu_eval op (rv rn) (rv rm))
  | Instr.Alu_imm (op, rd, rn, imm) -> rd_set rd (alu_eval op (rv rn) imm)
  | Instr.Shift (op, rd, rn, sh) ->
      let v = rv rn in
      let r =
        match op with
        | Instr.Lsl -> v lsl sh
        | Instr.Lsr -> v lsr sh
        | Instr.Asr -> signed32 v asr sh
      in
      rd_set rd r
  | Instr.Mul (rd, rn, rm) ->
      let r, c = multiply t ~full_cycles:16 (rv rn) (rv rm) in
      rd_set rd r;
      cycles := c
  | Instr.Mul_asp { bits; signed; rd; rn; shift } ->
      let sub_raw = Subword.truncate ~bits (rv rn) in
      let multiplicand = signed32 (rv rd) in
      let sub = if signed then Subword.to_signed ~bits sub_raw else sub_raw in
      let a = u32 multiplicand and b = u32 sub in
      let _pattern, c = multiply t ~full_cycles:bits a b in
      let product = multiplicand * sub in
      rd_set rd (u32 (product lsl shift));
      cycles := c
  | Instr.Add_asv (w, rd, rn, rm) ->
      rd_set rd (Subword.lanes_add ~lane_bits:w ~width:32 (rv rn) (rv rm))
  | Instr.Sub_asv (w, rd, rn, rm) ->
      rd_set rd (Subword.lanes_sub ~lane_bits:w ~width:32 (rv rn) (rv rm))
  | Instr.Sqrt (rd, rn) -> rd_set rd (isqrt_top ~bits:16 (rv rn))
  | Instr.Sqrt_asp { bits; rd; rn } -> rd_set rd (isqrt_top ~bits (rv rn))
  | Instr.Cmp (rn, rm) -> set_compare_flags t (rv rn) (rv rm)
  | Instr.Cmp_imm (rn, imm) -> set_compare_flags t (rv rn) imm
  | Instr.Ldr { width; signed; rd; base; off } ->
      let addr = rv base + off in
      let v, bytes = load t width ~signed addr in
      rd_set rd v;
      read_addr := addr;
      t.last_read_bytes <- bytes
  | Instr.Str { width; rs; base; off } ->
      let addr = rv base + off in
      let (), bytes = store t width addr (rv rs) in
      wrote_addr := addr;
      t.last_wrote_bytes <- bytes
  | Instr.Ldr_reg { width; signed; rd; base; idx } ->
      let addr = rv base + rv idx in
      let v, bytes = load t width ~signed addr in
      rd_set rd v;
      read_addr := addr;
      t.last_read_bytes <- bytes
  | Instr.Str_reg { width; rs; base; idx } ->
      let addr = rv base + rv idx in
      let (), bytes = store t width addr (rv rs) in
      wrote_addr := addr;
      t.last_wrote_bytes <- bytes
  | Instr.B (c, tgt) ->
      if holds c t then begin
        pc' := tgt;
        cycles := Instr.cycles ~taken:true i
      end
  | Instr.Bl tgt ->
      set_reg t Reg.lr next;
      pc' := tgt
  | Instr.Bx_lr -> pc' := rv Reg.lr
  | Instr.Skm tgt -> t.skim <- Some tgt);
  t.pcv <- !pc';
  t.retired <- t.retired + 1;
  if Instr.is_wn_extension i then t.wn_retired <- t.wn_retired + 1;
  t.cycles <- t.cycles + !cycles;
  t.last_pc <- pc;
  t.last_cycles <- !cycles;
  t.last_read_addr <- !read_addr;
  t.last_wrote_addr <- !wrote_addr;
  t.last_skm <- (match i with Instr.Skm _ -> true | _ -> false)

(* ---------------- whole-state snapshot ---------------- *)

(* An opaque capture of everything mutable: architectural state
   (registers, flags, PC, halt latch, SKM register, data memory),
   statistics (retired/wn_retired/cycles, memory access counters, memo
   table contents and counters) and the [last_*] effect scratch.  The
   predecode table and the program are immutable and shared, so a
   snapshot is cheap (two array copies plus the memory image) and
   [restore] into any machine built from the same program and
   configuration is bit-exact under both [step_fast] and
   [step_reference].

   The memory is captured as a [Memory.image].  By default the capture
   is a delta: pages unwritten since this memory's previous capture are
   structurally shared with it, so a run that snapshots every K
   instructions pays O(pages dirtied per interval) per frame instead of
   O(memory).  [~full:true] forces an isolated copy.  Either way the
   image is complete and immutable — restore never walks a chain. *)
type snapshot = {
  s_regs : int array;
  s_pc : int;
  s_fn : bool;
  s_fz : bool;
  s_fc : bool;
  s_fv : bool;
  s_halt : bool;
  s_skim : int option;
  s_retired : int;
  s_wn_retired : int;
  s_cycles : int;
  s_mem : Wn_mem.Memory.image;
  s_mem_reads : int;
  s_mem_writes : int;
  s_memo : Memo.snapshot option;
  s_zero_skip : bool;
  s_program_len : int;
  s_last_pc : int;
  s_last_cycles : int;
  s_last_read_addr : int;
  s_last_read_bytes : int;
  s_last_wrote_addr : int;
  s_last_wrote_bytes : int;
  s_last_skm : bool;
}

let snapshot ?(full = false) t =
  let reads, writes = Wn_mem.Memory.read_stats t.mem in
  {
    s_regs = Array.copy t.regs;
    s_pc = t.pcv;
    s_fn = t.fn;
    s_fz = t.fz;
    s_fc = t.fc;
    s_fv = t.fv;
    s_halt = t.halt;
    s_skim = t.skim;
    s_retired = t.retired;
    s_wn_retired = t.wn_retired;
    s_cycles = t.cycles;
    s_mem =
      (if full then Wn_mem.Memory.capture_full t.mem
       else Wn_mem.Memory.capture t.mem);
    s_mem_reads = reads;
    s_mem_writes = writes;
    s_memo = Option.map Memo.snapshot t.memo_table;
    s_zero_skip = t.zero_skip;
    s_program_len = Array.length t.program;
    s_last_pc = t.last_pc;
    s_last_cycles = t.last_cycles;
    s_last_read_addr = t.last_read_addr;
    s_last_read_bytes = t.last_read_bytes;
    s_last_wrote_addr = t.last_wrote_addr;
    s_last_wrote_bytes = t.last_wrote_bytes;
    s_last_skm = t.last_skm;
  }

let restore t s =
  if
    Array.length t.program <> s.s_program_len
    || t.zero_skip <> s.s_zero_skip
    || Wn_mem.Memory.image_size s.s_mem <> Wn_mem.Memory.size t.mem
  then invalid_arg "Machine.restore: configuration mismatch";
  (match (t.memo_table, s.s_memo) with
  | None, None -> ()
  | Some table, Some ms -> Memo.restore table ms
  | _ -> invalid_arg "Machine.restore: configuration mismatch");
  Array.blit s.s_regs 0 t.regs 0 Reg.count;
  t.pcv <- s.s_pc;
  t.fn <- s.s_fn;
  t.fz <- s.s_fz;
  t.fc <- s.s_fc;
  t.fv <- s.s_fv;
  t.halt <- s.s_halt;
  t.skim <- s.s_skim;
  t.retired <- s.s_retired;
  t.wn_retired <- s.s_wn_retired;
  t.cycles <- s.s_cycles;
  Wn_mem.Memory.restore_image t.mem s.s_mem;
  Wn_mem.Memory.set_stats t.mem ~reads:s.s_mem_reads ~writes:s.s_mem_writes;
  t.last_pc <- s.s_last_pc;
  t.last_cycles <- s.s_last_cycles;
  t.last_read_addr <- s.s_last_read_addr;
  t.last_read_bytes <- s.s_last_read_bytes;
  t.last_wrote_addr <- s.s_last_wrote_addr;
  t.last_wrote_bytes <- s.s_last_wrote_bytes;
  t.last_skm <- s.s_last_skm

let snapshot_retired s = s.s_retired

let snapshot_pc s = s.s_pc

let snapshot_reg s r = s.s_regs.(Reg.index r)

(* Monomorphic int-array compare: the rejoin probe calls this on the
   register file of every candidate whose key register already matches
   the machine's, once per step, where the polymorphic [=] walk is
   measurably hot.  A [while] loop, because a local recursive closure
   is allocated on every call by the non-flambda compiler. *)
let int_arrays_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
    incr i
  done;
  !i = n

(* Architectural comparison: does the machine's forward-determining
   state bit-match the snapshot's?  Statistics (retired, cycles, memory
   access counts, memo hit rates) and the last-effect scratch fields are
   excluded — they record the past, not the future.  Register compare
   first: it fails fastest (a loop counter differs on almost every
   probe), leaving the memory compare for near-matches only. *)
let matches_state t s =
  Array.length t.program = s.s_program_len
  && t.zero_skip = s.s_zero_skip
  && t.pcv = s.s_pc
  && t.halt = s.s_halt
  && t.fn = s.s_fn && t.fz = s.s_fz && t.fc = s.s_fc && t.fv = s.s_fv
  && (match (t.skim, s.s_skim) with
     | None, None -> true
     | Some a, Some b -> a = b
     | _ -> false)
  && int_arrays_equal t.regs s.s_regs
  && (match (t.memo_table, s.s_memo) with
     | None, None -> true
     | Some table, Some ms -> Memo.state_equal table ms
     | _ -> false)
  && Wn_mem.Memory.matches_image t.mem s.s_mem

type register_file = { saved_regs : int array; saved_flags : Cond.flags; saved_pc : int }

let capture_registers t =
  { saved_regs = Array.copy t.regs; saved_flags = flags t; saved_pc = t.pcv }

let restore_registers t rf =
  Array.blit rf.saved_regs 0 t.regs 0 Reg.count;
  set_flags t rf.saved_flags;
  t.pcv <- rf.saved_pc

let scrub_volatile t =
  Array.fill t.regs 0 Reg.count 0;
  set_flags t Cond.initial_flags;
  t.pcv <- 0

let instructions_retired (t : t) = t.retired
let wn_instructions t = t.wn_retired
let cycles_executed (t : t) = t.cycles
let memo t = t.memo_table
