open Wn_isa

let run (prog : Asm.program) : Asm.program =
  let known = Array.make Reg.count None in
  let get r = known.(Reg.index r) in
  let set r v = known.(Reg.index r) <- v in
  let keep_instr i =
    match i with
    | Instr.Mov_imm (rd, imm) ->
        if get rd = Some imm then false
        else begin
          set rd (Some imm);
          true
        end
    | Instr.Movt (rd, imm) -> (
        match get rd with
        | Some v ->
            let v' = (imm lsl 16) lor (v land 0xFFFF) in
            if v' = v then false
            else begin
              set rd (Some v');
              true
            end
        | None -> true)
    | Instr.Mov (rd, rs) -> (
        match get rs with
        | Some v when get rd = Some v -> false
        | kv ->
            set rd kv;
            true)
    | i ->
        List.iter (fun r -> set r None) (Instr.defs i);
        true
  in
  let keep item =
    match item with
    | Asm.Label _ ->
        Array.fill known 0 (Array.length known) None;
        true
    | Asm.Comment _ -> true
    | Asm.I i -> keep_instr i
  in
  (* the tracked state makes [keep] order-sensitive: fold explicitly *)
  List.rev (List.fold_left (fun acc it -> if keep it then it :: acc else acc) [] prog)
