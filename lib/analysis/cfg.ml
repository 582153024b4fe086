open Wn_isa
module IntSet = Set.Make (Int)

type block = { first : int; last : int }

type t = {
  program : int Instr.t array;
  blocks : block array;
  block_of : int array;
  succ : int list array;
  pred : int list array;
  entries : int list;
  func_of : int array;
  calls : (int * int) list;
  skims : (int * int) list;
  falls_off : int list;
  dom : IntSet.t array;  (** per block: the blocks dominating it *)
}

(* Intraprocedural successors of the instruction at [pc]: branches
   follow their targets, calls fall through to the return site, [Bx_lr]
   and [Halt] end the function.  A fall-through past the end of the
   program yields no successor (recorded separately as [falls_off]). *)
let raw_succs program pc =
  let n = Array.length program in
  let fall = if pc + 1 < n then [ pc + 1 ] else [] in
  match program.(pc) with
  | Instr.B (Cond.Al, t) -> [ t ]
  | Instr.B (_, t) -> t :: List.filter (fun s -> s <> t) fall
  | Instr.Bl _ -> fall
  | Instr.Bx_lr | Instr.Halt -> []
  | _ -> fall

let ends_block = function
  | Instr.B _ | Instr.Bl _ | Instr.Bx_lr | Instr.Halt -> true
  | _ -> false

let build program =
  let n = Array.length program in
  if n = 0 then invalid_arg "Cfg.build: empty program";
  let calls = ref [] and skims = ref [] and falls_off = ref [] in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      (match i with
      | Instr.B (_, t) -> if t >= 0 && t < n then leader.(t) <- true
      | Instr.Bl t ->
          calls := (pc, t) :: !calls;
          if t >= 0 && t < n then leader.(t) <- true
      | Instr.Skm t ->
          skims := (pc, t) :: !skims;
          if t >= 0 && t < n then leader.(t) <- true
      | _ -> ());
      if ends_block i && pc + 1 < n then leader.(pc + 1) <- true;
      if (not (ends_block i)) && pc + 1 = n then falls_off := pc :: !falls_off;
      match i with
      | Instr.B (c, _) when c <> Cond.Al && pc + 1 = n ->
          falls_off := pc :: !falls_off
      | _ -> ())
    program;
  (* Carve blocks. *)
  let blocks = ref [] in
  let start = ref 0 in
  for pc = 0 to n - 1 do
    let last_of_block =
      ends_block program.(pc) || pc + 1 = n || leader.(pc + 1)
    in
    if last_of_block then begin
      blocks := { first = !start; last = pc } :: !blocks;
      start := pc + 1
    end
  done;
  let blocks = Array.of_list (List.rev !blocks) in
  let nb = Array.length blocks in
  let block_of = Array.make n 0 in
  Array.iteri
    (fun bi b ->
      for pc = b.first to b.last do
        block_of.(pc) <- bi
      done)
    blocks;
  let succ =
    Array.map
      (fun b ->
        raw_succs program b.last
        |> List.filter (fun t -> t >= 0 && t < n)
        |> List.map (fun t -> block_of.(t))
        |> List.sort_uniq Int.compare)
      blocks
  in
  let pred = Array.make nb [] in
  Array.iteri (fun bi ss -> List.iter (fun s -> pred.(s) <- bi :: pred.(s)) ss) succ;
  Array.iteri (fun bi l -> pred.(bi) <- List.sort_uniq Int.compare l) pred;
  (* Function discovery: BFS from each entry, first function wins. *)
  let entries =
    0 :: List.filter_map
           (fun (_, t) -> if t >= 0 && t < n then Some t else None)
           !calls
    |> List.sort_uniq Int.compare
  in
  let func_of = Array.make n (-1) in
  List.iter
    (fun entry ->
      if func_of.(entry) = -1 then begin
        let q = Queue.create () in
        Queue.add block_of.(entry) q;
        while not (Queue.is_empty q) do
          let bi = Queue.pop q in
          if func_of.(blocks.(bi).first) = -1 then begin
            for pc = blocks.(bi).first to blocks.(bi).last do
              func_of.(pc) <- entry
            done;
            List.iter (fun s -> if func_of.(blocks.(s).first) = -1 then Queue.add s q) succ.(bi)
          end
        done
      end)
    entries;
  (* Dominators, per function, iterative. *)
  let all_blocks = IntSet.of_list (List.init nb Fun.id) in
  let dom = Array.make nb all_blocks in
  List.iter
    (fun entry ->
      let eb = block_of.(entry) in
      if func_of.(entry) = entry then begin
        dom.(eb) <- IntSet.singleton eb;
        let members =
          List.filter
            (fun bi -> func_of.(blocks.(bi).first) = entry)
            (List.init nb Fun.id)
        in
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun bi ->
              if bi <> eb then begin
                let preds =
                  List.filter
                    (fun p -> func_of.(blocks.(p).first) = entry)
                    pred.(bi)
                in
                let inter =
                  match preds with
                  | [] -> all_blocks (* unreachable within the function *)
                  | p :: rest ->
                      List.fold_left
                        (fun acc q -> IntSet.inter acc dom.(q))
                        dom.(p) rest
                in
                let d = IntSet.add bi inter in
                if not (IntSet.equal d dom.(bi)) then begin
                  dom.(bi) <- d;
                  changed := true
                end
              end)
            members
        done
      end)
    entries;
  {
    program;
    blocks;
    block_of;
    succ;
    pred;
    entries;
    func_of;
    calls = List.rev !calls;
    skims = List.rev !skims;
    falls_off = List.rev !falls_off;
    dom;
  }

let instr_succs t pc =
  let n = Array.length t.program in
  List.filter (fun s -> s >= 0 && s < n) (raw_succs t.program pc)

let dominates t a b =
  let n = Array.length t.program in
  if a < 0 || b < 0 || a >= n || b >= n then false
  else if t.func_of.(a) = -1 || t.func_of.(a) <> t.func_of.(b) then false
  else
    let ba = t.block_of.(a) and bb = t.block_of.(b) in
    if ba = bb then a <= b else IntSet.mem ba t.dom.(bb)

let loops t =
  (* Back edge: block b -> header h with h dominating b; the natural
     loop is h plus everything that reaches b without passing h. *)
  let nb = Array.length t.blocks in
  let tbl = Hashtbl.create 8 in
  for b = 0 to nb - 1 do
    List.iter
      (fun h ->
        if IntSet.mem h t.dom.(b) then begin
          (* collect the loop body for back edge b -> h *)
          let body = Hashtbl.create 8 in
          Hashtbl.replace body h ();
          let rec up x =
            if not (Hashtbl.mem body x) then begin
              Hashtbl.replace body x ();
              List.iter up t.pred.(x)
            end
          in
          up b;
          let members =
            Hashtbl.fold (fun bi () acc -> bi :: acc) body []
          in
          let header_pc = t.blocks.(h).first in
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt tbl header_pc)
          in
          Hashtbl.replace tbl header_pc (members @ existing)
        end)
      t.succ.(b)
  done;
  Hashtbl.fold
    (fun header members acc ->
      let pcs =
        List.sort_uniq Int.compare members
        |> List.concat_map (fun bi ->
               let b = t.blocks.(bi) in
               List.init (b.last - b.first + 1) (fun i -> b.first + i))
      in
      (header, pcs) :: acc)
    tbl []
  |> List.sort Stdlib.compare

let reachable_between t ~src ~stop =
  let seen = Hashtbl.create 32 in
  let rec go pc =
    if pc <> stop && not (Hashtbl.mem seen pc) then begin
      Hashtbl.replace seen pc ();
      List.iter go (instr_succs t pc)
    end
  in
  go src;
  Hashtbl.fold (fun pc () acc -> pc :: acc) seen [] |> List.sort Int.compare
