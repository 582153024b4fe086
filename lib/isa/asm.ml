type item = Label of string | I of string Instr.t | Comment of string

type program = item list

let label_map prog =
  let _, labels =
    List.fold_left
      (fun (addr, acc) item ->
        match item with
        | Label name -> (addr, (name, addr) :: acc)
        | I _ -> (addr + 1, acc)
        | Comment _ -> (addr, acc))
      (0, []) prog
  in
  List.rev labels

let assemble prog =
  let exception Err of string in
  try
    let labels = Hashtbl.create 16 in
    let count =
      List.fold_left
        (fun addr item ->
          match item with
          | Label name ->
              if Hashtbl.mem labels name then
                raise (Err (Printf.sprintf "duplicate label %S" name));
              Hashtbl.add labels name addr;
              addr
          | I _ -> addr + 1
          | Comment _ -> addr)
        0 prog
    in
    let resolve name =
      match Hashtbl.find_opt labels name with
      | Some addr when addr < count -> addr
      | Some _ -> raise (Err (Printf.sprintf "label %S dangles past program end" name))
      | None -> raise (Err (Printf.sprintf "undefined label %S" name))
    in
    let instrs =
      List.filter_map
        (function
          | I i -> Some (Instr.map_target resolve i)
          | Label _ | Comment _ -> None)
        prog
    in
    Ok (Array.of_list instrs)
  with Err e -> Error e

let assemble_exn prog =
  match assemble prog with Ok p -> p | Error e -> failwith ("Asm.assemble: " ^ e)

let pp_label ppf name = Format.pp_print_string ppf name

let pp_listing ppf prog =
  List.iter
    (function
      | Label name -> Format.fprintf ppf "%s:@." name
      | I i -> Format.fprintf ppf "        %a@." (Instr.pp ~lbl:pp_label) i
      | Comment c -> Format.fprintf ppf "        ; %s@." c)
    prog
