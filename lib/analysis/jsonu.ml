(* Minimal JSON emission — enough for [wn lint --json] / [wn verify
   --json] without growing a dependency.  Values are built as strings;
   the only subtlety is escaping and float formatting (shortest
   round-trippable form, never OCaml's trailing-dot "1."). *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""
let int n = string_of_int n
let bool b = if b then "true" else "false"
let null = "null"

let float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let opt f = function None -> null | Some v -> f v
let arr items = "[" ^ String.concat "," items ^ "]"

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

(* ---------------- diagnostics ---------------- *)

let of_diag (d : Diag.t) =
  obj
    [
      ("severity", str (Diag.severity_name d.severity));
      ("rule", str d.rule);
      ("pc", opt int d.pc);
      ("symbol", opt str d.symbol);
      ("message", str d.message);
    ]

let of_diags ds = arr (List.map of_diag ds)

let diag_report ?(extra = []) ds =
  let count s =
    List.length (List.filter (fun (d : Diag.t) -> d.severity = s) ds)
  in
  obj
    ([
       ("diagnostics", of_diags ds);
       ("errors", int (count Diag.Error));
       ("warnings", int (count Diag.Warning));
       ("notes", int (count Diag.Info));
     ]
    @ extra)

(* ---------------- forward-progress reports ---------------- *)

let of_bound (b : Progress.bound) =
  match b with
  | Progress.Finite c ->
      obj [ ("bounded", bool true); ("cycles", int c) ]
  | Progress.Unbounded { binding_loop } ->
      obj [ ("bounded", bool false); ("binding_loop_pc", int binding_loop) ]

(* The verifier's femtojoules, reported in joules. *)
let joules fj = float (Wn_power.Capacitor.joules fj)

let of_region (r : Progress.region) =
  obj
    [
      ("entry_pc", int r.rg_entry);
      ("kind", str (Progress.kind_name r.rg_kind));
      ("first_pc", int r.rg_first);
      ("last_pc", int r.rg_last);
      ("instructions", int r.rg_size);
      ("raw_wcec", of_bound r.rg_raw);
      ("per_charge", of_bound r.rg_capped);
      ("energy_joules", opt joules r.rg_energy);
      ("dominant_loop_pc", opt int r.rg_heavy_loop);
    ]

let of_progress (rp : Progress.report) =
  obj
    [
      ("runtime", str rp.rp_runtime.rt_name);
      ("budget_joules", joules rp.rp_budget);
      ("cycle_energy_joules", float rp.rp_cycle_energy);
      ("max_instruction_cycles", int rp.rp_max_instr);
      ("whole_program_wcec", of_bound rp.rp_total);
      ( "loops",
        arr
          (List.map
             (fun (header, trips) ->
               obj
                 [
                   ("header_pc", int header); ("max_trips", opt int trips);
                 ])
             rp.rp_trip_bounds) );
      ("regions", arr (List.map of_region rp.rp_regions));
    ]
