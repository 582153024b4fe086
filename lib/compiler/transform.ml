open Wn_lang
open Ast

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type ir = {
  body : stmt list;
  storage_globals : global list;
  layouts : (string * Layout.t) list;
}

(* ------------------------------------------------------------------ *)
(* Shared by the sub-passes                                            *)

(* One sub-pass's view of the program while it lowers its regions. *)
type st = {
  info : Sema.info;
  mutable globals : global list;  (** storage-level globals so far *)
  mutable layouts : (string * Layout.t) list;
  mutable fresh : int;
}

(* The shared walker: a sub-pass lowers, in program order, every
   top-level region it claims and leaves the rest to the sub-passes
   after it. *)
let lower_regions ~claims lower info (ir : ir) =
  let st =
    { info; globals = ir.storage_globals; layouts = ir.layouts; fresh = 0 }
  in
  let body =
    List.concat_map
      (fun stmt ->
        match stmt with
        | Anytime { body; commit } ->
            if claims info body then lower st ~commit body else [ stmt ]
        | s ->
            let check_nested = function
              | Anytime _ -> err "anytime blocks must be top-level statements"
              | inner -> inner
            in
            ignore (map_stmt check_nested s);
            [ s ])
      ir.body
  in
  { body; storage_globals = st.globals; layouts = st.layouts }

(* Algorithm 1's skeleton: the commit block follows every stage, so the
   best-so-far output is materialised in memory, and a skim point
   separates consecutive stages. *)
let replicate ~commit stages =
  List.concat
    (List.mapi
       (fun i stage -> (if i = 0 then [] else [ Skim_here ]) @ stage @ commit)
       stages)

(* Does any expression in [stmts] satisfy [p]? *)
let exists_expr p stmts =
  let found = ref false in
  List.iter (iter_exprs_stmt (fun e -> if p e then found := true)) stmts;
  !found

let asp_load info = function
  | Load (arr, _) -> Sema.asp_input info arr <> None
  | _ -> false

let asp_mul info = function
  | Binop (Mul, a, b) -> asp_load info a || asp_load info b
  | _ -> false

let split_region body =
  (* prelude* ; For ; (nothing after) *)
  let rec split prelude = function
    | For l :: rest ->
        if rest <> [] then
          err "anytime block must end with its main loop";
        (List.rev prelude, l)
    | (Decl _ as s) :: rest | (Assign _ as s) :: rest
    | (Aug_assign _ as s) :: rest ->
        split (s :: prelude) rest
    | [] -> err "anytime block has no loop"
    | (If _ | Anytime _ | Skim_here) :: _ ->
        err "anytime block prelude must be straight-line code"
  in
  split [] body

let elem_signed_of info arr =
  match Sema.global info arr with
  | Some g -> ty_signed g.g_ty
  | None -> err "unknown array %s" arr

(* Build a left-leaning chain  e0 + e1 + ... *)
let add_chain = function
  | [] -> Int 0
  | e :: rest -> List.fold_left (fun acc e -> Binop (Add, acc, e)) e rest

(* ------------------------------------------------------------------ *)
(* anytime-swp: loop fission and MUL_ASP substitution                  *)

(* Subword geometry for a 16-bit operand split into nominal [bits]-wide
   digits, least significant first.  When [bits] does not divide the
   width (3-bit subwords of a 16-bit word, Figure 15), the ragged
   narrower digit sits at the *bottom* so the most significant replica
   still processes a full [bits] of signal. *)
let asp_positions ~elem_bits ~bits =
  let ragged = elem_bits mod bits in
  let full = elem_bits / bits in
  let fulls = List.init full (fun i -> (ragged + (i * bits), bits)) in
  if ragged = 0 then fulls else (0, ragged) :: fulls

(* Rewrite one fission replica: multiplications with an annotated
   operand become MUL_ASP stages over that operand's digit at
   [shift]/[width].  When both operands are annotated loads (x·x in
   Var), the right-hand side is the one decomposed. *)
let rewrite_asp_pass info ~elem_signed ~shift ~width ~top e =
  let subload arr idx =
    Sub_load { sl_arr = arr; sl_index = idx; sl_shift = shift }
  in
  let spec signed_elem =
    { asp_bits = width; asp_shift = shift; asp_signed = signed_elem && top }
  in
  let rec rw e =
    match e with
    | Binop (Mul, a, Load (arr, idx)) when Sema.asp_input info arr <> None ->
        Mul_asp (rw a, subload arr (rw idx), spec (elem_signed arr))
    | Binop (Mul, Load (arr, idx), b) when Sema.asp_input info arr <> None ->
        Mul_asp (rw b, subload arr (rw idx), spec (elem_signed arr))
    | Int _ | Var _ -> e
    | Load (a, i) -> Load (a, rw i)
    | Neg a -> Neg (rw a)
    | Bnot a -> Bnot (rw a)
    | Sqrt a -> Sqrt (rw a)
    | Binop (op, a, b) -> Binop (op, rw a, rw b)
    | Sub_load _ | Mul_asp _ | Asv_op _ | Sqrt_asp _ | Raw_off _ ->
        err "unexpected internal form during SWP rewriting"
  in
  rw e

(* A custom statement walk: map_exprs_stmt applies bottom-up and would
   rewrite multiply operands before their enclosing multiply is seen, so
   the top-down expression rewriter is threaded by hand. *)
let rewrite_asp_stmt info ~elem_signed ~shift ~width ~top stmt =
  let rw e = rewrite_asp_pass info ~elem_signed ~shift ~width ~top e in
  let is_asp_output arr = List.mem arr (Sema.(info.asp_outputs)) in
  let rec go stmt =
    match stmt with
    | Decl (n, e) -> Decl (n, rw e)
    | Assign ((Larr (arr, _) as lhs), e) when (not top) && is_asp_output arr ->
        (* The first replica overwrites the output; later replicas add
           their digit contributions on top (the X[i] += of Listing 1,
           made explicit so the precise build keeps its plain store and
           no write-after-read hazard). *)
        Aug_assign (rw_lhs lhs, Add, rw e)
    | Assign (lhs, e) -> Assign (rw_lhs lhs, rw e)
    | Aug_assign (lhs, op, e) -> Aug_assign (rw_lhs lhs, op, rw e)
    | For l ->
        For { l with lo = rw l.lo; hi = rw l.hi; body = List.map go l.body }
    | If (c, a, b) -> If (rw c, List.map go a, List.map go b)
    | Anytime _ -> err "nested anytime block"
    | Skim_here -> Skim_here
  and rw_lhs = function
    | Lvar v -> Lvar v
    | Larr (a, i) -> Larr (a, rw i)
  in
  go stmt

(* Statements inside the fissioned loop that do not participate in the
   pipelined computation (an exact running sum sharing the loop, say)
   must run exactly once; we keep them only in the first replica.

   A leaf statement participates ("is hot") — and therefore re-executes
   in every replica — iff, at the fixpoint, it
   - contains a multiplication by an annotated array (the seed),
   - writes a name a hot statement reads (it produces hot inputs, e.g.
     a hoisted index),
   - reads a name a hot statement writes (it consumes hot results, e.g.
     [out\[..\] += acc]), or
   - writes a name hot statements also write (a re-initialisation such
     as [acc = 0]). *)
type hot = { hot_read : Names.t; hot_written : Names.t }

let stmt_is_hot info hot stmt =
  let writes = writes_of_stmts [ stmt ] in
  exists_expr (asp_mul info) [ stmt ]
  || (not (Names.disjoint writes hot.hot_read))
  || (not (Names.disjoint (reads_of_stmts [ stmt ]) hot.hot_written))
  || not (Names.disjoint writes hot.hot_written)

let hot_analysis info loop_body =
  let leafs = ref [] in
  let rec collect stmt =
    match stmt with
    | Decl _ | Assign _ | Aug_assign _ -> leafs := stmt :: !leafs
    | For l -> List.iter collect l.body
    | If (_, a, b) ->
        List.iter collect a;
        List.iter collect b
    | Anytime _ -> err "nested anytime block"
    | Skim_here -> ()
  in
  List.iter collect loop_body;
  let hot = ref { hot_read = Names.empty; hot_written = Names.empty } in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun stmt ->
        if stmt_is_hot info !hot stmt then begin
          let r = Names.union !hot.hot_read (reads_of_stmts [ stmt ])
          and w = Names.union !hot.hot_written (writes_of_stmts [ stmt ]) in
          if
            not
              (Names.equal r !hot.hot_read && Names.equal w !hot.hot_written)
          then begin
            hot := { hot_read = r; hot_written = w };
            changed := true
          end
        end)
      !leafs
  done;
  !hot

(* Keep only hot statements (for replicas after the first). *)
let rec filter_hot info hot stmts =
  List.filter_map
    (fun stmt ->
      match stmt with
      | Decl _ | Assign _ | Aug_assign _ ->
          if stmt_is_hot info hot stmt then Some stmt else None
      | For l ->
          let body = filter_hot info hot l.body in
          if body = [] then None else Some (For { l with body })
      | If (c, a, b) ->
          let a = filter_hot info hot a and b = filter_hot info hot b in
          if a = [] && b = [] then None else Some (If (c, a, b))
      | Anytime _ -> err "nested anytime block"
      | Skim_here -> Some Skim_here)
    stmts

(* ------------------------------------------------------------------ *)
(* asv geometry, shared by anytime-swv and SWP's vectorized loads       *)

type asv_config = {
  cfg_bits : int;
  cfg_lane : int;  (** storage lane width *)
  cfg_elem_bits : int;
  cfg_count : int;
  cfg_wpp : int;  (** words per plane *)
  cfg_planes : int;
}

let require_provisioned info arr =
  match Sema.asv_spec info arr with
  | Some spec when not spec.Sema.asv_provisioned ->
      err
        "asv reduction over %s must be provisioned (banked partial sums \
         need carry headroom)"
        arr
  | _ -> ()

let asv_config_of info ~reduction arr =
  match (Sema.asv_spec info arr, Sema.global info arr) with
  | Some spec, Some g ->
      let elem_bits = ty_bits g.g_ty in
      if elem_bits mod spec.asv_bits <> 0 then
        err "asv %s: bits do not divide element width" arr;
      let lane =
        if reduction then begin
          require_provisioned info arr;
          max 16 (2 * spec.asv_bits)
        end
        else if spec.asv_provisioned then 2 * spec.asv_bits
        else spec.asv_bits
      in
      let lane = min lane 32 in
      let lpw = 32 / lane in
      if g.g_count mod lpw <> 0 then
        err "asv %s: element count %d not a multiple of %d lanes" arr
          g.g_count lpw;
      {
        cfg_bits = spec.asv_bits;
        cfg_lane = lane;
        cfg_elem_bits = elem_bits;
        cfg_count = g.g_count;
        cfg_wpp = g.g_count / lpw;
        cfg_planes = elem_bits / spec.asv_bits;
      }
  | None, _ -> err "array %s is not asv-annotated" arr
  | _, None -> err "unknown array %s" arr

(* The one geometry every asv array of a region must share. *)
let shared_config info ~reduction arrays =
  match List.map (asv_config_of info ~reduction) arrays with
  | cfg :: rest when List.for_all (( = ) cfg) rest -> cfg
  | _ -> err "asv arrays in one anytime block must share size and provisioning"

(* Store [arr] subword-major: its storage global becomes the plane
   words. *)
let retype_asv ?(biased = false) st arr cfg =
  let words = cfg.cfg_planes * cfg.cfg_wpp in
  let layout =
    Layout.subword_major ~biased ~elem_bits:cfg.cfg_elem_bits
      ~signed:(elem_signed_of st.info arr) ~bits:cfg.cfg_bits
      ~lane_bits:cfg.cfg_lane ~count:cfg.cfg_count ()
  in
  match List.assoc_opt arr st.layouts with
  | None ->
      st.layouts <- (arr, layout) :: st.layouts;
      st.globals <-
        List.map
          (fun g ->
            if g.g_name = arr then { g with g_ty = U32; g_count = words }
            else g)
          st.globals
  | Some existing ->
      if (List.find (fun g -> g.g_name = arr) st.globals).g_count <> words
      then err "array %s used with two different plane shapes" arr;
      if existing <> layout then
        err "array %s used with two different layouts" arr

(* ------------------------------------------------------------------ *)
(* The sub-passes                                                      *)

let swp_region ~vector_loads st ~commit body =
  let info = st.info in
  let prelude, l = split_region body in
  let loop = For l in
  (* All annotated arrays used in this region share the subword size of
     their own pragma; take geometry from each multiply's own array, but
     pass count from the widest annotation present. *)
  let arrays_used = ref [] in
  iter_exprs_stmt
    (fun e ->
      match e with
      | Load (arr, _) when Sema.asp_input info arr <> None ->
          if not (List.mem arr !arrays_used) then arrays_used := arr :: !arrays_used
      | _ -> ())
    loop;
  if !arrays_used = [] then err "SWP anytime block uses no asp-annotated array";
  let bits =
    match
      List.sort_uniq compare
        (List.filter_map (Sema.asp_input info) !arrays_used)
    with
    | [ b ] -> b
    | _ -> err "asp arrays in one anytime block must share a subword size"
  in
  let hot = hot_analysis info [ loop ] in
  (* The commit block must not disturb the pipelined state. *)
  let bad = Names.inter (writes_of_stmts commit) hot.hot_written in
  if not (Names.is_empty bad) then
    err "commit block writes pipelined state: %s"
      (String.concat ", " (Names.elements bad));
  let elem_signed = elem_signed_of info in
  let vectorize = vector_loads && List.for_all (fun a -> Sema.asv_spec info a <> None) !arrays_used in
  if vector_loads && not vectorize then
    err "vector_loads requires the asp arrays to also carry asv pragmas";
  let stage i (shift, width) =
    let top = i = 0 in
    let loop_i =
      if top then loop
      else
        match filter_hot info hot [ loop ] with
        | [ l ] -> l
        | _ -> err "fission dropped the main loop"
    in
    let rewritten =
      rewrite_asp_stmt info ~elem_signed ~shift ~width ~top loop_i
    in
    if not vectorize then [ rewritten ]
    else
      let geom arr =
        let cfg = asv_config_of info ~reduction:false arr in
        (cfg.cfg_wpp, cfg.cfg_bits)
      in
      match Vector_loads.rewrite ~geom rewritten with
      | Some s -> [ s ]
      | None -> err "vector_loads: no vectorizable inner loop found"
  in
  (* most significant first *)
  let stages =
    List.mapi stage (List.rev (asp_positions ~elem_bits:16 ~bits))
  in
  (if vectorize then
     List.iter
       (fun arr ->
         let cfg = asv_config_of info ~reduction:false arr in
         if cfg.cfg_lane <> cfg.cfg_bits then
           err "vector_loads requires unprovisioned asv storage on %s" arr;
         if cfg.cfg_bits <> bits then
           err "vector_loads: asv and asp subword sizes differ on %s" arr;
         retype_asv st arr cfg)
       !arrays_used);
  prelude @ replicate ~commit stages

(* An anytime region whose refinement target is a square root: the loop
   is replicated with SQRT_ASP stages of increasing result width, each
   replica *overwriting* the previous approximation (the digit
   recurrence makes every computed bit final, so successive stages
   refine monotonically and the last — full — stage is exact). *)
let sqrt_region st ~commit body =
  let info = st.info in
  let bits = Option.value ~default:4 info.Sema.asp_output_bits in
  if bits < 1 || bits > 16 then err "sqrt stage size %d out of range" bits;
  let prelude, l = split_region body in
  (* Overwrite semantics: accumulating into the output across replicas
     would double-count. *)
  let check_overwrite = function
    | Aug_assign (Larr (arr, _), _, _) when List.mem arr info.Sema.asp_outputs
      ->
        err "sqrt anytime region must overwrite its output, not accumulate"
    | s -> s
  in
  ignore (map_stmt check_overwrite (For l));
  (* bits, 2·bits, … capped and terminated at the full 16. *)
  let rec widths k = if k >= 16 then [ 16 ] else k :: widths (k + bits) in
  let stage k =
    [ map_exprs_stmt
        (function Sqrt a when k < 16 -> Sqrt_asp (a, k) | e -> e)
        (For l) ]
  in
  prelude @ replicate ~commit (List.map stage (widths bits))

type ew_rhs = Copy of string | Op of binop * string * string

type swv_shape =
  | Elementwise of (string * ew_rhs) list  (** target array, rhs shape *)
  | Reduction of (string * string) list  (** accumulator, source array *)

let classify_swv loop_body loop_var =
  let is_idx e = match e with Var v -> v = loop_var | _ -> false in
  let elementwise stmt =
    match stmt with
    | Assign (Larr (x, idx), rhs) when is_idx idx -> (
        match rhs with
        | Binop (((Add | Sub | And | Or | Xor) as op), Load (a, ia), Load (b, ib))
          when is_idx ia && is_idx ib ->
            Some (x, Op (op, a, b))
        | Load (a, ia) when is_idx ia -> Some (x, Copy a)
        | _ -> None)
    | _ -> None
  in
  let reduction stmt =
    match stmt with
    | Aug_assign (Lvar s, Add, Load (a, ia)) when is_idx ia -> Some (s, a)
    | _ -> None
  in
  let ew = List.map elementwise loop_body in
  if List.for_all Option.is_some ew then Elementwise (List.map Option.get ew)
  else
    let red = List.map reduction loop_body in
    if List.for_all Option.is_some red then Reduction (List.map Option.get red)
    else
      err
        "anytime SWV block must be element-wise (X[i] = A[i] op B[i]) or a \
         reduction (s += A[i]); got:\n%s"
        (Format.asprintf "%a" (Format.pp_print_list pp_stmt) loop_body)

let fresh_var st base =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "__wn_%s%d" base st.fresh

(* A synthesised non-volatile array of banked digit-plane sums. *)
let bank_array st name count =
  st.globals <- st.globals @ [ { g_name = name; g_ty = U32; g_count = count } ]

let acc_var s = "__wn_acc_" ^ s

(* Declare each accumulator's lane-parallel partial sum and gather [n]
   plane words, the [wi]-th at [idx], into it. *)
let partial_sums cfg accs ~wi ~n idx =
  List.map (fun (s, _) -> Decl (acc_var s, Int 0)) accs
  @ [ For
        {
          var = wi;
          lo = Int 0;
          hi = Int n;
          step = 1;
          body =
            List.map
              (fun (s, a) ->
                Assign
                  ( Lvar (acc_var s),
                    Asv_op
                      (Add, cfg.cfg_lane, Var (acc_var s), Load (a, idx)) ))
              accs;
        } ]

(* The horizontal sum of an accumulator's [32 / lane] lanes. *)
let lane_sum cfg s =
  let lpw = 32 / cfg.cfg_lane in
  if lpw = 1 then Var (acc_var s)
  else
    add_chain
      (List.init lpw (fun lane ->
           let shifted =
             if lane = 0 then Var (acc_var s)
             else Binop (Shr, Var (acc_var s), Int (lane * cfg.cfg_lane))
           in
           Binop (And, shifted, Int (Wn_util.Subword.mask cfg.cfg_lane))))

(* Replace every read of an accumulator in [stmts] by its exact
   reconstruction [Σ plane_p << (p·bits)], plane [p] read by
   [plane s p]. *)
let reconstruct cfg plane accs stmts =
  let value s =
    add_chain
      (List.init cfg.cfg_planes (fun p ->
           if p = 0 then plane s 0
           else Binop (Shl, plane s p, Int (p * cfg.cfg_bits))))
  in
  List.map
    (map_exprs_stmt (function Var v when List.mem v accs -> value v | e -> e))
    stmts

(* Stage [p] for every digit plane, most significant first. *)
let planes_msb_first cfg stage =
  List.init cfg.cfg_planes (fun i -> stage (cfg.cfg_planes - 1 - i))

(* Per-window sums — Home's zone averages and NetMotion's per-interval
   net movement:

   {v for (z = 0; z < Z; z += 1) {
        int32 zb = z * W;       // optional hoisted window base
        int32 s = 0;            // one or more accumulators
        for (i = 0; i < W; i += 1) { s += A[zb + i]; }
        o[f(z)] = g(s);         // one or more result stores
      } v}

   Each pass banks one digit plane's lane-parallel partial sum per
   window into a synthesised array, and the result stores re-derive
   each window's value from the banked planes — so committed outputs
   are always coherent per-window estimates, even for signed data
   (whose storage is offset-binary, making the plane reconstruction
   exact modulo 2^32 for even window sizes). *)
type windowed = {
  win_z : string;  (** outer loop variable *)
  win_zones : int;
  win_size : int;
  win_accs : (string * string) list;  (** accumulator, source array *)
  win_stores : stmt list;  (** trailing result stores, in order *)
}

let classify_windowed (l : for_loop) =
  let ( let* ) = Option.bind in
  let* zones = match (l.lo, l.hi, l.step) with
    | Int 0, Int n, 1 -> Some n
    | _ -> None
  in
  (* Split body: leading Decls, one For, trailing Assigns. *)
  let rec take_decls acc = function
    | (Decl _ as d) :: rest -> take_decls (d :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let decls, rest = take_decls [] l.body in
  let* inner, stores =
    match rest with
    | For inner :: stores -> Some (inner, stores)
    | _ -> None
  in
  let* w = match (inner.lo, inner.hi, inner.step) with
    | Int 0, Int w, 1 -> Some w
    | _ -> None
  in
  (* Window-base locals: zb = z * W (or z << log2 W). *)
  let bases =
    List.filter_map
      (function
        | Decl (n, Binop (Mul, Var v, Int c)) when v = l.var && c = w -> Some n
        | Decl (n, Binop (Shl, Var v, Int s))
          when v = l.var && 1 lsl s = w ->
            Some n
        | _ -> None)
      decls
  in
  let accs_declared =
    List.filter_map (function Decl (n, Int 0) -> Some n | _ -> None) decls
  in
  let is_window_index idx =
    match idx with
    | Binop (Add, Var zb, Var i) -> List.mem zb bases && i = inner.var
    | Binop (Add, Binop (Mul, Var v, Int c), Var i) ->
        v = l.var && c = w && i = inner.var
    | _ -> false
  in
  let* accs =
    let step stmt =
      match stmt with
      | Aug_assign (Lvar s, Add, Load (a, idx))
        when List.mem s accs_declared && is_window_index idx ->
          Some (s, a)
      | _ -> None
    in
    let parsed = List.map step inner.body in
    if parsed <> [] && List.for_all Option.is_some parsed then
      Some (List.map Option.get parsed)
    else None
  in
  let* () =
    if
      stores <> []
      && List.for_all
           (function Assign (Larr _, _) -> true | _ -> false)
           stores
    then Some ()
    else None
  in
  Some { win_z = l.var; win_zones = zones; win_size = w; win_accs = accs;
         win_stores = stores }

let swv_windowed st ~commit ~prelude (wd : windowed) =
  let info = st.info in
  (* Windowed reductions bank per window, so the plain provisioned lane
     (2x digits) is enough headroom; the overflow guard below rejects
     windows too large for it. *)
  List.iter (fun (_, a) -> require_provisioned info a) wd.win_accs;
  let cfg = shared_config info ~reduction:false (List.map snd wd.win_accs) in
  if cfg.cfg_count <> wd.win_zones * wd.win_size then
    err "windowed reduction: %d windows of %d do not cover %d elements"
      wd.win_zones wd.win_size cfg.cfg_count;
  let lpw = 32 / cfg.cfg_lane in
  if wd.win_size mod lpw <> 0 then
    err "window size %d is not a multiple of %d lanes" wd.win_size lpw;
  let wpz = wd.win_size / lpw in
  if wpz * ((1 lsl cfg.cfg_bits) - 1) >= 1 lsl cfg.cfg_lane then
    err "window size %d overflows a %d-bit partial-sum lane" wd.win_size
      cfg.cfg_lane;
  List.iter
    (fun (_, a) ->
      let signed = elem_signed_of info a in
      if signed && wd.win_size mod 2 <> 0 then
        err "signed windowed reduction needs an even window size";
      retype_asv ~biased:signed st a cfg)
    wd.win_accs;
  let np = cfg.cfg_planes in
  let acc_names = List.map fst wd.win_accs in
  let planes_arr s = "__wn_zplanes_" ^ s in
  List.iter
    (fun s -> bank_array st (planes_arr s) (wd.win_zones * np))
    acc_names;
  let zero_var = fresh_var st "zz" in
  let zeroing =
    [ For
        {
          var = zero_var;
          lo = Int 0;
          hi = Int (wd.win_zones * np);
          step = 1;
          body =
            List.map
              (fun s -> Assign (Larr (planes_arr s, Var zero_var), Int 0))
              acc_names;
        } ]
  in
  let zv = wd.win_z in
  let wi = fresh_var st "wi" in
  let slot p = Binop (Add, Binop (Mul, Var zv, Int np), Int p) in
  let rewritten_stores =
    reconstruct cfg
      (fun s p -> Load (planes_arr s, slot p))
      acc_names wd.win_stores
  in
  let wb = fresh_var st "wb" in
  let stage p =
    (* The window's plane base is loop-invariant in [wi]; hoist it so
       the inner loop's addressing matches the precise build's. *)
    let base_decl =
      Decl
        (wb, Binop (Add, Int (p * cfg.cfg_wpp), Binop (Mul, Var zv, Int wpz)))
    in
    let bank =
      List.map
        (fun s -> Assign (Larr (planes_arr s, slot p), lane_sum cfg s))
        acc_names
    in
    [ For
        {
          var = zv;
          lo = Int 0;
          hi = Int wd.win_zones;
          step = 1;
          body =
            (base_decl
             :: partial_sums cfg wd.win_accs ~wi ~n:wpz
                  (Binop (Add, Var wb, Var wi)))
            @ bank @ rewritten_stores;
        } ]
  in
  prelude @ zeroing @ replicate ~commit (planes_msb_first cfg stage)

let swv_region st ~commit body =
  let info = st.info in
  let prelude, l = split_region body in
  match classify_windowed l with
  | Some wd -> swv_windowed st ~commit ~prelude wd
  | None ->
  (match (l.lo, l.step) with
  | Int 0, 1 -> ()
  | _ -> err "SWV loop must run from 0 with unit step");
  let n =
    match l.hi with
    | Int n -> n
    | _ -> err "SWV loop bound must be a constant"
  in
  match classify_swv l.body l.var with
  | Elementwise assigns ->
      let arrays =
        List.concat_map
          (fun (x, rhs) ->
            match rhs with Copy a -> [ x; a ] | Op (_, a, b) -> [ x; a; b ])
          assigns
      in
      let cfg = shared_config info ~reduction:false arrays in
      if cfg.cfg_count <> n then
        err "SWV loop bound %d does not match array length %d" n cfg.cfg_count;
      List.iter (fun a -> retype_asv st a cfg) arrays;
      let wvar = fresh_var st "w" in
      let plane_idx p = Binop (Add, Int (p * cfg.cfg_wpp), Var wvar) in
      let stage p =
        let stmts =
          List.map
            (fun (x, rhs) ->
              let operand name = Load (name, plane_idx p) in
              let rhs' =
                match rhs with
                | Copy a -> operand a
                | Op (((And | Or | Xor) as op), a, b) ->
                    (* lane-safe on plain ALU ops, as the paper notes *)
                    Binop (op, operand a, operand b)
                | Op (((Add | Sub) as op), a, b) ->
                    Asv_op (op, cfg.cfg_lane, operand a, operand b)
                | Op ((Mul | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge), _, _) ->
                    assert false
              in
              Assign (Larr (x, plane_idx p), rhs'))
            assigns
        in
        [ For { var = wvar; lo = Int 0; hi = Int cfg.cfg_wpp; step = 1; body = stmts } ]
      in
      prelude @ replicate ~commit (planes_msb_first cfg stage)
  | Reduction accs ->
      let cfg = shared_config info ~reduction:true (List.map snd accs) in
      if cfg.cfg_count <> n then
        err "SWV loop bound %d does not match array length %d" n cfg.cfg_count;
      List.iter (fun (_, a) -> retype_asv st a cfg) accs;
      let acc_names = List.map fst accs in
      (* Drop the accumulators' prelude declarations: banked planes in
         NVM replace them. *)
      let prelude =
        List.filter
          (function Decl (nm, _) -> not (List.mem nm acc_names) | _ -> true)
          prelude
      in
      let planes_arr s = "__wn_planes_" ^ s in
      List.iter
        (fun s -> bank_array st (planes_arr s) cfg.cfg_planes)
        acc_names;
      let zeroing =
        List.concat_map
          (fun s ->
            List.init cfg.cfg_planes (fun p ->
                Assign (Larr (planes_arr s, Int p), Int 0)))
          acc_names
      in
      (* Lane-parallel partial sums are banked into the plane array
         every [chunk] words so a lane (carry headroom included) can
         never overflow: chunk · (2^bits - 1) < 2^lane. *)
      let chunk =
        let max_chunk = (1 lsl cfg.cfg_lane) / (1 lsl cfg.cfg_bits) / 2 in
        min cfg.cfg_wpp (min 64 max_chunk)
      in
      if cfg.cfg_wpp mod chunk <> 0 then
        err "SWV reduction: %d plane words not divisible into %d-word chunks"
          cfg.cfg_wpp chunk;
      let wo = fresh_var st "wo" in
      let wi = fresh_var st "wi" in
      let sum_var s = "__wn_sum_" ^ s in
      let commit =
        reconstruct cfg (fun s p -> Load (planes_arr s, Int p)) acc_names commit
      in
      (* The plane's total stays in a register until the sweep ends, so
         the bank is one plain store rather than a read-modify-write of
         non-volatile memory. *)
      let stage p =
        List.map (fun s -> Decl (sum_var s, Int 0)) acc_names
        @ [ For
              {
                var = wo;
                lo = Int 0;
                hi = Int cfg.cfg_wpp;
                step = chunk;
                body =
                  partial_sums cfg accs ~wi ~n:chunk
                    (Binop
                       (Add, Binop (Add, Int (p * cfg.cfg_wpp), Var wo), Var wi))
                  @ List.map
                      (fun s ->
                        Aug_assign (Lvar (sum_var s), Add, lane_sum cfg s))
                      acc_names;
              } ]
        @ List.map
            (fun s -> Assign (Larr (planes_arr s, Int p), Var (sum_var s)))
            acc_names
      in
      prelude @ zeroing @ replicate ~commit (planes_msb_first cfg stage)

let swp ~vector_loads =
  lower_regions
    ~claims:(fun info -> exists_expr (asp_load info))
    (swp_region ~vector_loads)

let sqrt =
  lower_regions
    ~claims:(fun info body ->
      info.Sema.asp_outputs <> []
      && exists_expr (function Sqrt _ -> true | _ -> false) body)
    sqrt_region

(* The last sub-pass: a region that uses no annotated array is left as
   the precise build runs it, its body then its commit. *)
let swv =
  lower_regions
    ~claims:(fun _ _ -> true)
    (fun st ~commit body ->
      let asv_load = function
        | Load (arr, _) -> Sema.asv_spec st.info arr <> None
        | _ -> false
      in
      if exists_expr asv_load body then swv_region st ~commit body
      else body @ commit)
