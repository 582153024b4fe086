open Wn_workloads
module Executor = Wn_runtime.Executor
module Faults = Wn_faults.Faults
module Rng = Wn_util.Rng

type mode = Exhaustive | Sampled of int

type config = {
  system : Intermittent.system;
  skim : bool;
  bits : int;
  input_seed : int;
  sample_seed : int;
  off_cycles : int;
  differential : bool;
  keyframe_interval : int;
  delta_frames : bool;
  engine : Executor.engine;
}

(* [keyframe_interval] sentinels: 0 disables keyframes entirely
   (from-scratch replay); [auto_keyframe_interval] (-1) derives the
   interval from the surveyed boundary count. *)
let auto_keyframe_interval = -1

let default_config =
  {
    system = Intermittent.Clank;
    skim = true;
    bits = 8;
    input_seed = 5;
    sample_seed = 11;
    off_cycles = Wn_power.Supply.default_off_cycles;
    differential = false;
    keyframe_interval = auto_keyframe_interval;
    delta_frames = true;
    engine = Executor.Block;
  }

type report = {
  workload : string;
  config : config;
  retired : int;
  first_skim : int option;
  checkpoints_continuous : int;
  exhaustive : bool;
  points : int;
  boundaries : int array;
  skim_commits : int;
  violations : (int * string) list;
}

let policy_of config = Intermittent.policy config.system

(* The scenario shares one compiled build and one input sample across
   all injected runs (both immutable once made); each [fresh] call
   allocates its own machine and data memory, so pool domains never
   share mutable state. *)
let scenario ~config (w : Workload.t) =
  let cfg = { Workload.bits = config.bits; provisioned = true } in
  let b = Runner.build ~precise:(not config.skim) w cfg in
  let inputs = w.Workload.fresh_inputs (Rng.create config.input_seed) in
  let fresh () =
    let m = Runner.machine b in
    Runner.load_sample b m inputs;
    m
  in
  { Faults.fresh; policy = policy_of config }

(* Stratified boundary sampling.  Anchors (first/last boundary, the
   first-skim edge) are always in; the rest draws half uniform, half
   from ±2-instruction neighbourhoods of stores, checkpoints and SKMs —
   the places restore bugs live.  Deterministic in the seed: candidates
   go through a hash set for dedup but the result is sorted. *)
let plan ~mode ~seed (p : Faults.profile) =
  let hi = p.Faults.retired - 1 in
  if hi < 1 then [||]
  else
    match mode with
    | Exhaustive -> Array.init hi (fun i -> i + 1)
    | Sampled count ->
        let count = max 1 (min count hi) in
        let tbl = Hashtbl.create (4 * count) in
        let add b = if b >= 1 && b <= hi then Hashtbl.replace tbl b () in
        add 1;
        add hi;
        (match p.Faults.first_skim with
        | Some s ->
            add (s - 1);
            add s;
            add (s + 1)
        | None -> ());
        let rng = Rng.create seed in
        let near arr =
          arr.(Rng.int rng (Array.length arr)) + Rng.int rng 5 - 2
        in
        let stores = p.Faults.store_boundaries in
        let ckpts = p.Faults.checkpoint_boundaries in
        let skms = p.Faults.skm_boundaries in
        let attempts = ref 0 in
        let max_attempts = (50 * count) + 100 in
        while Hashtbl.length tbl < count && !attempts < max_attempts do
          incr attempts;
          let bucket = Rng.int rng 4 in
          let b =
            if bucket <= 1 then 1 + Rng.int rng hi
            else if bucket = 2 && Array.length stores > 0 then near stores
            else if Array.length ckpts > 0 && (Array.length skms = 0 || Rng.bool rng)
            then near ckpts
            else if Array.length skms > 0 then near skms
            else 1 + Rng.int rng hi
          in
          add b
        done;
        let out = Hashtbl.fold (fun b () acc -> b :: acc) tbl [] in
        Array.of_list (List.sort compare out)

let same_restore (a : Faults.restore_state) (b : Faults.restore_state) =
  a.Faults.at_retired = b.Faults.at_retired
  && a.Faults.r_pc = b.Faults.r_pc
  && a.Faults.r_regs = b.Faults.r_regs
  && a.Faults.r_flags = b.Faults.r_flags
  && Digest.equal a.Faults.r_mem_digest b.Faults.r_mem_digest

(* Lockstep differential: the point re-run on the reference engine (every
   instruction through the ISA spec) must report the same post-restore
   machine/memory state and the same outcome. *)
let differential_violations (a : Faults.point_result) (b : Faults.point_result) =
  let v = ref [] in
  (match (a.Faults.restore, b.Faults.restore) with
  | Some ra, Some rb ->
      if not (same_restore ra rb) then
        v := "differential: reference post-restore state differs" :: !v
  | None, None -> ()
  | _ ->
      v := "differential: reference disagrees on whether an outage fired" :: !v);
  if not (Digest.equal a.Faults.final_digest b.Faults.final_digest) then
    v := "differential: reference final memory differs" :: !v;
  if a.Faults.outcome <> b.Faults.outcome then
    v := "differential: reference outcome record differs" :: !v;
  List.rev !v

let sweep ?(jobs = 1) ~mode ~config (w : Workload.t) =
  if config.keyframe_interval < -1 then invalid_arg "Inject.sweep";
  let scen = scenario ~config w in
  (* Two streaming passes: one to learn the run's shape (the planner
     needs it to place boundaries), one to take the planned prefix
     digests and — when enabled — the keyframe store.  The store is
     immutable from here on and shared read-only by every pool domain;
     each injected point deep-copies the frame it resumes from into its
     own machine. *)
  let prof = Faults.profile scen in
  let boundaries = plan ~mode ~seed:config.sample_seed prof in
  let keyframe_interval =
    if config.keyframe_interval = 0 then None
    else if config.keyframe_interval = auto_keyframe_interval then
      Some
        (Faults.auto_keyframe_interval
           ~boundaries:(max 1 (prof.Faults.retired - 1)))
    else Some config.keyframe_interval
  in
  let s =
    Faults.survey ~boundaries ?keyframe_interval
      ~full_frames:(not config.delta_frames) scen
  in
  let prefixes = s.Faults.sv_digests in
  let keyframes = s.Faults.sv_keyframes in
  (* Skim-commit tails repeat between stores; the cache computes each
     distinct tail once per sweep.  Part of the keyframe fast path:
     [keyframe_interval = 0] keeps the plain from-scratch replay. *)
  let skim_cache =
    Option.map (fun _ -> Faults.skim_cache ()) keyframes
  in
  (* One long-lived scratch machine per pool domain: every keyframed
     point restores a frame over it (clobbering all state), so restores
     along the chain cost only the pages that differ instead of a fresh
     machine plus a full-image copy per point.  Purely an allocation
     saving — results are bit-identical with or without it.  The key is
     new per call and the calling domain outlives the sweep, so its
     slot is emptied on the way out: otherwise every call would park
     one machine there for the life of the process. *)
  let scratch_key = Domain.DLS.new_key (fun () -> None) in
  let scratch () =
    match keyframes with
    | None -> None
    | Some _ -> (
        match Domain.DLS.get scratch_key with
        | Some _ as m -> m
        | None ->
            let m = scen.Faults.fresh () in
            Domain.DLS.set scratch_key (Some m);
            Some m)
  in
  let verdicts =
    Fun.protect ~finally:(fun () -> Domain.DLS.set scratch_key None)
    @@ fun () ->
    Wn_exec.Pool.map ~jobs
      (fun i ->
        let boundary = boundaries.(i) in
        let machine = scratch () in
        let res =
          Faults.run_point ~engine:config.engine ~off_cycles:config.off_cycles
            ?keyframes ?machine scen ~boundary
        in
        let expect_skim =
          match prof.Faults.first_skim with
          | Some s -> s <= boundary
          | None -> false
        in
        let skim_ref =
          if expect_skim then
            Faults.skim_reference ?keyframes ?cache:skim_cache
              ~prefix_digest:prefixes.(i) ?machine scen ~boundary
          else None
        in
        let vs =
          Faults.check ~profile:prof ~prefix_digest:prefixes.(i) ~skim_ref res
        in
        let vs =
          if config.differential then
            let res' =
              Faults.run_point ~engine:Executor.Reference
                ~off_cycles:config.off_cycles ?keyframes ?machine scen ~boundary
            in
            vs @ differential_violations res res'
          else vs
        in
        (res.Faults.outcome.Executor.skimmed, List.map (fun m -> (boundary, m)) vs))
      (List.init (Array.length boundaries) Fun.id)
  in
  let skim_commits =
    List.fold_left (fun acc (s, _) -> if s then acc + 1 else acc) 0 verdicts
  in
  {
    workload = w.Workload.name;
    config;
    retired = prof.Faults.retired;
    first_skim = prof.Faults.first_skim;
    checkpoints_continuous = Array.length prof.Faults.checkpoint_boundaries;
    exhaustive = (match mode with Exhaustive -> true | Sampled _ -> false);
    points = Array.length boundaries;
    boundaries;
    skim_commits;
    violations = List.concat_map snd verdicts;
  }

let pp ppf r =
  Format.fprintf ppf "fault sweep: %s system=%s build=%s bits=%d@\n" r.workload
    (Intermittent.system_name r.config.system)
    (if r.config.skim then "anytime" else "precise")
    r.config.bits;
  Format.fprintf ppf "  continuous run: %d instructions" r.retired;
  (match r.first_skim with
  | Some s -> Format.fprintf ppf ", first skim latched at %d" s
  | None -> Format.fprintf ppf ", no skim point");
  Format.fprintf ppf ", %d checkpoints@\n" r.checkpoints_continuous;
  Format.fprintf ppf "  points: %d %s" r.points
    (if r.exhaustive then "(exhaustive)"
     else Printf.sprintf "(sampled, seed %d)" r.config.sample_seed);
  Format.fprintf ppf " of %d boundaries; %d skim commits%s@\n"
    (max 0 (r.retired - 1))
    r.skim_commits
    (if r.config.differential then "; differential vs reference" else "");
  match r.violations with
  | [] -> Format.fprintf ppf "  oracle: PASS@\n"
  | vs ->
      Format.fprintf ppf "  oracle: %d violation%s@\n" (List.length vs)
        (if List.length vs = 1 then "" else "s");
      List.iter
        (fun (b, m) -> Format.fprintf ppf "    boundary %d: %s@\n" b m)
        vs
