(* Tests for wn.faults: forced outages at exact instruction boundaries,
   the three-property crash-consistency oracle, the Block/Reference
   lockstep differential, and the suite-level sweep driver (wn.core
   Inject). *)

open Wn_isa
open Wn_machine
module Executor = Wn_runtime.Executor
module Faults = Wn_faults.Faults
module Inject = Wn_core.Inject

let r = Reg.r

(* A precise task: a counted loop that stores its progress word to NVM
   each iteration.  No skim points, so every injected outage must take
   the (b) convergence branch of the oracle. *)
let precise_program ?(iters = 40) () =
  Asm.assemble_exn
    [
      Asm.I (Instr.Mov_imm (r 0, 0));
      Asm.I (Instr.Mov_imm (r 2, 0));
      Asm.Label "loop";
      Asm.I (Instr.Alu_imm (Instr.Add, r 0, r 0, 1));
      Asm.I (Instr.Str { width = Instr.Word; rs = r 0; base = r 2; off = 0 });
      Asm.I (Instr.Cmp_imm (r 0, iters));
      Asm.I (Instr.B (Cond.Lt, "loop"));
      Asm.I Instr.Halt;
    ]

(* An anytime task: commit a coarse result, latch a skim target, then
   refine — storing intermediate values — and commit the exact result.
   Outages after the [Skm] must take the (c) anytime-commit branch. *)
let anytime_program ?(refine = 25) () =
  Asm.assemble_exn
    [
      Asm.I (Instr.Mov_imm (r 2, 0));
      Asm.I (Instr.Mov_imm (r 0, 1));
      Asm.I (Instr.Str { width = Instr.Word; rs = r 0; base = r 2; off = 0 });
      Asm.I (Instr.Skm "end");
      Asm.I (Instr.Mov_imm (r 1, 0));
      Asm.Label "refine";
      Asm.I (Instr.Mul (r 3, r 1, r 1));
      Asm.I (Instr.Str { width = Instr.Word; rs = r 3; base = r 2; off = 4 });
      Asm.I (Instr.Alu_imm (Instr.Add, r 1, r 1, 1));
      Asm.I (Instr.Cmp_imm (r 1, refine));
      Asm.I (Instr.B (Cond.Lt, "refine"));
      Asm.I (Instr.Mov_imm (r 0, 2));
      Asm.I (Instr.Str { width = Instr.Word; rs = r 0; base = r 2; off = 0 });
      Asm.Label "end";
      Asm.I Instr.Halt;
    ]

let scenario ?(policy = Executor.Clank Executor.default_clank) program =
  {
    Faults.fresh =
      (fun () ->
        let mem = Wn_mem.Memory.create ~size:256 in
        Machine.create ~program ~mem ());
    policy;
  }

(* --------------------------- profiling ----------------------------- *)

let test_profile_shapes () =
  let p = Faults.profile (scenario (precise_program ())) in
  (* 2 setup + 40 iterations x 4 + halt *)
  Alcotest.(check int) "retired" 163 p.Faults.retired;
  Alcotest.(check (option int)) "no skim" None p.Faults.first_skim;
  Alcotest.(check int) "one store per iteration" 40
    (Array.length p.Faults.store_boundaries);
  let a = Faults.profile (scenario (anytime_program ())) in
  Alcotest.(check (option int)) "skim latched at boundary 4" (Some 4)
    a.Faults.first_skim;
  Alcotest.(check int) "skm boundary recorded" 4 a.Faults.skm_boundaries.(0);
  (* The tiny program finishes inside the default watchdog period; with
     a short one, Clank's continuous-run checkpoints must be observed. *)
  let tight =
    Executor.Clank { Executor.default_clank with watchdog_period = 50 }
  in
  let w = Faults.profile (scenario ~policy:tight (anytime_program ())) in
  if Array.length w.Faults.checkpoint_boundaries = 0 then
    Alcotest.fail "Clank must checkpoint on the continuous profile run"

(* ------------------- exhaustive oracle sweeps ---------------------- *)

let exhaustive_sweep name sc =
  let p = Faults.profile sc in
  let boundaries = Array.init (p.Faults.retired - 1) (fun i -> i + 1) in
  let prefixes = (Faults.survey ~boundaries sc).Faults.sv_digests in
  let skims = ref 0 in
  Array.iteri
    (fun i boundary ->
      let result = Faults.run_point sc ~boundary in
      if result.Faults.outcome.Executor.skimmed then incr skims;
      let skim_ref = Faults.skim_reference sc ~boundary in
      match Faults.check ~profile:p ~prefix_digest:prefixes.(i) ~skim_ref result with
      | [] -> ()
      | v :: _ -> Alcotest.failf "%s, boundary %d: %s" name boundary v)
    boundaries;
  (p, !skims)

let test_exhaustive_precise () =
  List.iter
    (fun (pname, policy) ->
      let sc = scenario ~policy (precise_program ()) in
      let _, skims = exhaustive_sweep ("precise/" ^ pname) sc in
      Alcotest.(check int) (pname ^ ": no skim commits") 0 skims)
    [
      ("clank", Executor.Clank Executor.default_clank);
      ("nvp", Executor.Nvp Executor.default_nvp);
    ]

let test_exhaustive_anytime () =
  List.iter
    (fun (pname, policy) ->
      let sc = scenario ~policy (anytime_program ()) in
      let p, skims = exhaustive_sweep ("anytime/" ^ pname) sc in
      let first_skim = Option.get p.Faults.first_skim in
      (* Every boundary at or past the latch must commit via skim. *)
      Alcotest.(check int)
        (pname ^ ": skim commits")
        (p.Faults.retired - 1 - (first_skim - 1))
        skims)
    [
      ("clank", Executor.Clank Executor.default_clank);
      ("nvp", Executor.Nvp Executor.default_nvp);
    ]

(* The one-pass survey must report exactly what the old separate passes
   saw: a raw stepping pass for effects and digests, an executor run
   for checkpoint placement. *)
let test_survey_matches_raw_passes () =
  let policy =
    Executor.Clank { Executor.default_clank with watchdog_period = 50 }
  in
  let sc = scenario ~policy (anytime_program ()) in
  (* Raw pass: effects, final digest, prefix digests. *)
  let m = sc.Faults.fresh () in
  let stores = ref [] and skms = ref [] in
  let n = ref 0 in
  let boundaries = [| 1; 4; 5; 60; 100 |] in
  let digests = Array.make (Array.length boundaries) Digest.(string "") in
  let bi = ref 0 in
  while not (Machine.halted m) do
    Machine.step_fast m;
    incr n;
    if Machine.last_wrote_addr m >= 0 then stores := !n :: !stores;
    if Machine.last_was_skm m then skms := !n :: !skms;
    if !bi < Array.length boundaries && boundaries.(!bi) = !n then begin
      digests.(!bi) <- Wn_mem.Memory.digest (Machine.mem m);
      incr bi
    end
  done;
  (* Executor pass: continuous-run checkpoint placement. *)
  let m2 = sc.Faults.fresh () in
  let ckpts = ref [] in
  ignore
    (Executor.run ~policy
       ~on_event:(function
         | Executor.Checkpoint ->
             ckpts := Machine.instructions_retired m2 :: !ckpts
         | Executor.Outage | Executor.Restore | Executor.Skim_restore -> ())
       ~machine:m2 ~supply:(Wn_power.Supply.always_on ()) ());
  let s = Faults.survey ~boundaries ~keyframe_interval:16 sc in
  let p = s.Faults.sv_profile in
  Alcotest.(check int) "retired" !n p.Faults.retired;
  Alcotest.(check string) "final digest"
    (Digest.to_hex (Wn_mem.Memory.digest (Machine.mem m)))
    (Digest.to_hex p.Faults.final_digest);
  Alcotest.(check (array int)) "stores"
    (Array.of_list (List.rev !stores))
    p.Faults.store_boundaries;
  Alcotest.(check (array int)) "skms"
    (Array.of_list (List.rev !skms))
    p.Faults.skm_boundaries;
  Alcotest.(check (array int)) "checkpoints"
    (Array.of_list (List.rev !ckpts))
    p.Faults.checkpoint_boundaries;
  Alcotest.(check (array string)) "prefix digests"
    (Array.map Digest.to_hex digests)
    (Array.map Digest.to_hex s.Faults.sv_digests);
  (* The keyframe store covers every interval boundary before halt. *)
  (match s.Faults.sv_keyframes with
  | None -> Alcotest.fail "keyframes requested but not recorded"
  | Some kfs ->
      Alcotest.(check int) "frame count" ((!n - 1) / 16)
        (Array.length kfs.Faults.frames);
      Array.iteri
        (fun i kf ->
          Alcotest.(check int) "frame position" ((i + 1) * 16)
            kf.Faults.kf_retired)
        kfs.Faults.frames);
  Alcotest.check_raises "interval 0 rejected"
    (Invalid_argument "Faults.survey: keyframe_interval") (fun () ->
      ignore (Faults.survey ~keyframe_interval:0 sc))

(* A cut on the halting boundary lands on an already halted task: the
   run completes with no outage and no restore, as the continuous run
   does, on both engines, keyframed or not. *)
let test_outage_at_halting_boundary () =
  List.iter
    (fun (pname, program) ->
      let sc = scenario program in
      let s = Faults.survey ~keyframe_interval:8 sc in
      let p = s.Faults.sv_profile in
      List.iter
        (fun (label, keyframes) ->
          List.iter
            (fun engine ->
              let r =
                Faults.run_point ~engine ?keyframes sc ~boundary:p.Faults.retired
              in
              let what = pname ^ "/" ^ label in
              Alcotest.(check bool) (what ^ ": completed") true
                r.Faults.outcome.Executor.completed;
              Alcotest.(check int) (what ^ ": no outage") 0
                r.Faults.outcome.Executor.outage_count;
              Alcotest.(check bool) (what ^ ": no restore") true
                (r.Faults.restore = None);
              Alcotest.(check string) (what ^ ": final digest")
                (Digest.to_hex p.Faults.final_digest)
                (Digest.to_hex r.Faults.final_digest))
            [ Executor.Block; Executor.Reference ])
        [ ("scratch", None); ("keyframed", s.Faults.sv_keyframes) ])
    [ ("precise", precise_program ()); ("anytime", anytime_program ()) ]

(* Satellite regression: a boundary past the program's halt must be
   refused, not silently step a halted machine. *)
let test_skim_reference_past_halt () =
  List.iter
    (fun program ->
      let sc = scenario program in
      let p = Faults.profile sc in
      (* The last real boundary is fine (and is [None] after halt's
         retirement only when nothing is latched)... *)
      ignore (Faults.skim_reference sc ~boundary:p.Faults.retired);
      (* ...but one past it would step a halted machine. *)
      Alcotest.check_raises "past halt"
        (Invalid_argument "Faults.skim_reference: boundary past halt")
        (fun () ->
          ignore
            (Faults.skim_reference sc ~boundary:(p.Faults.retired + 1))))
    [ precise_program (); anytime_program () ]

(* -------------------- keyframe resume identity --------------------- *)

(* Every injected point resumed from a keyframe must agree with the
   same point replayed from scratch in everything: boundary, captured
   restore state, final memory digest and every outcome field.
   Additionally the two engines must agree bit-exactly with each other,
   keyframed or not.  Exercised across policies (incl. a tight Clank
   watchdog, so resumes cross live checkpoint/shadow state), builds and
   engines, at every boundary. *)
let test_keyframe_point_identity () =
  List.iter
    (fun (pname, policy, program) ->
      let sc = scenario ~policy program in
      let s = Faults.survey ~keyframe_interval:8 sc in
      let keyframes = Option.get s.Faults.sv_keyframes in
      let cache = Faults.skim_cache () in
      let p = s.Faults.sv_profile in
      for boundary = 1 to p.Faults.retired - 1 do
        let per_engine =
          List.map
            (fun engine ->
              let scratch = Faults.run_point ~engine sc ~boundary in
              let resumed = Faults.run_point ~engine ~keyframes sc ~boundary in
              if scratch <> resumed then
                Alcotest.failf "%s, boundary %d: keyframed point diverges" pname
                  boundary;
              (scratch, resumed))
            [ Executor.Block; Executor.Reference ]
        in
        (match per_engine with
        | [ (block_s, block_r); (ref_s, ref_r) ] ->
            if block_s <> ref_s || block_r <> ref_r then
              Alcotest.failf "%s, boundary %d: engines diverge" pname boundary
        | _ -> assert false);
        let scratch_ref = Faults.skim_reference sc ~boundary in
        let resumed_ref = Faults.skim_reference ~keyframes ~cache sc ~boundary in
        match (scratch_ref, resumed_ref) with
        | None, None -> ()
        | Some a, Some b when Digest.equal a b -> ()
        | _ ->
            Alcotest.failf "%s, boundary %d: keyframed skim reference diverges"
              pname boundary
      done)
    [
      ( "clank/anytime/tight",
        Executor.Clank { Executor.default_clank with watchdog_period = 50 },
        anytime_program () );
      ("clank/precise", Executor.Clank Executor.default_clank, precise_program ());
      ("nvp/anytime", Executor.Nvp Executor.default_nvp, anytime_program ());
    ]

(* [Faults.run_point ~keyframes] as a plain scan, from public calls
   only: restore the last frame before the boundary, cut there, and
   after the outage compare the machine against every frame, latest
   first, with [Machine.matches_state]; the first match that
   [Executor.rejoin] accepts is the rejoin.
   The store's rejoin index may skip a candidate only when it cannot
   match, so both must give the same point, every outcome field
   included, and stop at the same retired count. *)
let scan_point ~keyframes ~machine sc ~boundary =
  let frame =
    Array.fold_left
      (fun acc kf -> if kf.Faults.kf_retired < boundary then Some kf else acc)
      None keyframes.Faults.frames
  in
  let m = match frame with Some _ -> machine | None -> sc.Faults.fresh () in
  let resume =
    Option.map
      (fun kf ->
        Machine.restore m kf.Faults.kf_machine;
        kf.Faults.kf_exec)
      frame
  in
  let supply =
    Wn_power.Supply.always_on ~off_cycles:Wn_power.Supply.default_off_cycles ()
  in
  let restore = ref None and skimmed = ref false and rejoined = ref false in
  let on_event = function
    | Executor.Checkpoint | Executor.Outage -> ()
    | (Executor.Restore | Executor.Skim_restore) as e ->
        if e = Executor.Skim_restore then skimmed := true;
        if !restore = None then
          restore :=
            Some
              {
                Faults.at_retired = Machine.instructions_retired m;
                r_pc = Machine.pc m;
                r_regs = Array.init Reg.count (fun i -> Machine.reg m (r i));
                r_flags = Machine.flags m;
                r_mem_digest = Wn_mem.Memory.digest (Machine.mem m);
              }
  in
  let latest_first = List.rev (Array.to_list keyframes.Faults.frames) in
  let on_step live =
    if Machine.instructions_retired m = boundary then Wn_power.Supply.cut supply
    else if !restore <> None && not !skimmed then
      rejoined :=
        List.exists
          (fun kf ->
            Machine.matches_state m kf.Faults.kf_machine
            && Executor.rejoin live ~at:kf.Faults.kf_exec
                 ~final:keyframes.Faults.kf_final)
          latest_first
  in
  let outcome =
    Executor.run ~policy:sc.Faults.policy ~on_event ~on_step ?resume ~machine:m
      ~supply ()
  in
  {
    Faults.boundary;
    outcome;
    restore = !restore;
    final_digest =
      (if !rejoined then keyframes.Faults.kf_final_digest
       else Wn_mem.Memory.digest (Machine.mem m));
  }

let check_exact_rejoin name sc ~keyframes boundaries =
  let indexed = sc.Faults.fresh () and scanned = sc.Faults.fresh () in
  Array.iter
    (fun boundary ->
      let a = Faults.run_point ~keyframes ~machine:indexed sc ~boundary in
      let b = scan_point ~keyframes ~machine:scanned sc ~boundary in
      if a <> b then
        Alcotest.failf "%s, boundary %d: point differs from the scan" name boundary;
      if Machine.instructions_retired indexed <> Machine.instructions_retired scanned
      then Alcotest.failf "%s, boundary %d: rejoined at another step" name boundary)
    boundaries

let test_exact_rejoin_small () =
  List.iter
    (fun (pname, policy, program) ->
      let sc = scenario ~policy program in
      let s = Faults.survey ~keyframe_interval:8 sc in
      let retired = s.Faults.sv_profile.Faults.retired in
      check_exact_rejoin pname sc ~keyframes:(Option.get s.Faults.sv_keyframes)
        (Array.init (retired - 1) (fun i -> i + 1)))
    [
      ( "clank/anytime/tight",
        Executor.Clank { Executor.default_clank with watchdog_period = 50 },
        anytime_program () );
      ("clank/precise", Executor.Clank Executor.default_clank, precise_program ());
    ]

(* The auto-interval store of a default MatAdd sweep (anytime, 8-bit),
   under Clank and NVP: 200 boundaries spread over the whole run, on
   both sides of the first skim latch. *)
let matadd_store system =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "MatAdd" in
  let sc =
    Inject.scenario ~config:{ Inject.default_config with Inject.system } w
  in
  let retired = (Faults.profile sc).Faults.retired in
  let keyframe_interval = Faults.auto_keyframe_interval ~boundaries:(retired - 1) in
  let keyframes =
    Option.get (Faults.survey ~keyframe_interval sc).Faults.sv_keyframes
  in
  let boundaries = Array.init 200 (fun i -> 1 + (i * (retired - 2) / 199)) in
  (sc, keyframes, boundaries)

let test_exact_rejoin_matadd () =
  List.iter
    (fun (name, system) ->
      let sc, keyframes, boundaries = matadd_store system in
      check_exact_rejoin name sc ~keyframes boundaries)
    [
      ("MatAdd/clank", Wn_core.Intermittent.Clank);
      ("MatAdd/nvp", Wn_core.Intermittent.Nvp);
    ]

(* A small read/write-set buffer makes overflow checkpoints frequent,
   so a run that re-executes after an outage can reach a keyframe's
   machine state with other tracking state than the continuous run had
   there.  The rejoin must wait for the policy state to match as well:
   a keyframed point equals the from-scratch point in every field.
   MatAdd anytime@8 with a 4-entry buffer, at every 131st boundary, and
   Home precise@8 with a 3-entry buffer and a 250-cycle watchdog, at
   every 101st. *)
let test_exact_rejoin_small_buffers () =
  List.iter
    (fun (name, skim, clank, stride) ->
      let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small name in
      let sc =
        {
          (Inject.scenario ~config:{ Inject.default_config with Inject.skim } w) with
          Faults.policy = Executor.Clank clank;
        }
      in
      let retired = (Faults.profile sc).Faults.retired in
      let keyframe_interval =
        Faults.auto_keyframe_interval ~boundaries:(retired - 1)
      in
      let keyframes =
        Option.get (Faults.survey ~keyframe_interval sc).Faults.sv_keyframes
      in
      let machine = sc.Faults.fresh () in
      let differ = ref [] and points = ref 0 in
      let boundary = ref 1 in
      while !boundary < retired do
        let scratch = Faults.run_point sc ~boundary:!boundary in
        if scratch <> Faults.run_point ~keyframes ~machine sc ~boundary:!boundary
        then differ := !boundary :: !differ;
        incr points;
        boundary := !boundary + stride
      done;
      match List.rev !differ with
      | [] -> ()
      | first :: _ ->
          Alcotest.failf "%s: %d of %d keyframed points differ, first at %d" name
            (List.length !differ) !points first)
    [
      ("MatAdd", true, { Executor.default_clank with buffer_entries = 4 }, 131);
      ( "Home",
        false,
        { Executor.default_clank with buffer_entries = 3; watchdog_period = 250 },
        101 );
    ]

(* A keyframed point pays for what it changes: on one scratch machine a
   Clank point of exhaustive MatAdd allocates about 500 major words (386
   of them the resumed tracking planes, 3,076 bytes), where one word per
   word of data memory would cost over 12,000.  The runtime folds a
   domain's allocation counts into [Gc.quick_stat] at a minor
   collection, so one is forced before each reading; and a major cycle
   left running by earlier tests nearly doubles the count, so the heap
   is collected first. *)
let test_point_major_words () =
  let sc, keyframes, boundaries = matadd_store Wn_core.Intermittent.Clank in
  let machine = sc.Faults.fresh () in
  ignore (Faults.run_point ~keyframes ~machine sc ~boundary:boundaries.(0));
  let major_words () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words
  in
  let skims = ref 0 in
  Gc.full_major ();
  let before = major_words () in
  Array.iter
    (fun boundary ->
      let p = Faults.run_point ~keyframes ~machine sc ~boundary in
      if p.Faults.outcome.Executor.skimmed then incr skims)
    boundaries;
  let per_point =
    (major_words () -. before) /. float_of_int (Array.length boundaries)
  in
  if !skims = 0 || !skims = Array.length boundaries then
    Alcotest.failf "%d of %d points skim-committed: need both kinds" !skims
      (Array.length boundaries);
  if per_point > 1024.0 then
    Alcotest.failf "%.0f major words per point (at most 1,024)" per_point

(* The oracle itself must not be vacuous: feed it deliberately wrong
   references and require it to object. *)
let test_oracle_not_vacuous () =
  let sc = scenario (anytime_program ()) in
  let p = Faults.profile sc in
  let boundary = Option.get p.Faults.first_skim + 2 in
  let prefixes = (Faults.survey ~boundaries:[| boundary |] sc).Faults.sv_digests in
  let result = Faults.run_point sc ~boundary in
  let bogus = Digest.string "not the prefix image" in
  (match
     Faults.check ~profile:p ~prefix_digest:bogus
       ~skim_ref:(Faults.skim_reference sc ~boundary) result
   with
  | [] -> Alcotest.fail "oracle accepted a wrong prefix digest"
  | v -> Alcotest.(check bool) "flags (a)" true
           (List.exists (fun s -> String.length s >= 3 && String.sub s 0 3 = "(a)") v));
  (match
     Faults.check ~profile:p ~prefix_digest:prefixes.(0) ~skim_ref:(Some bogus)
       result
   with
  | [] -> Alcotest.fail "oracle accepted a wrong skim reference"
  | v -> Alcotest.(check bool) "flags (c)" true
           (List.exists (fun s -> String.length s >= 3 && String.sub s 0 3 = "(c)") v));
  Alcotest.check_raises "boundary 0 rejected" (Invalid_argument "Faults.run_point")
    (fun () -> ignore (Faults.run_point sc ~boundary:0))

(* ------------- Block/Reference lockstep differential ------------- *)

let test_lockstep_differential () =
  List.iter
    (fun (pname, policy, program) ->
      let sc = scenario ~policy program in
      let p = Faults.profile sc in
      for boundary = 1 to p.Faults.retired - 1 do
        let block = Faults.run_point ~engine:Executor.Block sc ~boundary in
        let refr = Faults.run_point ~engine:Executor.Reference sc ~boundary in
        if block.Faults.restore <> refr.Faults.restore then
          Alcotest.failf "%s, boundary %d: post-restore state diverges" pname
            boundary;
        if not (Digest.equal block.Faults.final_digest refr.Faults.final_digest)
        then
          Alcotest.failf "%s, boundary %d: final memory diverges" pname boundary;
        if block.Faults.outcome <> refr.Faults.outcome then
          Alcotest.failf "%s, boundary %d: outcomes diverge" pname boundary
      done)
    [
      ("clank/anytime", Executor.Clank Executor.default_clank, anytime_program ());
      ("nvp/anytime", Executor.Nvp Executor.default_nvp, anytime_program ());
      ("clank/precise", Executor.Clank Executor.default_clank, precise_program ());
    ]

(* ---------------------- suite-level sweeps ------------------------- *)

let test_sampled_matadd_sweep () =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "MatAdd" in
  let config = { Inject.default_config with differential = true } in
  let report = Inject.sweep ~jobs:1 ~mode:(Inject.Sampled 40) ~config w in
  Alcotest.(check (list (pair int string))) "oracle clean" []
    report.Inject.violations;
  if report.Inject.points < 40 then
    Alcotest.failf "sampler produced only %d points" report.Inject.points;
  if report.Inject.skim_commits = 0 then
    Alcotest.fail "anytime MatAdd sweep never hit a skim commit";
  (* Bit-identical across jobs values, including the rendered report. *)
  let render rep = Format.asprintf "%a" Inject.pp rep in
  let again = Inject.sweep ~jobs:2 ~mode:(Inject.Sampled 40) ~config w in
  Alcotest.(check string) "jobs=2 report identical" (render report) (render again);
  if report <> again then Alcotest.fail "jobs=2 report record diverged"

(* Delta keyframes exist to make dense frames cheap.  On the survey the
   default MatAdd sweep takes (anytime, 8-bit, Clank, auto interval) the
   delta store must be at most half the full-copy store — 0.76 vs
   5.70 MiB when this test was written; [Obj.reachable_words] counts a
   page the delta frames share once — and both must place the same
   frames and record the same final outcome. *)
let test_delta_store_smaller () =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "MatAdd" in
  let sc = Inject.scenario ~config:Inject.default_config w in
  let keyframe_interval =
    Faults.auto_keyframe_interval
      ~boundaries:(max 1 ((Faults.profile sc).Faults.retired - 1))
  in
  let store full_frames =
    Option.get (Faults.survey ~keyframe_interval ~full_frames sc).Faults.sv_keyframes
  in
  let delta = store false and full = store true in
  let frames kfs =
    Array.to_list (Array.map (fun f -> f.Faults.kf_retired) kfs.Faults.frames)
  in
  Alcotest.(check (list int)) "same frames" (frames full) (frames delta);
  if delta.Faults.kf_final <> full.Faults.kf_final then
    Alcotest.fail "delta and full-copy surveys end in different outcomes";
  let words kfs = Obj.reachable_words (Obj.repr kfs) in
  if 2 * words delta > words full then
    Alcotest.failf "delta store %d words, full-copy store %d words"
      (words delta) (words full)

(* The sweep report must be byte-identical with keyframes on or off —
   the interval is a pure replay-cost knob. *)
let test_sweep_keyframes_identical () =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "MatAdd" in
  let base = { Inject.default_config with keyframe_interval = 0 } in
  let off = Inject.sweep ~jobs:2 ~mode:(Inject.Sampled 40) ~config:base w in
  let render rep = Format.asprintf "%a" Inject.pp rep in
  (* Fixed interval, auto interval (the default), and full-copy frames
     are all pure replay-cost knobs: same report, byte for byte. *)
  List.iter
    (fun (label, config) ->
      let on = Inject.sweep ~jobs:2 ~mode:(Inject.Sampled 40) ~config w in
      Alcotest.(check string)
        (label ^ " rendered report identical")
        (render off) (render on);
      if off <> { on with Inject.config = base } then
        Alcotest.failf "%s sweep record diverged" label)
    [
      ("k=512", { base with Inject.keyframe_interval = 512 });
      ("auto", { base with Inject.keyframe_interval = Inject.auto_keyframe_interval });
      ( "full frames",
        {
          base with
          Inject.keyframe_interval = 512;
          Inject.delta_frames = false;
        } );
    ];
  Alcotest.check_raises "interval below the auto sentinel"
    (Invalid_argument "Inject.sweep") (fun () ->
      ignore
        (Inject.sweep ~jobs:1 ~mode:(Inject.Sampled 4)
           ~config:{ base with Inject.keyframe_interval = -2 }
           w))

let test_sampler_determinism () =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "MatAdd" in
  let config = { Inject.default_config with system = Wn_core.Intermittent.Nvp } in
  let a = Inject.sweep ~jobs:1 ~mode:(Inject.Sampled 12) ~config w in
  let b = Inject.sweep ~jobs:1 ~mode:(Inject.Sampled 12) ~config w in
  if a <> b then Alcotest.fail "same seed must give the same sweep";
  let c =
    Inject.sweep ~jobs:1 ~mode:(Inject.Sampled 12)
      ~config:{ config with sample_seed = config.Inject.sample_seed + 1 } w
  in
  if a.Inject.points = c.Inject.points && a = { c with Inject.config = a.Inject.config }
  then Alcotest.fail "different seed should move the sampled boundaries"

(* A sweep parks a scratch machine in the calling domain's slot of a
   per-call [Domain.DLS] key; it must empty that slot on the way out, or
   every sweep leaks one machine for the life of the process. *)
let test_sweep_releases_scratch () =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "MatAdd" in
  let config = Inject.default_config in
  let sweep () = ignore (Inject.sweep ~jobs:1 ~mode:(Inject.Sampled 5) ~config w) in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let machine_words =
    let b =
      Wn_core.Runner.build ~precise:(not config.Inject.skim) w
        { Wn_workloads.Workload.bits = config.Inject.bits; provisioned = true }
    in
    Obj.reachable_words (Obj.repr (Wn_core.Runner.machine b))
  in
  sweep ();
  let before = live () in
  for _ = 1 to 20 do
    sweep ()
  done;
  let grown = live () - before in
  if grown >= machine_words then
    Alcotest.failf "20 sweeps grew the live heap by %d words (one machine: %d)"
      grown machine_words

let () =
  Alcotest.run "wn.faults"
    [
      ( "mechanism",
        [
          Alcotest.test_case "profile shapes" `Quick test_profile_shapes;
          Alcotest.test_case "survey matches raw passes" `Quick
            test_survey_matches_raw_passes;
          Alcotest.test_case "outage at the halting boundary" `Quick
            test_outage_at_halting_boundary;
          Alcotest.test_case "skim reference past halt" `Quick
            test_skim_reference_past_halt;
        ] );
      ( "keyframes",
        [
          Alcotest.test_case "point identity (all boundaries)" `Quick
            test_keyframe_point_identity;
          Alcotest.test_case "delta store at most half a full copy" `Quick
            test_delta_store_smaller;
          Alcotest.test_case "exact rejoin (all boundaries)" `Quick
            test_exact_rejoin_small;
          Alcotest.test_case "exact rejoin (sampled MatAdd)" `Quick
            test_exact_rejoin_matadd;
          Alcotest.test_case "exact rejoin (small buffers)" `Quick
            test_exact_rejoin_small_buffers;
          Alcotest.test_case "major words per point" `Quick test_point_major_words;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exhaustive precise" `Quick test_exhaustive_precise;
          Alcotest.test_case "exhaustive anytime" `Quick test_exhaustive_anytime;
          Alcotest.test_case "not vacuous" `Quick test_oracle_not_vacuous;
        ] );
      ( "differential",
        [
          Alcotest.test_case "block vs reference lockstep" `Quick
            test_lockstep_differential;
        ] );
      ( "suite",
        [
          Alcotest.test_case "sampled MatAdd sweep" `Slow test_sampled_matadd_sweep;
          Alcotest.test_case "keyframes on/off identical" `Slow
            test_sweep_keyframes_identical;
          Alcotest.test_case "sampler determinism" `Slow test_sampler_determinism;
          Alcotest.test_case "sweeps release their scratch machine" `Slow
            test_sweep_releases_scratch;
        ] );
    ]
