open Wn_machine
open Wn_power
module Executor = Wn_runtime.Executor

type scenario = { fresh : unit -> Machine.t; policy : Executor.policy }

type profile = {
  retired : int;
  final_digest : Digest.t;
  first_skim : int option;
  store_boundaries : int array;
  skm_boundaries : int array;
  checkpoint_boundaries : int array;
}

(* A program that retires this many instructions is taken not to halt. *)
let max_steps = 1_000_000_000

let mem_digest m = Wn_mem.Memory.digest (Machine.mem m)

(* ---------------- the streaming survey pass ---------------- *)

type keyframe = {
  kf_retired : int;
  kf_machine : Machine.snapshot;
  kf_exec : Executor.resume_state;
}

(* The rejoin candidates at one PC: the keyframes recorded there,
   latest first (the order the probe scans them), and each one's value
   of [key], the register whose values differ most among them.  A
   candidate whose key value differs from the machine's cannot match,
   so one integer compare rules it out before [Machine.matches_state]
   runs. *)
type candidates = {
  key : Wn_isa.Reg.t;
  at_pc : keyframe array;
  key_vals : int array;
}

type rejoin_index = candidates array (* by PC *)

type keyframes = {
  interval : int;
  frames : keyframe array;
  kf_final : Executor.outcome;
  kf_final_digest : Digest.t;
  rejoin : rejoin_index;
}

let rejoin_index ~pcs frames =
  let by_pc = Array.make pcs [] in
  Array.iter
    (fun kf ->
      let pc = Machine.snapshot_pc kf.kf_machine in
      if pc >= 0 && pc < pcs then by_pc.(pc) <- kf :: by_pc.(pc))
    frames;
  Array.map
    (fun kfs ->
      let at_pc = Array.of_list kfs in
      let values r =
        Array.map (fun kf -> Machine.snapshot_reg kf.kf_machine r) at_pc
      in
      let spread =
        Array.init Wn_isa.Reg.count (fun i ->
            List.length
              (List.sort_uniq compare (Array.to_list (values (Wn_isa.Reg.r i)))))
      in
      let best = ref 0 in
      Array.iteri (fun i n -> if n > spread.(!best) then best := i) spread;
      let key = Wn_isa.Reg.r !best in
      { key; at_pc; key_vals = values key })
    by_pc

(* Denser-than-sqrt placement: with delta frames a keyframe costs
   O(pages dirtied per interval), so frames can be dense.  2·sqrt(n)
   keeps replay windows short on big runs without flooding the
   rejoin-probe candidate lists on small ones; the clamp bounds
   pathological run lengths. *)
let auto_keyframe_interval ~boundaries =
  let k = int_of_float (2.0 *. sqrt (float_of_int (max 1 boundaries))) in
  max 32 (min 4096 k)

type survey_result = {
  sv_profile : profile;
  sv_digests : Digest.t array;
  sv_keyframes : keyframes option;
}

(* Everything the planner, oracle and keyframe replayer need, gathered
   in ONE uninterrupted executor run under the scenario's policy: the
   per-step observer records store/SKM boundaries, takes the requested
   prefix digests and captures (machine snapshot, executor resume state)
   keyframes every [keyframe_interval] retired instructions, and the
   checkpoint event records the policy's checkpoint placement.  The
   machine-visible state stream of a policy-driven uninterrupted run is
   bit-identical to raw stepping (checkpoints only read the register
   file), so the recorded boundaries and digests equal the raw
   continuous run's. *)
let survey ?(boundaries = [||]) ?keyframe_interval ?(full_frames = false)
    scenario =
  (match keyframe_interval with
  | Some k when k < 1 -> invalid_arg "Faults.survey: keyframe_interval"
  | _ -> ());
  let count = Array.length boundaries in
  Array.iteri
    (fun i b ->
      if b < 1 || (i > 0 && b <= boundaries.(i - 1)) then
        invalid_arg "Faults.survey: boundaries")
    boundaries;
  let m = scenario.fresh () in
  let supply = Supply.always_on () in
  let stores = ref [] and skms = ref [] and ckpts = ref [] in
  let digests = Array.make count Digest.(string "") in
  let bi = ref 0 in
  let n = ref 0 in
  let frames = ref [] in
  let on_step live =
    incr n;
    if !n > max_steps && not (Machine.halted m) then
      failwith "Faults.survey: program did not halt";
    if Machine.last_wrote_addr m >= 0 then stores := !n :: !stores;
    if Machine.last_was_skm m then skms := !n :: !skms;
    if !bi < count && boundaries.(!bi) = !n then begin
      digests.(!bi) <- mem_digest m;
      incr bi
    end;
    match keyframe_interval with
    | Some k when !n mod k = 0 && not (Machine.halted m) ->
        (* Delta snapshots by default: the survey machine is the only
           writer of its memory, so consecutive keyframes share every
           page the program did not dirty in between and the store
           stays O(dirty).  [full_frames] keeps the old isolated-copy
           behaviour for comparison. *)
        let kf_machine = Machine.snapshot ~full:full_frames m in
        frames :=
          { kf_retired = !n; kf_machine; kf_exec = Executor.capture live }
          :: !frames
    | _ -> ()
  in
  let on_event = function
    | Executor.Checkpoint -> ckpts := Machine.instructions_retired m :: !ckpts
    | Executor.Outage | Executor.Restore | Executor.Skim_restore -> ()
  in
  let outcome =
    Executor.run ~policy:scenario.policy ~on_step ~on_event ~machine:m ~supply
      ()
  in
  if not outcome.Executor.completed then
    failwith "Faults.survey: program did not halt";
  if !bi < count then invalid_arg "Faults.survey: boundary past halt";
  let profile =
    {
      retired = !n;
      final_digest = mem_digest m;
      first_skim = (match List.rev !skms with [] -> None | b :: _ -> Some b);
      store_boundaries = Array.of_list (List.rev !stores);
      skm_boundaries = Array.of_list (List.rev !skms);
      checkpoint_boundaries = Array.of_list (List.rev !ckpts);
    }
  in
  {
    sv_profile = profile;
    sv_digests = digests;
    sv_keyframes =
      Option.map
        (fun interval ->
          let frames = Array.of_list (List.rev !frames) in
          {
            interval;
            frames;
            kf_final = outcome;
            kf_final_digest = profile.final_digest;
            rejoin =
              rejoin_index ~pcs:(Array.length (Machine.program m)) frames;
          })
        keyframe_interval;
  }

let profile scenario = (survey scenario).sv_profile

(* Largest frame at or before [retired_max] (frames ascend in
   kf_retired), or [None] if the store has nothing that early. *)
let frame_at_or_before kfs ~retired_max =
  let fr = kfs.frames in
  let lo = ref 0 and hi = ref (Array.length fr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fr.(mid).kf_retired <= retired_max then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None else Some fr.(!lo - 1)

type restore_state = {
  at_retired : int;
  r_pc : int;
  r_regs : int array;
  r_flags : Wn_isa.Cond.flags;
  r_mem_digest : Digest.t;
}

type point_result = {
  boundary : int;
  outcome : Executor.outcome;
  restore : restore_state option;
  final_digest : Digest.t;
}

let run_point ?(engine = Executor.Block)
    ?(off_cycles = Supply.default_off_cycles) ?keyframes ?machine scenario
    ~boundary =
  if boundary < 1 then invalid_arg "Faults.run_point";
  (* Resume from the nearest keyframe strictly before the boundary (the
     outage must still lie ahead, for the observer to see its
     instruction retire): the continuous prefix then costs at most
     [interval] steps instead of [boundary]. *)
  let frame =
    match keyframes with
    | None -> None
    | Some kfs -> frame_at_or_before kfs ~retired_max:(boundary - 1)
  in
  (* A caller-provided scratch machine is only usable when a keyframe is
     restored into it: [Machine.restore] overwrites every mutable field,
     so whatever a previous point left behind is irrelevant — and
     restoring along one keyframe chain into one machine costs only the
     pages that differ.  The scratch-replay path still needs a pristine
     [fresh] machine. *)
  let m =
    match (frame, machine) with
    | Some _, Some m -> m
    | _ -> scenario.fresh ()
  in
  let supply = Supply.always_on ~off_cycles () in
  let resume =
    Option.map
      (fun kf ->
        Machine.restore m kf.kf_machine;
        kf.kf_exec)
      frame
  in
  let restore = ref None in
  let outage_seen = ref false and skimmed = ref false in
  let on_event = function
    | Executor.Checkpoint | Executor.Outage -> ()
    | (Executor.Restore | Executor.Skim_restore) as e ->
        outage_seen := true;
        if e = Executor.Skim_restore then skimmed := true;
        if !restore = None then
          restore :=
            Some
              {
                at_retired = Machine.instructions_retired m;
                r_pc = Machine.pc m;
                r_regs =
                  Array.init Wn_isa.Reg.count (fun i ->
                      Machine.reg m (Wn_isa.Reg.r i));
                r_flags = Machine.flags m;
                r_mem_digest = mem_digest m;
              }
  in
  (* Rejoin: once the injected run is past the outage, the first instant
     its architectural state bit-matches a keyframe of the continuous run
     and its Clank policy state equals the keyframe's, the remainder is
     that run's remainder (the observer never cuts again), so the
     executor can stop and take the tail from the survey's recorded final
     outcome.  The gate on [outage_seen] keeps the prefix replay — which
     matches keyframes trivially — running normally, and a skim commit
     leaves the trajectory the keyframes describe, so the probe stops
     there rather than being paid on every commit-tail step.  Per
     post-outage step the probe reads the store's index at the current
     PC: a candidate whose key register differs cannot match, so
     [Machine.matches_state] runs only on key matches, in the index's
     scan order, and [Executor.rejoin] compares the policy state only on
     a state match; a refused candidate passes the probe to the next
     one.  The probe allocates nothing until it rejoins. *)
  let rejoined = ref false in
  let probe =
    match keyframes with
    | Some kfs ->
        let ix = kfs.rejoin in
        fun live ->
          let pc = Machine.pc m in
          if !outage_seen && (not !skimmed) && pc >= 0 && pc < Array.length ix
          then begin
            let c = ix.(pc) in
            let v = Machine.reg m c.key in
            let i = ref 0 in
            while !i < Array.length c.at_pc do
              let kf = c.at_pc.(!i) in
              if c.key_vals.(!i) = v
                 && Machine.matches_state m kf.kf_machine
                 && Executor.rejoin live ~at:kf.kf_exec ~final:kfs.kf_final
              then begin
                rejoined := true;
                i := Array.length c.at_pc
              end
              else incr i
            done
          end
    | None -> fun _ -> ()
  in
  (* The one outage trigger: cut the run's own supply the moment the
     task's [boundary]-th instruction retires; the executor takes the
     outage before the next instruction.  The retired count is
     task-absolute from a fresh machine and after a keyframe restore
     alike, and it only grows, so the cut fires once.  No outage has
     been seen by then, so the probe has nothing to do on that step. *)
  let on_step live =
    if Machine.instructions_retired m = boundary then Supply.cut supply
    else probe live
  in
  let outcome =
    Executor.run ~policy:scenario.policy ~engine ~on_event ~on_step ?resume
      ~machine:m ~supply ()
  in
  let final_digest =
    if !rejoined then
      match keyframes with
      | Some kfs -> kfs.kf_final_digest
      | None -> assert false
    else mem_digest m
  in
  { boundary; outcome; restore = !restore; final_digest }

(* The commit tail a skim reference executes is a pure function of the
   machine state right after the jump: under Clank the register file is
   scrubbed first, so the tail depends only on the memory image at the
   boundary and the latched target; under NVP / always-on the register
   file and flags survive the jump and join the key.  (The memo table
   and zero-skip shortcuts change only cycle counts, never values, and
   the returned digest covers memory alone.)  Consecutive boundaries
   share the key until a store or a fresh [Skm] changes it, so an
   exhaustive sweep computes a few thousand distinct tails instead of
   one per skim boundary.  The table is mutex-protected: results are
   deterministic, so concurrent duplicate computation is harmless and
   reports stay byte-identical at any pool width. *)
type skim_key = Digest.t * int * (int array * Wn_isa.Cond.flags) option

type skim_cache = {
  sc_mutex : Mutex.t;
  sc_tbl : (skim_key, Digest.t) Hashtbl.t;
}

let skim_cache () = { sc_mutex = Mutex.create (); sc_tbl = Hashtbl.create 256 }

let skim_reference ?keyframes ?cache ?prefix_digest ?machine scenario
    ~boundary =
  (* A keyframe at exactly [boundary] is usable here: the latched skim
     target is part of the snapshot. *)
  let frame =
    match keyframes with
    | None -> None
    | Some kfs -> frame_at_or_before kfs ~retired_max:boundary
  in
  (* Same scratch-machine contract as [run_point]: reusable only when a
     frame is restored over it. *)
  let m =
    match (frame, machine) with
    | Some _, Some m -> m
    | _ -> scenario.fresh ()
  in
  let start =
    match frame with
    | None -> 0
    | Some kf ->
        Machine.restore m kf.kf_machine;
        kf.kf_retired
  in
  for _ = start + 1 to boundary do
    if Machine.halted m then
      invalid_arg "Faults.skim_reference: boundary past halt";
    Machine.step_fast m
  done;
  match Machine.take_skim m with
  | None -> None
  | Some target ->
      let run_tail () =
        (match scenario.policy with
        | Executor.Clank _ ->
            Machine.scrub_volatile m;
            Machine.set_pc m target
        | Executor.Nvp _ | Executor.Always_on -> Machine.set_pc m target);
        let n = ref 0 in
        while not (Machine.halted m) do
          if !n >= max_steps then
            failwith "Faults.skim_reference: program did not halt";
          Machine.step_fast m;
          incr n
        done;
        mem_digest m
      in
      let digest =
        match cache with
        | None -> run_tail ()
        | Some c ->
            let mem_d =
              match prefix_digest with Some d -> d | None -> mem_digest m
            in
            let key : skim_key =
              match scenario.policy with
              | Executor.Clank _ -> (mem_d, target, None)
              | Executor.Nvp _ | Executor.Always_on ->
                  ( mem_d,
                    target,
                    Some
                      ( Array.init Wn_isa.Reg.count (fun i ->
                            Machine.reg m (Wn_isa.Reg.r i)),
                        Machine.flags m ) )
            in
            let hit =
              Mutex.lock c.sc_mutex;
              let r = Hashtbl.find_opt c.sc_tbl key in
              Mutex.unlock c.sc_mutex;
              r
            in
            (match hit with
            | Some d -> d
            | None ->
                let d = run_tail () in
                Mutex.lock c.sc_mutex;
                Hashtbl.replace c.sc_tbl key d;
                Mutex.unlock c.sc_mutex;
                d)
      in
      Some digest

let check ~profile ~prefix_digest ~skim_ref result =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let out = result.outcome in
  (* The injection itself must have behaved: one outage, at the exact
     boundary, and the run must have come back and finished. *)
  if out.Executor.outage_count <> 1 then
    fail "expected exactly one injected outage, saw %d" out.Executor.outage_count;
  if not out.Executor.completed then fail "run did not complete after restore";
  (match result.restore with
  | None -> if out.Executor.outage_count > 0 then fail "restore state not captured"
  | Some r ->
      if r.at_retired <> result.boundary then
        fail "outage struck at boundary %d, not the requested %d" r.at_retired
          result.boundary;
      (* (a) no torn state: NVM at restore is the continuous prefix image. *)
      if not (Digest.equal r.r_mem_digest prefix_digest) then
        fail "(a) NVM at restore differs from the continuous prefix image");
  let expect_skim =
    match profile.first_skim with
    | Some s -> s <= result.boundary
    | None -> false
  in
  if out.Executor.skimmed && not expect_skim then
    fail "(c) run skim-committed but no skim target was latched by boundary %d"
      result.boundary;
  if expect_skim && not out.Executor.skimmed then
    fail "(c) skim target was latched by boundary %d but the restore ignored it"
      result.boundary;
  if expect_skim && out.Executor.skimmed then begin
    match skim_ref with
    | Some d ->
        if not (Digest.equal result.final_digest d) then
          fail "(c) skim commit diverges from the anytime reference image"
    | None ->
        fail "(c) no reference skim image exists at boundary %d" result.boundary
  end
  else if out.Executor.completed
          && not (Digest.equal result.final_digest profile.final_digest)
  then
    (* (b) convergence: re-execution must land on the continuous-run
       final image bit-exactly. *)
    fail "(b) final NVM diverges from the continuous run";
  List.rev !violations
