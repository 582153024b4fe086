type t = {
  clock_hz : float;
  cycle_energy : float;
  trace : Trace.t;
  capacitor : Capacitor.t;
  infinite : bool;
  per_tick : int; (* simulation cycles per trace tick, hoisted from the
                     per-call float round the seed paid *)
  mutable cycles : int;
  mutable outage_count : int;
  (* Core-drain accounting in integer cycles, not accumulated floats:
     [energy_consumed] is one multiply at read time, so a batched
     multi-instruction consume reports exactly the same energy as the
     per-instruction call sequence (no float summation-order drift). *)
  mutable consumed_cycles : int;
  (* Cached harvest segment: for cycle positions in
     [tick_base, tick_end) the trace delivers [tick_power] watts.
     Within-segment [consume] is then a multiply-add; the piecewise
     integration only runs when an instruction spans a tick boundary. *)
  mutable tick_base : int;
  mutable tick_end : int;
  mutable tick_power : float;
  (* Forced outages (fault injection): [cut] latches [forced_off] on an
     infinite supply, regardless of the clock, and [wait_for_power]
     restores power after a fixed off-period. *)
  mutable forced_off : bool;
  off_cycles : int; (* off-period served for a forced outage *)
}

let default_clock_hz = 24e6

let default_cycle_energy = 1.0e-9

let compute_per_tick clock_hz =
  int_of_float (Float.round (clock_hz *. Trace.sample_period_s))

(* Re-anchor the cached segment on the tick containing [t.cycles]. *)
let refresh_tick_cache t =
  let tick = t.cycles / t.per_tick in
  t.tick_base <- tick * t.per_tick;
  t.tick_end <- t.tick_base + t.per_tick;
  t.tick_power <- Trace.power_at_tick t.trace tick

(* The one record literal: every constructor below differs only in
   these arguments. *)
let make ~clock_hz ~cycle_energy ~trace ~capacitor ~infinite ~off_cycles =
  let t =
    {
      clock_hz;
      cycle_energy;
      trace;
      capacitor;
      infinite;
      per_tick = compute_per_tick clock_hz;
      cycles = 0;
      outage_count = 0;
      consumed_cycles = 0;
      tick_base = 0;
      tick_end = 0;
      tick_power = 0.0;
      forced_off = false;
      off_cycles;
    }
  in
  refresh_tick_cache t;
  t

let create ?(clock_hz = default_clock_hz) ?(cycle_energy = default_cycle_energy)
    ?(start_full = true) ~trace ~capacitor () =
  if
    not
      (clock_hz > 0.0 && Float.is_finite clock_hz && cycle_energy >= 0.0
      && Float.is_finite cycle_energy)
  then invalid_arg "Supply.create";
  if start_full then Capacitor.set_full capacitor;
  make ~clock_hz ~cycle_energy ~trace ~capacitor ~infinite:false ~off_cycles:0

let default_off_cycles = 24_000

(* Infinite supplies never read their trace to decide whether power is
   on, and never touch their capacitor: every capacitor use below sits
   behind [t.infinite] (a cut latches [forced_off] instead).  They all
   share this trace ([Trace.t] is immutable) and this capacitor (never
   written through an infinite supply, and not reachable from outside),
   so building a supply per injected point allocates no 1,000-sample
   trace and bisects no thresholds. *)
let infinite_trace = Trace.constant ~power:1.0 ~duration_s:1.0

let infinite_capacitor = Capacitor.create ()

let always_on ?(off_cycles = 0) () =
  if off_cycles < 0 then invalid_arg "Supply.always_on";
  make ~clock_hz:default_clock_hz ~cycle_energy:default_cycle_energy
    ~trace:infinite_trace ~capacitor:infinite_capacitor ~infinite:true
    ~off_cycles

let now_cycles t = t.cycles

let now_s t = float_of_int t.cycles /. t.clock_hz

let is_on t =
  (not t.forced_off) && (t.infinite || Capacitor.is_on t.capacitor)

(* Force a brown-out right now, regardless of stored energy.  On a
   capacitor-backed supply the injection empties the capacitor (the
   physical analogue of yanking the harvester mid-burst); on an infinite
   supply it sets [forced_off], which [wait_for_power] clears after
   serving [off_cycles]. *)
let cut t =
  if is_on t then begin
    if t.infinite then t.forced_off <- true
    else Capacitor.set_empty t.capacitor;
    t.outage_count <- t.outage_count + 1
  end

(* Harvest inflow over [start, start + cycles) cycles, integrated
   piecewise across trace-tick boundaries: a multi-cycle instruction
   (the 16-cycle MUL) that spans a burst edge must credit each segment
   at that segment's power, not the whole instruction at the starting
   tick's power.  Left-to-right summation, like each call to this
   function always performed. *)
let harvest_spanning t ~start ~finish =
  let per_tick = t.per_tick in
  let pos = ref start in
  let acc = ref 0.0 in
  while !pos < finish do
    let tick = !pos / per_tick in
    let seg_end = min finish ((tick + 1) * per_tick) in
    let seg = seg_end - !pos in
    acc :=
      !acc
      +. Trace.power_at_tick t.trace tick *. (float_of_int seg /. t.clock_hz);
    pos := seg_end
  done;
  !acc

let consume t ~cycles =
  if cycles < 0 then invalid_arg "Supply.consume";
  let start = t.cycles in
  let finish = start + cycles in
  t.cycles <- finish;
  t.consumed_cycles <- t.consumed_cycles + cycles;
  if t.infinite then not t.forced_off
  else begin
    let on =
      if start >= t.tick_base && finish <= t.tick_end then
        (* Whole burst inside the cached tick: one multiply-add of
           harvest, bit-identical to the one-segment integration
           (0.0 +. x = x), passed as the supply's own fields so that
           nothing is boxed. *)
        Capacitor.run t.capacitor ~power:t.tick_power ~clock_hz:t.clock_hz
          ~cycle_energy:t.cycle_energy ~cycles
      else begin
        let inflow = harvest_spanning t ~start ~finish in
        refresh_tick_cache t;
        Capacitor.harvest t.capacitor inflow;
        Capacitor.drain t.capacitor (float_of_int cycles *. t.cycle_energy);
        Capacitor.is_on t.capacitor
      end
    in
    if not on then t.outage_count <- t.outage_count + 1;
    on
  end

let wait_for_power t =
  if is_on t then 0
  else if t.forced_off then begin
    (* A forced outage (only an infinite supply latches one): serve the
       fixed off-period, then power returns.  The clock advance keeps
       downstream time accounting honest without modelling any recharge
       physics. *)
    t.cycles <- t.cycles + t.off_cycles;
    t.forced_off <- false;
    t.off_cycles
  end
  else begin
    let start = t.cycles in
    let limit = t.cycles + int_of_float (600.0 *. t.clock_hz) in
    let rec charge () =
      if is_on t then begin
        refresh_tick_cache t;
        t.cycles - start
      end
      else if t.cycles > limit then
        failwith "Supply.wait_for_power: trace cannot recharge the capacitor"
      else begin
        (* Integrate only to the next tick boundary: an outage that
           begins mid-tick charges for the remaining fraction of that
           tick at that tick's power, keeping the clock aligned to the
           trace instead of drifting by the mid-tick offset. *)
        let tick = t.cycles / t.per_tick in
        let boundary = (tick + 1) * t.per_tick in
        let seg = boundary - t.cycles in
        (* The core is off and draws nothing: the capacitor runs
           through the segment at zero cycle energy. *)
        ignore
          (Capacitor.run t.capacitor
             ~power:(Trace.power_at_tick t.trace tick)
             ~clock_hz:t.clock_hz ~cycle_energy:0.0 ~cycles:seg);
        t.cycles <- boundary;
        charge ()
      end
    in
    charge ()
  end

let outages t = t.outage_count

let energy_consumed t = float_of_int t.consumed_cycles *. t.cycle_energy

let never_cuts t = t.infinite

(* Margin covering the float rounding gap between one batched drain and
   the per-instruction drain sequence the guard stands in for: the
   sequence's total rounding error is at most one ulp per instruction,
   so sixteen whole cycles of headroom dwarfs it for any real block. *)
let assured_margin_cycles = 16

let assured t ~cycles =
  (not t.forced_off)
  && (t.infinite
     || Capacitor.affords t.capacitor ~cycle_energy:t.cycle_energy
          ~cycles:(cycles + assured_margin_cycles))
