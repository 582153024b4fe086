type t = {
  clock_hz : float;
  cycle_energy : float;
  drain_rate : int; (* [cycle_energy] in fJ, at most one full charge *)
  trace : Trace.t;
  capacitor : Capacitor.t;
  saturated : int; (* one past the capacitor's full charge *)
  infinite : bool;
  per_tick : int; (* simulation cycles per trace tick, hoisted from the
                     per-call float round the seed paid *)
  mutable cycles : int;
  mutable outage_count : int;
  (* Core-drain accounting in integer cycles: [energy_consumed] is one
     multiply at read time, so a batched multi-instruction consume
     reports exactly the same energy as the per-instruction call
     sequence. *)
  mutable consumed_cycles : int;
  (* Cached harvest segment: up to [tick_end], the end of the tick
     containing the clock, the trace delivers [tick_rate] fJ per cycle.
     Within-tick [consume] is then one multiply; the piecewise
     integration only runs when a span crosses a tick boundary. *)
  mutable tick_end : int;
  mutable tick_rate : int;
  (* Forced outages (fault injection): [cut] latches [forced_off] on an
     infinite supply, regardless of the clock, and [wait_for_power]
     restores power after a fixed off-period. *)
  mutable forced_off : bool;
  off_cycles : int; (* off-period served for a forced outage *)
}

let default_clock_hz = 24e6

let default_cycle_energy = 1.0e-9

(* [wait_for_power] gives up on a trace that cannot recharge the
   capacitor within this much simulated time. *)
let recharge_window_s = 600.0

let compute_per_tick clock_hz =
  int_of_float (Float.round (clock_hz *. Trace.sample_period_s))

(* A per-cycle energy in fJ, rounded once, saturated at one full charge
   per cycle: any larger rate clamps every span the same way. *)
let per_cycle capacitor joules =
  Int.min (Capacitor.femtojoules joules) (Capacitor.full capacitor)

let harvest_rate t tick =
  per_cycle t.capacitor (Trace.power_at_tick t.trace tick /. t.clock_hz)

(* [rate] fJ per cycle over [cycles] cycles, saturated at one past a
   full charge, where every larger amount clamps the same way; it never
   overflows.  Below 2^30 each the product fits in 60 bits; otherwise a
   quotient decides whether it stays below the limit. *)
let over t ~rate ~cycles =
  let limit = t.saturated in
  if rate lor cycles < 1 lsl 30 || rate = 0 || cycles <= limit / rate then begin
    let e = rate * cycles in
    if e < limit then e else limit
  end
  else limit
[@@inline]

(* Re-anchor the cached segment on the tick containing [t.cycles]. *)
let refresh_tick_cache t =
  let tick = t.cycles / t.per_tick in
  t.tick_end <- (tick + 1) * t.per_tick;
  t.tick_rate <- harvest_rate t tick

(* The one record literal: every constructor below differs only in
   these arguments. *)
let make ~clock_hz ~cycle_energy ~trace ~capacitor ~infinite ~off_cycles =
  let t =
    {
      clock_hz;
      cycle_energy;
      drain_rate = per_cycle capacitor cycle_energy;
      trace;
      capacitor;
      saturated = Capacitor.full capacitor + 1;
      infinite;
      per_tick = compute_per_tick clock_hz;
      cycles = 0;
      outage_count = 0;
      consumed_cycles = 0;
      tick_end = 0;
      tick_rate = 0;
      forced_off = false;
      off_cycles;
    }
  in
  refresh_tick_cache t;
  t

let create ?(clock_hz = default_clock_hz) ?(cycle_energy = default_cycle_energy)
    ?(start_full = true) ~trace ~capacitor () =
  (* A trace tick of at least one cycle (the clock is divided by it)
     and a recharge window that fits an int: 500 Hz to about 7.7e15 Hz.
     NaN fails every comparison. *)
  if
    not
      (clock_hz *. Trace.sample_period_s >= 0.5
      && recharge_window_s *. clock_hz < 0x1p62
      && cycle_energy >= 0.0
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
   trace and builds no capacitor. *)
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

(* Harvest inflow over [start, finish), integrated piecewise across
   trace-tick boundaries: a multi-cycle instruction (the 16-cycle MUL)
   that spans a burst edge must credit each segment at that segment's
   rate, not the whole instruction at the starting tick's.  Integer
   sums split exactly at any boundary, so the total is the sum of any
   partition's totals; it saturates one past a full charge, like each
   segment's. *)
let harvest_spanning t ~start ~finish =
  let pos = ref start in
  let acc = ref 0 in
  while !pos < finish do
    let tick = !pos / t.per_tick in
    let seg_end = Int.min finish ((tick + 1) * t.per_tick) in
    let seg = over t ~rate:(harvest_rate t tick) ~cycles:(seg_end - !pos) in
    acc := Int.min t.saturated (!acc + seg);
    pos := seg_end
  done;
  !acc

(* Harvest over the next [cycles] cycles from the clock.  On a
   capacitor-backed supply every call that moves the clock re-anchors
   the cache once the clock leaves its tick, so a span that ends inside
   that tick takes one multiply. *)
let harvest_ahead t ~cycles =
  let finish = t.cycles + cycles in
  if finish <= t.tick_end then
    over t ~rate:t.tick_rate ~cycles
  else harvest_spanning t ~start:t.cycles ~finish
[@@inline]

let consume t ~cycles =
  if cycles < 0 then invalid_arg "Supply.consume";
  t.consumed_cycles <- t.consumed_cycles + cycles;
  if t.infinite then begin
    t.cycles <- t.cycles + cycles;
    not t.forced_off
  end
  else begin
    let harvest = harvest_ahead t ~cycles in
    t.cycles <- t.cycles + cycles;
    if t.cycles >= t.tick_end then refresh_tick_cache t;
    let on =
      Capacitor.charge t.capacitor ~harvest
        ~drain:(over t ~rate:t.drain_rate ~cycles)
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
    let limit = t.cycles + int_of_float (recharge_window_s *. t.clock_hz) in
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
           tick at that tick's rate, keeping the clock aligned to the
           trace instead of drifting by the mid-tick offset.  The core
           is off and draws nothing. *)
        let tick = t.cycles / t.per_tick in
        let boundary = (tick + 1) * t.per_tick in
        let harvest =
          over t ~rate:(harvest_rate t tick) ~cycles:(boundary - t.cycles)
        in
        ignore (Capacitor.charge t.capacitor ~harvest ~drain:0);
        t.cycles <- boundary;
        charge ()
      end
    in
    charge ()
  end

let outages t = t.outage_count

let energy_consumed t = float_of_int t.consumed_cycles *. t.cycle_energy

let never_cuts t = t.infinite

(* The longest span inside the cached tick whose harvest at
   [tick_rate] cannot take stored energy past full charge even with
   zero drain, and whose drain at [drain_rate] cannot take it below
   brown-out even with zero harvest.  No clamp fires within it, so
   integer harvest and drain reassociate: one [consume] of up to
   [lease t] cycles equals any split of them into consecutive
   consumes, energy, latch, clock and outage count alike.  An on latch
   holds at least [off_below], so neither quotient is negative. *)
let lease t =
  if t.forced_off then 0
  else if t.infinite then max_int
  else if not (Capacitor.is_on t.capacitor) then 0
  else begin
    let stored = Capacitor.energy t.capacitor in
    let n = t.tick_end - t.cycles in
    let n =
      if t.tick_rate = 0 then n
      else Int.min n ((Capacitor.full t.capacitor - stored) / t.tick_rate)
    in
    if t.drain_rate = 0 then n
    else Int.min n ((stored - Capacitor.off_below t.capacitor) / t.drain_rate)
  end
