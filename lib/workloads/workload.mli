(** The benchmark suite of Table I.

    Each workload bundles its WNC source (parameterised by the subword
    configuration), a deterministic input generator (fresh data per
    stream sample, standing in for sensor input), and a golden model
    that reproduces the kernel's integer semantics exactly — the precise
    build must match it bit for bit, which the test suite checks.

    Workloads come in two scales: [Small] keeps the whole evaluation
    fast enough for CI; [Paper] uses the paper's dimensions (128×128
    image with a 9×9 filter, 64×64 matrices). *)

type technique = Swp | Swv

type scale = Small | Paper

type cfg = { bits : int; provisioned : bool }

type t = {
  name : string;
  area : string;  (** Table I's "Area" column *)
  description : string;
  technique : technique;
  source : cfg -> string;  (** WNC source text *)
  fresh_inputs : Wn_util.Rng.t -> (string * int array) list;
      (** one input sample: element patterns per input array *)
  golden : (string * int array) list -> float array;
      (** reference output (exact integer semantics, as floats) *)
  output : string;  (** output array name *)
  out_count : int;
}

val output_values :
  t -> Wn_compiler.Compile.t -> Wn_mem.Memory.t -> float array
(** Decode the workload's output array from data memory (honouring the
    compiled layout and signedness) as floats comparable with
    [golden]. *)

val load_inputs :
  Wn_compiler.Compile.t -> Wn_mem.Memory.t -> (string * int array) list -> unit
(** Encode each input array per the compiled layout and place it in
    data memory. *)

val clear_output : t -> Wn_compiler.Compile.t -> Wn_mem.Memory.t -> unit
(** Zero the output array's storage (done between stream samples, as
    the device's runtime would before starting a new task). *)
