(** Result-typed ATPG facade: stuck-at test-set generation (random
    vectors + PODEM top-up with fault dropping) and minimization, in
    one validated call.

    This module follows the library's facade conventions
    ({!Iddq.Pipeline}): build configurations with the {!val-config}
    builder, call the [*_result] entry points and match on the
    structured {!error}; there is no raising variant.  Callers
    (the CLI [testset] subcommand, the server's [testset] request, the
    bench) go through this module — never through the raw {!Podem} /
    {!Testset} entry points, which may raise on malformed input. *)

type strategy = Testset.strategy = Greedy | Essential | Refined
(** Minimization strategies — see {!Testset.strategy}. *)

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

(** {1 Configuration} *)

type config = private {
  max_backtracks : int;  (** Per-target PODEM backtrack limit. *)
  budget : int option;
      (** Cap on PODEM target attempts; [None] = unlimited.  A run
          that exhausts its budget with faults still untargeted
          returns [Error (Budget_exhausted _)]. *)
  strategy : strategy;
  seed : int;  (** Drives the random vectors and don't-care filling. *)
  random_vectors : int;  (** Random vectors before the PODEM top-up. *)
}
(** Read-only outside this module: build one with the {!val-config}
    builder, which keeps every omitted field at its default. *)

val config :
  ?max_backtracks:int ->
  ?budget:int ->
  ?strategy:strategy ->
  ?seed:int ->
  ?random_vectors:int ->
  unit ->
  config
(** [config ()] is {!default_config}; each label overrides one field.
    Validation happens at the entry points (so a hand-built bad config
    yields [Error (Bad_config _)], never a raise). *)

val default_config : config
(** 2000 backtracks, unlimited budget, [Refined] strategy, seed 42,
    32 random vectors. *)

(** {1 Structured errors} *)

type error =
  | Empty_fault_list  (** No faults to target (e.g. an empty circuit). *)
  | Bad_config of string
      (** Non-positive backtrack limit or budget, negative random
          vector count. *)
  | Fault_mismatch of string
      (** A fault does not fit the circuit: stem node id out of range,
          pin fault on a non-gate node, pin index beyond the gate's
          fanin count. *)
  | Budget_exhausted of { targeted : int; remaining : int }
      (** The PODEM attempt budget ran out with [remaining] faults
          still untargeted after [targeted] attempts. *)
  | Internal of string  (** A pass failed in an unclassified way. *)

val error_to_string : error -> string

(** {1 Result-typed entry points} *)

type set_result = {
  vectors : bool array array;
      (** The minimized test set (rows of the generated set selected
          by [selected], in ascending original order). *)
  all_vectors : bool array array;
      (** The full generated set pre-minimization ([selected] indexes
          into it). *)
  selected : int array;  (** Kept vector indices into the full set. *)
  vectors_before : int;  (** Size of the generated set pre-minimization. *)
  coverage : float;
      (** Fault coverage — identical for the full and minimized sets
          (every strategy preserves coverage). *)
  efficiency : float;  (** (Detected + proven untestable) / total. *)
  stats : Testset.stats;
  matrix : Iddq_defects.Coverage.detection_matrix;
      (** Full-set detection matrix (for re-minimizing under another
          strategy without regenerating). *)
  strategy : strategy;  (** The strategy that produced [selected]. *)
}

val generate_result :
  ?config:config ->
  Iddq_netlist.Circuit.t ->
  Iddq_defects.Stuck_at.fault list ->
  (set_result, error) result
(** Validate the configuration and every fault against the circuit,
    run the generation loop ({!Testset.generate}) and minimize with
    the configured strategy.  Never raises on bad input. *)

val run_result :
  ?config:config -> Iddq_netlist.Circuit.t -> (set_result, error) result
(** {!generate_result} on the circuit's equivalence-collapsed fault
    list ({!Iddq_defects.Stuck_at.collapsed_fault_list}) — the
    standard whole-circuit entry point. *)

val minimize_result :
  ?strategy:strategy ->
  Iddq_defects.Coverage.detection_matrix ->
  (int array, error) result
(** Re-minimize an existing detection matrix (e.g. {!set_result}
    [.matrix] under a different strategy, or the server's cached
    matrix).  Default strategy: {!default_config}'s. *)
