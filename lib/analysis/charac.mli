(** Characterized circuit: the gate-level netlist annotated with the
    electrical data of the target cell library, plus the two derived
    structures every estimator needs — the per-gate {e transition-time
    sets} and the undirected gate graph.

    The transition-time set [T(g)] of the paper (§3.1) is the set of
    logic depths at which gate [g] can switch: the lengths of all
    input-to-[g] paths.  Inputs switch at time 0, so
    [T(g) = union over fanins f of (T(f) + 1)].  The estimators
    pessimistically assume that all gates sharing a possible
    transition time switch simultaneously.

    The sets are stored as bits in one flat [int] array of [w] words
    per gate, [w = depth / 63 + 1] on 64-bit platforms (a word holds
    all [Sys.int_size] bits of a native int): slot [s] of gate [g] is
    bit [s mod 63] of word [g * w + s / 63].  {!make} builds each set
    with one OR per fanin per word — slot 1 for an input fanin, the
    fanin's words shifted up one slot, the top bit carried into the
    next word, for a gate fanin — in one pass over the gates in id
    order. *)

type t

val make : library:Iddq_celllib.Library.t -> Iddq_netlist.Circuit.t -> t

val circuit : t -> Iddq_netlist.Circuit.t
val library : t -> Iddq_celllib.Library.t
val technology : t -> Iddq_celllib.Technology.t

val num_gates : t -> int

val depth : t -> int
(** Logic depth of the circuit = largest possible transition time. *)

val gate_depth : t -> int -> int
(** Depth (latest transition time) of a gate index. *)

(** {1 Per-gate electrical data} (indexed by gate index, already
    derated for the gate's fanin count) *)

val peak_current : t -> int -> float
val leakage : t -> int -> float
val delay : t -> int -> float
val drive_resistance : t -> int -> float
val output_capacitance : t -> int -> float
val rail_capacitance : t -> int -> float

(** {1 Transition times} *)

val can_switch_at : t -> int -> int -> bool
(** [can_switch_at t g slot] — may gate [g] switch at time [slot]
    (1-based: slot 0 is the primary inputs' transition)? *)

val iter_switch_slots : t -> int -> (int -> unit) -> unit
(** Iterate the transition times of a gate in increasing order. *)

val switch_slot_count : t -> int -> int
(** [|T(g)|]: one popcount per word. *)

(** {1 Drive selection}

    Dual-drive libraries offer a low-power variant of each cell
    ({!Iddq_celllib.Cell.low_power_variant}); the resynthesis pass
    swaps peak-defining gates with timing slack to the weak drive. *)

val with_low_power : t -> gates:int array -> t
(** A new characterization with the listed gates re-characterized as
    low-drive (idempotent per gate; other gates unchanged; transition
    times and graph structure are shared). *)

val is_low_power : t -> int -> bool

(** {1 Undirected view} *)

val undirected : t -> Iddq_netlist.Graph_algo.undirected
(** Cached undirected gate graph for separation queries. *)

val separation_cutoff : t -> int
(** The technology's [p]. *)
