(** A partition of the circuit's gates into disjoint modules, with the
    per-module aggregates the cost function needs maintained
    {e incrementally} under gate moves (the paper's §4.2: "costs are
    recomputed just for the modified modules").

    A partition always covers every gate (each gate belongs to exactly
    one module), so the only mutation is {!move_gates}: reassigning
    gates of one module to another module.  A module whose last gate moves away dies;
    dead module ids are never reused within one partition value. *)

type t

val create : Iddq_analysis.Charac.t -> assignment:int array -> t
(** [create ch ~assignment] builds a partition from a gate→module map.
    Module ids must be dense [0 .. k-1] with every id non-empty.
    Raises [Invalid_argument] otherwise.  The one-assignment case of
    {!create_many}. *)

val create_many :
  Iddq_analysis.Charac.t -> assignments:int array list -> t list
(** [create_many ch ~assignments] is [List.map (create ch) assignments]
    in one sweep: the S(M) totals of every assignment come from one
    {!Iddq_netlist.Graph_algo.multi_bfs_sweep}, a multi-source
    truncated BFS per 126 consecutive gate ids, on the workspace
    {!move_gates} keeps per domain.  Its cost is the union of each
    pass's balls, several times less than one BFS per gate on the
    ISCAS85 stand-ins.  Each assignment is validated as in
    {!create}. *)

val create_with_near :
  Iddq_analysis.Charac.t -> assignment:int array -> near:int array -> t
(** [create_with_near ch ~assignment ~near] is {!create} for a caller
    that already holds each module's in-horizon closeness
    [near.(m) = A(M)], the sum of [cutoff - S(g, h)] over the pairs of
    [M] within the separation horizon: S(M) is then
    [cutoff * |M|(|M| - 1)/2 - A(M)] with no BFS at all.  The
    assignment is validated as in {!create}; [near] is trusted (a
    wrong sum shows in {!check_consistent}).  Raises
    [Invalid_argument] unless [near] has one entry per module. *)

val copy : t -> t
(** Deep copy; the copy mutates independently. *)

val charac : t -> Iddq_analysis.Charac.t
val num_gates : t -> int

val num_modules : t -> int
(** Number of live (non-empty) modules, the paper's [K]. *)

val module_ids : t -> int list
(** Live module ids, ascending. *)

val module_of_gate : t -> int -> int
val assignment : t -> int array
(** Fresh copy of the gate→module map. *)

val size : t -> int -> int
(** Gate count of a module (0 if dead). *)

val members : t -> int -> int array
(** Gates of a module, ascending.  O(num_gates). *)

val move_gates : t -> int array -> target:int -> unit
(** [move_gates t gates ~target] moves every gate of [gates] — distinct
    gates that all sit in one module [A] — into the live module
    [target <> A], with the same result as moving them one by one with
    {!move_gate} in array order: the assignment, liveness, live count,
    S(M) totals and the float aggregates (updated gate by gate in that
    order) all match bit for bit.  [A] dies when the batch empties it.
    The S(M) deltas take one multi-source truncated BFS
    ({!Iddq_netlist.Graph_algo.multi_bfs_from}) per
    {!Iddq_netlist.Graph_algo.multi_width} gates, whose reports add
    into a per-module tally with the batch standing in a phantom
    module id meanwhile, on a workspace kept
    per domain: distinct partitions may move on distinct domains at
    once, but not from two threads of one domain.  An empty batch is
    a no-op.  Raises [Invalid_argument], before any state changes, on
    a gate out of range, a duplicate gate, gates of several modules, a
    target equal to their module, or a target that is not a live
    module. *)

val move_gate : t -> int -> int -> unit
(** [move_gate t g target] reassigns gate [g]: the one-gate case of
    {!move_gates}, except that moving a gate to its own module is a
    no-op. *)

(** {1 Mutation support} *)

val boundary_gates : t -> int -> int array
(** Gates of the module with at least one (undirected) neighbour gate
    outside the module. *)

val neighbour_modules : ?module_of:(int -> int) -> t -> int -> int list
(** Live modules other than the gate's own that contain an undirected
    neighbour of the gate, ascending.  [module_of] overrides the
    gate→module map the answer reads (default {!module_of_gate}): a
    mutation planner passes the partition seen through its pending
    moves. *)

(** {1 Aggregates} (per live module id) *)

val leakage : t -> int -> float
(** I_DDQ,nd of the module. *)

val max_transient_current : t -> int -> float
(** î_DD,max of the module (max of the current profile). *)

val current_profile : t -> int -> float array
(** Copy of the module's per-slot summed peak current. *)

val activity : t -> int -> int -> int
(** [activity t m slot] — n(t): gates of module [m] that can switch
    at [slot]. *)

val transient_at : t -> int -> int -> float
(** [transient_at t m slot] — the module's summed peak current at the
    slot, i(t) (allocation-free {!current_profile} lookup). *)

val rail_capacitance : t -> int -> float
val separation_total : t -> int -> int
(** The paper's S(M) for the module (pairwise separations, cutoff at
    the technology's [p]). *)

val discriminability : t -> int -> float
(** [d(M) = I_DDQ,th / I_DDQ,nd]. *)

val min_discriminability : t -> float
(** Minimum over live modules; [infinity] when no module. *)


(** {1 Whole-partition helpers} *)

val sensors : t -> (int * Iddq_bic.Sensor.t) list
(** Sized sensor per live module. *)

val check_consistent : t -> (unit, string) result
(** Recomputes every aggregate from scratch and compares with the
    incrementally maintained state (test hook). *)

val pp : Format.formatter -> t -> unit
(** One line per module: id, size, discriminability, î_DD,max. *)
