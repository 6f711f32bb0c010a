(** Immutable gate-level circuit graph.

    A circuit is a DAG of [n] nodes.  Node ids [0 .. num_inputs-1] are
    the primary inputs; node ids [num_inputs .. n-1] are gates, stored
    in topological order (every fanin of a node has a smaller id).
    Gates additionally carry a dense {e gate index} in
    [0 .. num_gates-1]; the partitioning machinery works on gate
    indices.  Use {!Builder} to construct circuits.

    Internally the graph is stored in CSR (structure-of-arrays) form:
    gate kinds as one byte per node, fanins and fanouts as flat
    offsets+targets [int] arrays.

    Construction also levelizes the circuit once: every primary input
    sits at level 0 and every gate at one plus the deepest level of its
    fanins, so the gates of one level are pairwise independent.  The
    levels index the cost model's transition-time slots, seeding's
    depth order, PODEM's event queue and the striped simulator's
    level-parallel sweep; all of them read them here.

    Every pass walks the netlist one way: a
    [for id = num_inputs c to num_nodes c - 1] loop (gates in
    topological order) that reads each gate's fanins, in stored order,
    from the {!Csr} arrays without allocating, or through
    {!iter_fanins} / {!iter_fanouts}.  The copying views {!node},
    {!fanins} and {!fanouts} are for the netlist writers and tests. *)

type node = Input | Gate of Gate.kind * int array
(** A node is a primary input or a gate with its fanin node ids.
    A construction/inspection view — the stored form is CSR. *)

type t

(** {1 Accessors} *)

val name : t -> string
val num_nodes : t -> int
val num_inputs : t -> int
val num_gates : t -> int
val num_outputs : t -> int

val node : t -> int -> node
(** [node c id] for [0 <= id < num_nodes c]. *)

val node_name : t -> int -> string
val node_id_of_name : t -> string -> int option

val outputs : t -> int array
(** Node ids of the primary outputs (a gate or even an input may be an
    output).  Fresh copy. *)

val inputs : t -> int array
(** Node ids [0 .. num_inputs-1].  Fresh copy. *)

val fanins : t -> int -> int array
(** Fanin node ids of a node (empty for inputs).  Fresh copy. *)

val fanouts : t -> int -> int array
(** Fanout node ids of a node.  Fresh copy. *)

val fanout_count : t -> int -> int
val fanin_count : t -> int -> int

val iter_fanins : t -> int -> (int -> unit) -> unit
(** Allocation-free iteration over a node's fanin node ids. *)

val iter_fanouts : t -> int -> (int -> unit) -> unit
(** Allocation-free iteration over a node's fanout node ids. *)

val is_gate : t -> int -> bool
val is_input : t -> int -> bool
val is_output : t -> int -> bool

val gate_kind : t -> int -> Gate.kind
(** Raises [Invalid_argument] if the node is a primary input. *)

(** {1 Gate indexing}

    Gate index [g] (dense, [0 .. num_gates-1]) corresponds to node id
    [num_inputs + g]; the two functions below convert. *)

val node_of_gate : t -> int -> int
val gate_of_node : t -> int -> int

(** {1 Levelization} *)

val level : t -> int -> int
(** Level of a node id: [0] for inputs, [1 +] the deepest fanin's
    level for gates — the longest input-to-node path, in gates. *)

val depth : t -> int
(** Number of gate levels — the circuit's logic depth; [0] for a
    gate-free circuit. *)

(** {1 Flat CSR access}

    The borrowed arrays are the circuit's own storage: callers MUST
    NOT mutate them (the type system cannot enforce this without
    copying, which is exactly what these accessors exist to avoid).
    Layout: node [id]'s fanins are
    [fanin_targets.(fanin_offsets.(id)) ..
     fanin_targets.(fanin_offsets.(id+1) - 1)], and symmetrically for
    fanouts; fanout lists are ascending by sink id. *)

val input_code : int
(** The {!kind_code} of a primary input ([255], outside [Gate.code]'s
    [0..7] range). *)

val kind_code : t -> int -> int
(** [Gate.code] of the node's kind, or {!input_code} for inputs.
    Branch-free byte read — the kernels' dispatch key. *)

module Csr : sig
  val kinds : t -> Bytes.t
  (** One {!kind_code} byte per node.  Borrowed — do not mutate. *)

  val fanin_offsets : t -> int array
  (** Length [num_nodes + 1].  Borrowed — do not mutate. *)

  val fanin_targets : t -> int array
  (** Borrowed — do not mutate. *)

  val fanout_offsets : t -> int array
  (** Length [num_nodes + 1].  Borrowed — do not mutate. *)

  val fanout_targets : t -> int array
  (** The inverse of the fanins: node [id]'s segment lists every node
      that reads [id], ascending by sink id, a sink that reads [id]
      more than once listed once per read (so repeats are adjacent).
      {!Graph_algo.undirected_of_circuit} relies on this order.
      Borrowed — do not mutate. *)

  val levels : t -> int array
  (** {!level} of every node, length [num_nodes].  Borrowed — do not
      mutate. *)

  val level_order : t -> int array
  (** Every gate node id once, level-major (level 1 first), ascending
      id within a level: a topological order whose every prefix is
      closed under fanins.  Borrowed — do not mutate. *)

  val level_offsets : t -> int array
  (** Length [depth + 1]: level [l] ([1]-based) occupies
      [level_order.(level_offsets.(l-1)) ..
       level_order.(level_offsets.(l) - 1)].  Borrowed — do not
      mutate. *)

  val outputs : t -> int array
  (** The {!outputs} array itself, for allocation-free passes.
      Borrowed — do not mutate. *)
end

(** {1 Statistics and validation} *)

type stats = {
  s_inputs : int;
  s_outputs : int;
  s_gates : int;
  s_depth : int; (* {!depth} *)
  s_kind_counts : (Gate.kind * int) list;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val validate : t -> (unit, string) result
(** Re-checks the structural invariants (topological fanins, arities,
    the fanout CSR the ascending inverse of the fanins, output ids in
    range) and the levelization
    (every level recomputed from the fanins; {!Csr.level_order} and
    {!Csr.level_offsets} a partition of the gates by level, ascending
    within each).  Builders establish them; this is used by tests,
    the parser fuzzer and after deserialization. *)

(** {1 Construction (internal)}

    [unsafe_make] is the raw constructor used by {!Builder} and
    {!Bench_io}; it trusts its arguments.  Library users should go
    through {!Builder.freeze}. *)

val unsafe_make :
  name:string ->
  nodes:node array ->
  node_names:string array ->
  num_inputs:int ->
  outputs:int array ->
  t

val unsafe_make_csr :
  name:string ->
  num_inputs:int ->
  kinds:Bytes.t ->
  fanin_offsets:int array ->
  fanin_targets:int array ->
  node_names:string array ->
  outputs:int array ->
  t
(** Raw CSR constructor for generators that already hold the flat
    form: one kind-code byte per node ({!input_code} for inputs),
    fanin offsets of length [n + 1].  Takes ownership of every array
    (no copies); trusts topological order and arities like
    {!unsafe_make}.  Fanouts, levels and the level-major gate order
    are derived by counting sort. *)
