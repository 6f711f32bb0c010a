(** Declarative campaign specification.

    A campaign is the cartesian grid circuits × methods × seeds ×
    module sizes; {!jobs} expands it into a deterministic job list.
    Each job is one {!Iddq.Pipeline.run_result}.  The expansion (ids, order,
    dependencies) depends only on the spec, never on how the jobs are
    later scheduled, so a result store written by any domain count can
    resume a campaign run with any other.

    Specs are built in code, from CLI flags, or parsed from a spec
    file of [key = value, value, ...] lines ({!parse}):

    {v
    # Table-1 sweep
    circuits     = C1908, C2670, C3540
    methods      = evolution, standard
    seeds        = 1, 7, 42
    module-sizes = default, 8
    max-generations = 250
    timeout      = 600
    seed-reference-sizes = true
    v} *)

type t = {
  circuits : string list;  (** Built-in circuit names ({!Iddq_netlist.Iscas.by_name}). *)
  methods : Iddq.Pipeline.method_ list;
  seeds : int list;  (** Grid seeds; each job derives its own stream. *)
  module_sizes : int option list;
      (** Target start-module sizes; [None] = the estimated default
          (spelled [default] in spec files). *)
  max_generations : int option;
      (** Cap on ES generations; [None] = {!Iddq_evolution.Es.default_params}. *)
  timeout : float option;
      (** Per-job wall-clock budget in seconds; a job that exceeds it
          records a [Timeout] result.  [None] = unlimited. *)
  seed_reference_sizes : bool;
      (** When true (default) and the grid contains [Evolution],
          [Standard]/[Refined_standard] jobs wait for their evolution
          sibling and take its module sizes as reference — the paper's
          Table-1 protocol. *)
}

val default : t
(** The Table-1 reproduction: the six Table-1 circuits, evolution vs
    standard, seed 42, default module size, no timeout. *)

type job = {
  index : int;  (** Position in the canonical expansion. *)
  id : string;  (** Stable identity, e.g. ["C1908:standard:s42:m-"]. *)
  circuit : string;
  method_ : Iddq.Pipeline.method_;
  seed : int;
  module_size : int option;
  depends_on : string option;
      (** Id of the evolution sibling whose module sizes seed this
          job's reference sizes; [None] for independent jobs. *)
}

val jobs : t -> job list
(** The canonical expansion: circuits × module sizes × seeds ×
    methods, with [Evolution] hoisted to the front of each method
    block so dependencies precede their dependents.  Ids are unique
    (duplicate grid entries are collapsed). *)

val validate : t -> (unit, string) result
(** Non-empty grid, every circuit known, no invalid combination. *)

val set : t -> string -> string -> (t, string) result
(** [set spec key values] applies one spec-file entry: [values] is the
    text right of the [=], a comma-separated list.  The one value
    syntax of every key, shared by {!parse} and the CLI grid flags
    (circuit names are upper-cased; module size [default], [auto] or
    [-] is the estimated default).  An unknown key, a malformed value
    or an empty circuit list is an [Error] naming it; the result is
    not {!validate}d. *)

val parse : string -> (t, Iddq_util.Io_error.t) result
(** Parse spec-file text (see above).  Unknown keys, unknown circuits
    or methods, and empty lists are errors carrying the offending
    line; malformed text never raises.  Omitted keys keep their
    {!default} value, except the grid keys [circuits], [methods],
    [seeds] which fall back to the defaults only when absent. *)

val parse_file : string -> (t, Iddq_util.Io_error.t) result
(** Descriptor-safe read, then {!parse}; a missing or unreadable file
    is an [Error] with the path, never an exception. *)

val to_string : t -> string
(** Render back in spec-file syntax ([parse (to_string t)] = [Ok t]
    up to list order). *)
