(** Graphviz (DOT) export of circuits, optionally colored by a
    partition — handy for inspecting what the optimizer produced. *)

val of_circuit : ?module_of_gate:(int -> int) -> Circuit.t -> string
(** [of_circuit c] renders the circuit as a [digraph] named after the
    circuit: primary inputs as plain boxes, gates as record nodes
    labelled [name : KIND], primary outputs double-circled.  With
    [module_of_gate], gates are clustered into one [subgraph cluster_k]
    per module and given a module-indexed fill colour. *)

val write_file :
  ?module_of_gate:(int -> int) ->
  string ->
  Circuit.t ->
  (unit, Iddq_util.Io_error.t) result
(** Atomic write (scratch file + rename); an unwritable path is an
    [Error], never an exception. *)
