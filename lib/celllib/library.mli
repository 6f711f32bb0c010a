(** A characterized target cell library: one {!Cell.t} per gate kind
    plus the {!Technology.t} parameters. *)

type t

val make :
  ?name:string ->
  technology:Technology.t ->
  cells:(Iddq_netlist.Gate.kind * Cell.t) list ->
  unit ->
  (t, string) result
(** Fails if a gate kind is missing, a kind is characterized twice, or
    a cell/technology parameter is out of range. *)

val name : t -> string
val technology : t -> Technology.t

val cell : t -> Iddq_netlist.Gate.kind -> Cell.t
(** Base (2-input) characterization of a kind. *)

val cell_for : t -> Iddq_netlist.Gate.kind -> fanin:int -> Cell.t
(** Characterization derated for the actual fanin count
    ({!Cell.scale_for_fanin}). *)

val default : t
(** A 1 um-class 5 V CMOS library (values representative of the
    paper's mid-90s technology; see DESIGN.md §2 on calibration). *)

val with_technology : t -> Technology.t -> (t, string) result
(** Same cells, different technology constants (validated) — used by
    sensor-variant and threshold-sweep experiments. *)

val pp : Format.formatter -> t -> unit
