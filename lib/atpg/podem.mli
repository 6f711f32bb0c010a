(** PODEM test generation for stuck-at faults (Goel 1981).

    The paper assumes "a precomputed test vector set"; this module
    produces one.  PODEM searches the primary-input space only: it
    picks an {e objective} (activate the fault, then advance the
    D-frontier), {e backtraces} the objective to an unassigned input
    (guided by SCOAP controllability), runs three-valued good and
    faulty implications, and backtracks on conflicts.  The usual
    pruning applies: a vanished D-frontier or no X-path to an output
    kills a branch.

    Values are the classical five: 0, 1, X, D (good 1 / faulty 0) and
    D̄ — represented as a pair of three-valued simulations sharing the
    input assignment. *)

type result =
  | Test of bool option array
      (** A detecting input cube ([None] = don't-care). *)
  | Untestable  (** Search space exhausted: the fault is redundant. *)
  | Aborted  (** Backtrack limit hit. *)

val generate :
  ?max_backtracks:int ->
  Iddq_netlist.Circuit.t ->
  Iddq_defects.Stuck_at.fault ->
  result
(** Default backtrack limit: 2000. *)

val concretize : rng:Iddq_util.Rng.t -> bool option array -> bool array
(** Fill the don't-cares randomly. *)
