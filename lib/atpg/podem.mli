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
    input assignment, both held in one byte per node (two rails, see
    {!t}). *)

type result =
  | Test of bool option array
      (** A detecting input cube ([None] = don't-care). *)
  | Untestable  (** Search space exhausted: the fault is redundant. *)
  | Aborted  (** Backtrack limit hit. *)

type t
(** A circuit prepared for PODEM: SCOAP controllabilities and node
    levels computed once as flat arrays, the circuit's CSR views
    borrowed, both machines' values under the all-X assignment (one
    full pass), and the search's scratch owned — the two-rail node
    values, the level-bucketed implication queue and its enqueue
    stamps, the fault's fanout-cone list and marks, the X-path DFS
    marks and stack, the decision stack, and the undo log with one
    mark per decision.

    Node values are two-rail: a three-valued value v is the two bits
    v + 1 ("can be 0", "can be 1"; X = 0b11), and one byte per node
    holds the good machine in bits 0-1 and the faulty machine in bits
    2-3.  A gate's byte comes from one pass over its fanins — a running
    AND and OR of their bytes for And/Or, parity and X bits for Xor —
    with no branch on the values, both machines at once.

    Implication is event-driven: a fault starts from the all-X image
    with the fault forced, and each implication starts from the one
    input that changed — a decision, or a flipped decision — and
    re-evaluates, level by level, only the gates downstream of it,
    stopping where a gate's byte does not change.  Every byte it
    changes is logged (node and old byte, in one [int]) in a growable
    array, and each decision marks the log before its implication.  A
    backtrack restores the log to the mark of the decision it flips —
    the implication of the decisions before it — and implies only the
    flipped input, from X, so the search is the one a full
    re-implication would make.  The log holds at most two changes per
    node, so it stops growing after the first searches and a search
    allocates nothing per change.  The D-frontier is scanned over the
    fault's fanout cone only.  Every {!generate} call reuses the
    scratch, so a [t] must not be shared across domains: prepare one
    per domain. *)

val prepare : Iddq_netlist.Circuit.t -> t

val generate : ?max_backtracks:int -> t -> Iddq_defects.Stuck_at.fault -> result
(** Default backtrack limit: 2000.  Raises [Invalid_argument] on a
    fault that fails {!Iddq_defects.Stuck_at.validate_fault}. *)

val generate_checked :
  ?max_backtracks:int ->
  t ->
  Iddq_defects.Stuck_at.fault ->
  (result, string) Stdlib.result
(** {!generate}, with the good and faulty values compared after every
    implication step — decisions and backtracks included — against a
    whole-circuit re-implication of the same assignment by scalar
    three-valued evaluation, an implementation independent of the
    two-rail one.  [Ok] carries
    {!generate}'s verdict; [Error] names the first step and node where
    the two differ.  Test hook; runs a full implication per step. *)

val concretize : rng:Iddq_util.Rng.t -> bool option array -> bool array
(** Fill the don't-cares randomly. *)
