(** Longest-path delay analysis (paper §3.2).

    The nominal delay [D] sums cell delays along the critical path.
    With BIC sensors, each gate delay is stretched by a degradation
    factor [delta(g,t) >= 1]: the gates of a module switching in slot
    [t] push their combined transient current through the sensor's
    bypass resistance [R_s], bouncing the virtual ground by
    [dV(t) = R_s * i(t)] and eating into the drive voltage.  The paper
    derives [delta] from a second-order network in
    {R_s, C_s, C_g, R_g, n(t)}; the original expression is lost to
    OCR, and we use the documented reconstruction (DESIGN.md §2):

    [delta = 1 + (dV(t) / V_dd)^2 * tau_s / (tau_s + tau_g)]

    with [tau_s = R_s * C_s], [tau_g = R_g * C_g], and
    [dV(t) = R_s * i(t)], [i(t) = n(t) * i_peak] the module's
    transient at slot [t].  The perturbation enters {e quadratically}
    — it both reduces the drive voltage and decays away during the
    transition, so the slowdown is the product of the voltage-loss
    fraction and the (equally [dV]-proportional) fraction of the
    transition it survives — weighted by the RC overlap
    [tau_s / (tau_s + tau_g)] (a stiff rail, large [C_s], small
    [tau_s/tau_g] ratio... the factor tends to 0 as [R_s] tends
    to 0).  Since sensors are sized as [R_s = r* / î_max], the bounce
    never exceeds [r*] and [delta - 1 <= (r*/V_dd)^2], reproducing
    the sub-0.1% overhead scale of the paper's Table 1. *)

val arrival_times : Charac.t -> gate_delay:(int -> float) -> float array
(** Longest-path arrival time at each gate's output: [arr(g) =
    gate_delay g + max over gate fanins] (primary inputs arrive
    at 0).

    The single forward pass requires gate ids to be topologically
    ordered (every fanin gate id smaller than its reader's), which
    [Builder.freeze] guarantees for all library-built circuits.  On a
    violating circuit (hand-built via [Circuit.unsafe_make]) the pass
    — and likewise {!slacks}' reverse pass — raises a descriptive
    [Invalid_argument] instead of returning silently wrong delays. *)

val longest_path : Charac.t -> gate_delay:(int -> float) -> float
(** Maximum arrival over the primary outputs: the delays are read into
    an array, then {!longest_path_of_delays}. *)

val longest_path_of_delays : Charac.t -> float array -> float
(** [longest_path_of_delays ch delays] is {!longest_path} with gate
    [g]'s delay [delays.(g)]: the same pass and comparisons, so the
    same float.  The arrivals go to a buffer kept per domain, so the
    call allocates nothing once the buffer has grown to the circuit —
    the pass an incremental evaluator reruns after every move.
    Raises [Invalid_argument] unless [delays] has one entry per
    gate. *)

val nominal_delay : Charac.t -> float
(** [longest_path] with the nominal cell delays: the paper's [D]. *)

val critical_path : Charac.t -> gate_delay:(int -> float) -> int list
(** The gate indices of one longest path, input side first — the
    gates whose delays sum to {!longest_path}.  Empty only for a
    gateless circuit. *)

val slacks : Charac.t -> gate_delay:(int -> float) -> float array
(** Per-gate timing slack against the circuit's own longest path:
    [slack(g) = required(g) - arrival(g)] with every primary output
    required at the longest-path delay.  A gate may be slowed by up
    to its slack without stretching the critical path; critical gates
    have slack 0 (up to rounding). *)

val degradation_factor :
  vdd:float ->
  rs:float ->
  cs:float ->
  rg:float ->
  cg:float ->
  transient_current:float ->
  float
(** [delta(g,t)] above; [transient_current] is the module's summed
    peak current at the slot, [i(t)]. *)

val bic_delay :
  Charac.t ->
  module_of_gate:int array ->
  rs_of_module:(int -> float) ->
  cs_of_module:(int -> float) ->
  module_current:(int -> int -> float) ->
  float
(** [bic_delay ch ~module_of_gate ~rs_of_module ~cs_of_module
    ~module_current] is [D_BIC]: the longest path where gate [g],
    switching at its depth slot [t], is slowed by [delta] computed
    from its module's sensor and the module transient
    [module_current m t]. *)
