(** Campaign-level aggregation of a result store.

    Two views: a per-method roll-up (status counts and mean
    measurements over every [Done] run), and the paper's Table-1 rows
    — per circuit, evolution vs standard, averaged over seeds and
    module sizes — rendered through {!Iddq.Report.table} so the
    campaign reproduces EXPERIMENTS.md's format. *)

type method_agg = {
  method_ : Iddq.Pipeline.method_;
  runs : int;  (** All runs of this method, whatever their status. *)
  ok : int;
  failed : int;
  timed_out : int;
  mean_modules : float;
  mean_cost : float;
  mean_area : float;
  mean_delay_overhead_pct : float;
  mean_test_overhead_pct : float;
  mean_elapsed : float;
}

val by_method : Job_result.t list -> method_agg list
(** One aggregate per method present, in first-appearance order.
    Means are over [Done] runs only (0 when there are none). *)

val table1_rows : Job_result.t list -> Iddq.Report.row list
(** One {!Iddq.Report.row} per circuit that has at least one [Done]
    evolution and one [Done] standard result; measurements are means
    over those runs, module counts the rounded means.  Circuits appear
    in first-appearance order. *)

val pp : Format.formatter -> Job_result.t list -> unit
(** Method table, Table-1 table (when derivable) and failure list —
    the campaign's printed summary. *)
