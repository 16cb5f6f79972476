(** Driver loops shared by the heuristics.

    Both paper families follow the same skeleton: start from the
    latency-optimal configuration (everything on the fastest processor)
    and repeatedly split the current bottleneck interval, handing stages
    to the next fastest unused processor(s), until the break condition.
    Each step retains {!Split.best} of the bottleneck for the heuristic's
    split arity and selection rule.

    {ul
    {- {e Period fixed} (H1–H4, and the 3-exploration extensions of
       {!Explo_fallback}): split while the period exceeds the threshold;
       succeed iff it is reached. H4 also caps the latency.}
    {- {e Latency fixed} (H5, H6): split while improving candidates exist
       that keep the latency within the threshold, driving the period as
       low as possible; succeed iff the optimal latency itself respects
       the threshold.}} *)

open Pipeline_model

val minimise_latency_under_period :
  ?latency_cap:float ->
  arity:Split.arity ->
  rule:Split.rule ->
  Instance.t ->
  period:float ->
  Solution.t option
(** Splitting loop of the period-fixed family. Candidates whose latency
    exceeds [latency_cap] (default [+∞]) are discarded before selection.
    Returns the final solution when the period threshold is reached,
    [None] otherwise (failure). *)

val refine_under_period :
  ?latency_cap:float ->
  ?visit:(Split.t -> unit) ->
  arity:Split.arity ->
  rule:Split.rule ->
  Split.t ->
  period:float ->
  Solution.t option
(** {!minimise_latency_under_period} from a given configuration instead
    of {!Split.initial}. [visit] sees every configuration the loop tests
    against the period threshold, in order: the starting one, then one
    per applied split. *)

val minimise_period_under_latency :
  arity:Split.arity ->
  rule:Split.rule ->
  Instance.t ->
  latency:float ->
  Solution.t option
(** Splitting loop of the latency-fixed family. [None] when even the
    single-processor optimum violates the latency threshold. *)
