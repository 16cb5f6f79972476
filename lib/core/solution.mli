(** Result of a bi-criteria mapping heuristic: the mapping together with
    its two objective values. *)

open Pipeline_model

type t = {
  mapping : Mapping.t;
  period : float;   (** equation (1) *)
  latency : float;  (** equation (2) *)
}

val of_mapping : Instance.t -> Mapping.t -> t
(** Evaluate both objectives with {!Pipeline_model.Metrics}. *)

val respects_period : t -> float -> bool
(** [respects_period s p] with a relative tolerance of 1e-9, so a solution
    sitting exactly on the threshold is not rejected by rounding noise. *)

val respects_latency : t -> float -> bool

val compare_objectives : t -> t -> int
(** Lexicographic order on (period, latency), [compare] on each. *)

val pareto_front : t list -> t list
(** The period/latency front of a list sorted by {!compare_objectives} —
    the one prune every exact Pareto solver applies (DESIGN.md §9). The
    period-constrained solvers accept values up to
    {!Pipeline_util.Tol.ceiling}, and two evaluations of one mapping's
    latency may differ in the last bits, so values within that slack
    are one value here. Sweeping by increasing period, a point is kept
    when its latency is below the last kept one's by more than the
    slack ([not (Tol.meets last s.latency)]); then a kept point is
    dropped when the next kept point's period {!Pipeline_util.Tol.meets}
    its own, since that point's lower latency is reachable under the
    same period constraint. The result has strictly increasing periods
    and strictly decreasing latencies. *)

val pp : Format.formatter -> t -> unit
