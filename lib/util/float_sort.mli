(** Stable, monomorphic sorting of flat [float array]s.

    One kernel for every place that sorts floats: candidate-period
    enumeration, boundary bandwidths, quantiles. Elements are compared
    as unboxed floats with inlined tests, never through a closure or the
    polymorphic [compare].

    {b Ordering contract} (DESIGN.md §15). The order is [Float.compare]'s,
    which on floats is exactly [compare]'s: NaN (any payload) before
    every other value, then [neg_infinity], the finite values, and
    [infinity]; [-0.] and [0.] are equal, as are all NaNs. Both
    functions reproduce the list functions bit for bit:
    - [sort a] leaves [a] holding [Array.of_list (List.sort compare l)]
      for [l = Array.to_list a]. It is stable, so equal elements (±0.,
      NaNs) keep their input order.
    - [sort_uniq a] returns [Array.of_list (List.sort_uniq compare l)]:
      one element per class of equal values, and for ±0. and NaN the
      very member [List.sort_uniq] keeps. *)

val sort : float array -> unit
(** Sort in place: insertion sort on runs of 16, then bottom-up merges
    through one scratch array (kept per domain, so repeated sorts of up
    to 2{^16} elements allocate nothing). O(n log n), stable. *)

val sort_uniq : float array -> float array
(** A fresh sorted array with duplicates (under [Float.compare])
    removed. The argument is left untouched. *)

val sort_uniq_init : int -> (float array -> unit) -> float array
(** [sort_uniq_init n fill] is [sort_uniq] of the [n] values that
    [fill] writes into slots [0 .. n-1] of the array it is given, which
    may be longer than [n] (its other slots are to be left alone). The
    array is per-domain scratch up to 2{^16} slots, so a caller that
    generates its values (a candidate enumeration) allocates only the
    result. *)
