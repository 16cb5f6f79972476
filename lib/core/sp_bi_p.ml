open Pipeline_model

let max_probes = 25

let c_bisect =
  Obs.Counter.make ~doc:"latency-cap bisection attempts in Sp_bi_p.solve"
    "core.sp_bi_p.bisect_iters"

let solve inst ~period =
  let trail = ref [] in
  match
    Loop.refine_under_period
      ~visit:(fun config -> trail := config :: !trail)
      ~arity:Two ~rule:Bi (Split.initial inst) ~period
  with
  | None -> None
  | Some unconstrained ->
    let trail = Array.of_list (List.rev !trail) in
    (* A capped run makes the unconstrained run's choice at every step
       whose chosen split meets the cap: the first-wins selection over a
       filtered list keeps the unfiltered winner whenever it survives
       the filter. So each attempt resumes from the last configuration
       the two runs share, with the same decisions — and the same
       result — as a run from scratch. *)
    let attempt cap =
      let k = ref 0 in
      while
        !k + 1 < Array.length trail
        && Pipeline_util.Tol.meets (Split.latency trail.(!k + 1)) cap
      do
        incr k
      done;
      Loop.refine_under_period ~latency_cap:cap ~arity:Two ~rule:Bi trail.(!k)
        ~period
    in
    let optimal_latency = Instance.optimal_latency inst in
    let best = ref unconstrained in
    (* Latency is a sum of interval contributions, so there is no small
       candidate set to search exactly (DESIGN.md §9): bisect the cap
       between the instance's optimal latency and the unconstrained
       solution's, stopping as soon as the bracket converges. Same
       midpoints, convergence test and probe budget as the historical
       25-iteration loop — bit-identical results, fewer probes. *)
    let feasible cap =
      match attempt cap with
      | Some sol ->
        if sol.Solution.latency < !best.Solution.latency then best := sol;
        true
      | None -> false
    in
    let b =
      Threshold.bisect ~max_probes ~lo:optimal_latency
        ~hi:unconstrained.Solution.latency ~feasible ()
    in
    Obs.Counter.add c_bisect b.Threshold.probes;
    Some !best
