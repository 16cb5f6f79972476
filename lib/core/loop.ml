let threshold_met = Pipeline_util.Tol.meets

let refine_under_period ?(latency_cap = infinity) ?(visit = ignore) ~arity
    ~rule config ~period =
  let rec refine config =
    visit config;
    if threshold_met (Split.period config) period then
      Some (Split.to_solution config)
    else
      let j = Split.bottleneck config in
      match Split.best config ~j ~arity ~rule ~cap:latency_cap with
      | None -> None (* bottleneck cannot be improved: the period is stuck *)
      | Some cand -> refine (Split.apply config cand)
  in
  refine config

let minimise_latency_under_period ?latency_cap ~arity ~rule inst ~period =
  refine_under_period ?latency_cap ~arity ~rule (Split.initial inst) ~period

let minimise_period_under_latency ~arity ~rule inst ~latency =
  let rec refine config =
    let j = Split.bottleneck config in
    match Split.best config ~j ~arity ~rule ~cap:latency with
    | None -> Split.to_solution config
    | Some cand -> refine (Split.apply config cand)
  in
  let config = Split.initial inst in
  if threshold_met (Split.latency config) latency then Some (refine config)
  else None
