let solve inst ~latency =
  Loop.minimise_period_under_latency ~arity:Two ~rule:Bi inst ~latency
