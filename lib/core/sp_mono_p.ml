let solve inst ~period =
  Loop.minimise_latency_under_period ~arity:Two ~rule:Mono inst ~period
