let solve inst ~period =
  Loop.minimise_latency_under_period ~arity:Three ~rule:Bi inst ~period
