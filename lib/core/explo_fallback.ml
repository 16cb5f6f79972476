let solve_mono inst ~period =
  Loop.minimise_latency_under_period ~arity:Three_or_two ~rule:Mono inst ~period

let solve_bi inst ~period =
  Loop.minimise_latency_under_period ~arity:Three_or_two ~rule:Bi inst ~period
