open Pipeline_model

type t = { mapping : Mapping.t; period : float; latency : float }

let of_mapping (inst : Instance.t) mapping =
  let s = Cost.summary (Cost.get inst.app inst.platform) mapping in
  { mapping; period = s.Cost.period; latency = s.Cost.latency }

let respects_period t p = Pipeline_util.Tol.meets t.period p
let respects_latency t l = Pipeline_util.Tol.meets t.latency l

let compare_objectives a b =
  match compare a.period b.period with 0 -> compare a.latency b.latency | c -> c

let pareto_front sorted =
  (* Sweeping by increasing period, keep a point only when its latency
     beats the last kept one by more than the tolerance. *)
  let rec by_latency best = function
    | [] -> []
    | s :: rest ->
      if Pipeline_util.Tol.meets best s.latency then by_latency best rest
      else s :: by_latency s.latency rest
  in
  (* Kept latencies strictly decrease, so a point's period is within
     tolerance of a better point's iff it is within tolerance of its
     successor's. *)
  let rec by_period = function
    | a :: (b :: _ as rest) ->
      if Pipeline_util.Tol.meets b.period a.period then by_period rest
      else a :: by_period rest
    | front -> front
  in
  by_period (by_latency infinity sorted)

let pp fmt t =
  Format.fprintf fmt "%s period=%g latency=%g" (Mapping.to_string t.mapping)
    t.period t.latency
