open Pipeline_model
module Registry = Pipeline_registry
module Table = Pipeline_util.Table

let c_probes =
  Obs.Counter.make ~doc:"feasibility probes in Failure.instance_threshold"
    "experiments.threshold_probes"

(* The latency boundaries sit strictly between the acceptance slack
   (1e-9, {!Pipeline_util.Tol.accept_rel}) and the full bisection grain,
   so the adaptive bisection may stop as soon as the bracket is
   invisible at the acceptance scale. *)
let latency_rel = 1e-10

(* Period-direction rows flip feasibility at an achievable period — a
   member of the finite candidate set — so their boundary is found
   exactly by binary search over that set (DESIGN.md §9). The het rows
   search the fully-het configuration family of DESIGN.md §13 on any
   platform kind. Only stacks whose achievable periods leave the
   plain-interval grid keep the adaptive bisection: the ft rows charge
   replication overheads on top of the plain cycle, and the deal grid
   assumes a comm-homogeneous platform. *)
let period_candidates (info : Registry.info) (inst : Instance.t) =
  let comm_hom = Platform.is_comm_homogeneous inst.platform in
  let set () = Candidates.Set.of_engine (Cost.get inst.app inst.platform) in
  match info.stack with
  | Registry.Core | Registry.Extension -> if comm_hom then Some (set ()) else None
  | Registry.Het -> Some (set ())
  | Registry.Deal ->
    if comm_hom then
      Some
        (Candidates.Set.of_array
           (Candidates.deal_periods (Cost.get inst.app inst.platform)))
    else None
  | Registry.Ft -> None

let instance_threshold ?(iterations = 40) (info : Registry.info) inst =
  let probes = ref 0 in
  let succeeds threshold =
    incr probes;
    info.solve inst ~threshold <> None
  in
  let bisection () =
    (* Bracket the boundary: 0 always fails (periods and latencies are
       positive), [hi] always succeeds. *)
    let hi_start =
      match info.kind with
      | Registry.Period_fixed -> Instance.single_proc_period inst
      | Registry.Latency_fixed -> Instance.optimal_latency inst
    in
    let hi = ref (Float.max hi_start 1e-9) in
    if not (succeeds !hi) then
      (* Pathological: even the guaranteed-feasible threshold fails; widen
         until success (finite instances always succeed eventually). *)
      while not (succeeds !hi) do
        hi := !hi *. 2.
      done;
    let b =
      Threshold.bisect ~max_probes:iterations ~rel:latency_rel ~lo:0. ~hi:!hi
        ~feasible:succeeds ()
    in
    b.Threshold.lo
  in
  let result =
    match info.kind with
    | Registry.Latency_fixed -> bisection ()
    | Registry.Period_fixed -> (
      match period_candidates info inst with
      | None -> bisection ()
      | Some set -> (
        match Threshold.boundary_set ~set ~succeeds () with
        | Some boundary -> boundary
        | None ->
          (* Even the top candidate failed (the heuristic rejects
             thresholds the single-processor mapping meets): fall back
             to the widening bisection. *)
          bisection ()))
  in
  Obs.Counter.add c_probes !probes;
  result

type aggregate = Mean | Max

(* Folding a batch's per-instance boundaries in index order keeps the
   summation order — and therefore every table cell — identical to the
   sequential run, however the boundaries were computed. *)
let aggregate_column aggregate column =
  match aggregate with
  | Mean -> Array.fold_left ( +. ) 0. column /. float_of_int (Array.length column)
  | Max -> Array.fold_left Float.max 0. column

(* Each per-instance search is independent, so the per-pair loop fans out
   across the domain pool. *)
let instance_thresholds ?iterations info instances =
  Pipeline_util.Pool.map
    (fun inst -> instance_threshold ?iterations info inst)
    (Array.of_list instances)

let average_threshold ?iterations (info : Registry.info) instances =
  aggregate_column Mean (instance_thresholds ?iterations info instances)

let max_threshold ?iterations (info : Registry.info) instances =
  aggregate_column Max (instance_thresholds ?iterations info instances)

type table = {
  experiment : Config.experiment;
  p : int;
  ns : int list;
  rows : (string * float list) list;
}

(* Instance-major: one pool task computes every row's boundary on one
   instance, so the instance's cost engine and candidate set are built
   once per task rather than once per row — a batch of 50 instances
   cycles through the 8-entry per-domain engine cache, which a
   row-major sweep re-filled six times. Each row's column is then
   aggregated in index order, exactly as {!average_threshold} does. *)
let batch_columns aggregate rows batch =
  let per_instance =
    Pipeline_util.Pool.map
      (fun inst ->
        Array.of_list
          (List.map (fun info -> instance_threshold info inst) rows))
      (Array.of_list batch)
  in
  List.mapi
    (fun r _ -> aggregate_column aggregate (Array.map (fun a -> a.(r)) per_instance))
    rows

let table ?(aggregate = Mean) ?(pairs = 50) ?(seed = 2007) experiment ~p ~ns =
  Obs.span
    (Printf.sprintf "table1:%s-p%d" (Config.experiment_name experiment) p)
  @@ fun () ->
  let columns =
    List.map
      (fun n ->
        batch_columns aggregate Registry.paper
          (Workload.instances (Config.default_setup ~pairs ~seed experiment ~n ~p)))
      ns
  in
  let rows =
    List.mapi
      (fun r (info : Registry.info) ->
        (info.table_name, List.map (fun column -> List.nth column r) columns))
      Registry.paper
  in
  { experiment; p; ns; rows }

let to_cells t =
  let header =
    "Heur." :: List.map (fun n -> Printf.sprintf "n=%d" n) t.ns
  in
  let body =
    List.map
      (fun (name, values) -> name :: List.map (Table.float_cell ~decimals:1) values)
      t.rows
  in
  header :: body

let render t = Table.render (to_cells t)
let render_markdown t = Table.render_markdown (to_cells t)
