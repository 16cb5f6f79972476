(* Closed-loop load generator. Wall-clock timings — a bench artefact,
   exempt from the determinism contract (see the .mli). *)

open Pipeline_model

type phase = {
  label : string;
  requests : int;
  errors : int;
  reqs_per_s : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

(* ------------------------------------------------------------------ *)
(* Workload bodies                                                     *)
(* ------------------------------------------------------------------ *)

(* Deterministic instance material: one seeded stream for the stage
   weights, bandwidth varied per request to steer the platform
   fingerprint (distinct => cold, cycling => warm). *)
let instance_material ~stages =
  let rng = Pipeline_util.Rng.create 2007 in
  let works =
    Array.init stages (fun _ -> 1. +. Pipeline_util.Rng.float rng 9.)
  in
  let deltas =
    Array.init (stages + 1) (fun _ -> 1. +. Pipeline_util.Rng.float rng 9.)
  in
  let speeds = Array.init 8 (fun _ -> 1. +. Pipeline_util.Rng.float rng 4.) in
  (works, deltas, speeds)

let floats_json a =
  Json.List (Array.to_list (Array.map (fun f -> Json.Number f) a))

let solve_body ~works ~deltas ~speeds ~bandwidth =
  let app = Application.make ~deltas works in
  let platform = Platform.comm_homogeneous ~bandwidth speeds in
  let inst = Instance.make app platform in
  let period = Instance.single_proc_period inst *. 0.9 in
  Json.to_string
    (Json.Obj
       [
         ( "instance",
           Json.Obj
             [
               ("works", floats_json works);
               ("deltas", floats_json deltas);
               ( "platform",
                 Json.Obj
                   [
                     ("speeds", floats_json speeds);
                     ("bandwidth", Json.Number bandwidth);
                   ] );
             ] );
         ("period", Json.Number period);
         ("heuristic", Json.String "h1-sp-mono-p");
       ])

let simulate_body ~works ~deltas ~speeds ~bandwidth =
  let app = Application.make ~deltas works in
  let platform = Platform.comm_homogeneous ~bandwidth speeds in
  let inst = Instance.make app platform in
  (* The single-processor period is always achievable, so H1 cannot
     reject the threshold and the phase never 400s. *)
  let period = Instance.single_proc_period inst in
  Json.to_string
    (Json.Obj
       [
         ( "instance",
           Json.Obj
             [
               ("works", floats_json works);
               ("deltas", floats_json deltas);
               ( "platform",
                 Json.Obj
                   [
                     ("speeds", floats_json speeds);
                     ("bandwidth", Json.Number bandwidth);
                   ] );
             ] );
         ("period", Json.Number period);
         ("datasets", Json.Number 50.);
       ])

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let measure ~label shots =
  let latencies = ref [] in
  let errors = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun shot ->
      let s0 = Unix.gettimeofday () in
      (match shot () with
      | Ok (200, _) -> latencies := (Unix.gettimeofday () -. s0) :: !latencies
      | Ok _ | Error _ -> incr errors))
    shots;
  let elapsed = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list (List.rev_map (fun s -> s *. 1e6) !latencies) in
  Pipeline_util.Float_sort.sort lat;
  let n = Array.length lat in
  let mean =
    if n = 0 then 0. else Array.fold_left ( +. ) 0. lat /. float_of_int n
  in
  {
    label;
    requests = n;
    errors = !errors;
    reqs_per_s =
      (if elapsed > 0. then float_of_int (List.length shots) /. elapsed else 0.);
    mean_us = mean;
    p50_us = percentile lat 0.50;
    p99_us = percentile lat 0.99;
  }

let run ?(requests_per_phase = 200) ?(stages = 24) ~port () =
  let works, deltas, speeds = instance_material ~stages in
  let shots_of f = List.init requests_per_phase f in
  let health =
    measure ~label:"health" (shots_of (fun _ () -> Http.get ~port "/health"))
  in
  (* Cold: every request a fresh bandwidth => a fresh platform
     fingerprint => a full engine build. *)
  let cold =
    measure ~label:"solve-cold"
      (shots_of (fun i () ->
           let body =
             solve_body ~works ~deltas ~speeds
               ~bandwidth:(10. +. (0.125 *. float_of_int i))
           in
           Http.post ~port "/solve" ~body))
  in
  (* Warm: cycle 4 bandwidths — they fit the serve cache and Cost.get's
     8-engine domain LRU, so after the first lap every request hits. *)
  let warm =
    measure ~label:"solve-warm"
      (shots_of (fun i () ->
           let body =
             solve_body ~works ~deltas ~speeds
               ~bandwidth:(10. +. (0.125 *. float_of_int (i mod 4)))
           in
           Http.post ~port "/solve" ~body))
  in
  let simulate =
    measure ~label:"simulate"
      (shots_of (fun _ () ->
           let body = simulate_body ~works ~deltas ~speeds ~bandwidth:10. in
           Http.post ~port "/simulate" ~body))
  in
  [ health; cold; warm; simulate ]

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let to_csv phases =
  "phase,requests,errors,reqs_per_s,mean_us,p50_us,p99_us"
  :: List.map
       (fun ph ->
         Printf.sprintf "%s,%d,%d,%.1f,%.1f,%.1f,%.1f" ph.label ph.requests
           ph.errors ph.reqs_per_s ph.mean_us ph.p50_us ph.p99_us)
       phases

let render phases =
  let b = Buffer.create 256 in
  Printf.bprintf b "%-12s %8s %7s %10s %10s %10s %10s\n" "phase" "requests"
    "errors" "reqs/s" "mean(us)" "p50(us)" "p99(us)";
  List.iter
    (fun ph ->
      Printf.bprintf b "%-12s %8d %7d %10.1f %10.1f %10.1f %10.1f\n" ph.label
        ph.requests ph.errors ph.reqs_per_s ph.mean_us ph.p50_us ph.p99_us)
    phases;
  Buffer.contents b
