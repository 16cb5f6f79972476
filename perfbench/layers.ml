(* Per-layer probes. Every traced run, whatever its workload, times each
   layer from outside through its public functions in the same way, so
   each per-layer timing has one definition. The workload's own counts
   are read separately (see Main). *)

open Pipeline_model
module Pool = Pipeline_util.Pool
module Json = Pipeline_serve.Json
module Protocol = Pipeline_serve.Protocol
module Cache = Pipeline_serve.Cache

let metric = Common.metric

(* Median over [k] samples of the mean time of [batch] calls of [f], in
   microseconds. *)
let median_us ?(batch = 10) k f =
  let run () =
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  1e6 *. snd (Common.median_time k run) /. float_of_int batch

(* ------------------------------------------------------------------ *)
(* Pool and the exact solvers                                          *)
(* ------------------------------------------------------------------ *)

let pool () =
  let xs = Array.init 50 Fun.id in
  metric "pool.dispatch_us" "us" (median_us ~batch:1 300 (fun () -> Pool.map ~jobs:2 Fun.id xs))

(* The campaign's proof series at jobs 1 and at jobs 2: the base of the
   exact-phase speedup and the share of pool CPU that does useful work. *)
let exact () =
  let insts = Campaign.bnb_instances () in
  let series jobs =
    Pool.set_jobs jobs;
    let c0 = Common.cpu () in
    let (), t = Common.timed (fun () -> List.iter (fun i -> ignore (Campaign.min_period i)) insts) in
    (t, Common.cpu () -. c0)
  in
  let before = Pool.jobs () in
  let j1_s, j1_cpu = series 1 in
  let j2_s, j2_cpu = series 2 in
  Pool.set_jobs before;
  metric "exact_j1_s" "s" j1_s;
  metric "exact_j2_s" "s" j2_s;
  metric "pool.useful_cpu_ratio" "ratio" (j1_cpu /. j2_cpu)

(* ------------------------------------------------------------------ *)
(* Failure thresholds                                                  *)
(* ------------------------------------------------------------------ *)

(* Each paper row's boundary search on one E1 batch (n = 20, p = 10),
   sequentially; the median over the batch. *)
let failure ~seed =
  let open Pipeline_experiments in
  let batch = Workload.instances (Config.default_setup ~pairs:10 ~seed Config.E1 ~n:20 ~p:10) in
  let before = Pool.jobs () in
  Pool.set_jobs 1;
  List.iteri
    (fun i info ->
      let ts =
        List.map
          (fun inst -> snd (Common.timed (fun () -> Failure.instance_threshold info inst)))
          batch
      in
      metric (Printf.sprintf "failure.threshold_us.h%d" (i + 1)) "us"
        (1e6 *. Common.median (Array.of_list ts)))
    Pipeline_registry.paper;
  Pool.set_jobs before

(* ------------------------------------------------------------------ *)
(* The serve stack, on the serve workload's own request bodies         *)
(* ------------------------------------------------------------------ *)

let instance_of_body body =
  let get k j = Option.get (Json.member k j) in
  let floats k j = Option.get (Json.floats (get k j)) in
  let j = Result.get_ok (Json.of_string body) in
  let i = get "instance" j in
  let platform = get "platform" i in
  ( Instance.make
      (Application.make ~deltas:(floats "deltas" i) (floats "works" i))
      (Platform.comm_homogeneous
         ~bandwidth:(Option.get (Json.to_float (get "bandwidth" platform)))
         (floats "speeds" platform)),
    Option.get (Json.to_float (get "period" j)) )

let serve ~seed =
  let reqs = Serve.requests ~seed ~count:2000 in
  let of_cls c = List.filter (fun (r : Serve.request) -> r.Serve.cls = c) (Array.to_list reqs) in
  let warm = List.hd (of_cls Serve.Warm) in
  let colds = Array.of_list (of_cls Serve.Cold) in
  let sims = Array.of_list (of_cls Serve.Simulate) in
  (* Over HTTP to a fresh daemon: the transport floor, a warm solve, and
     the cold and /simulate requests. *)
  let health_us, http_warm_us, http_cold_us, http_sim_us =
    let d = Serve.start () in
    Fun.protect
      ~finally:(fun () -> Serve.stop d)
      (fun () ->
        let port = d.Serve.port in
        let post (r : Serve.request) = ignore (Serve.post ~port r.Serve.path ~body:r.Serve.body) in
        let each a = 1e6 *. Common.median (Array.map (fun r -> snd (Common.timed (fun () -> post r))) a) in
        ( median_us ~batch:1 1000 (fun () -> Serve.get ~port "/health"),
          median_us ~batch:1 1000 (fun () -> post warm),
          each colds,
          each sims ))
  in
  (* In-process, phase by phase. *)
  let proto = Protocol.create () in
  let handle r = Protocol.handle proto (Serve.http_request r) in
  let _, _, reply = handle warm in
  let protocol_warm = median_us 200 (fun () -> handle warm) in
  let parse = median_us 200 (fun () -> Json.of_string warm.Serve.body) in
  let cache = Cache.create () in
  let warm_inst, period = instance_of_body warm.Serve.body in
  let lookup = Cache.canonical cache warm_inst in
  let canonical =
    let ts =
      Array.init 200 (fun _ ->
          let insts = Array.init 10 (fun _ -> fst (instance_of_body warm.Serve.body)) in
          snd (Common.timed (fun () -> Array.iter (fun i -> ignore (Cache.canonical cache i)) insts))
          /. 10.)
    in
    1e6 *. Common.median ts
  in
  let h1 =
    median_us 200 (fun () -> Pipeline_core.Sp_mono_p.solve lookup.Cache.instance ~period)
  in
  let reply_json = Result.get_ok (Json.of_string reply) in
  let encode = median_us 200 (fun () -> Json.to_string reply_json) in
  let each_us a =
    1e6 *. Common.median (Array.map (fun r -> snd (Common.timed (fun () -> handle r))) a)
  in
  let cold = each_us colds in
  let simulate = each_us sims in
  metric "http.health_p50_us" "us" health_us;
  metric "http.solve_warm_p50_us" "us" http_warm_us;
  metric "http.solve_cold_p50_us" "us" http_cold_us;
  metric "http.simulate_p50_us" "us" http_sim_us;
  metric "json.parse_us" "us" parse;
  metric "cache.canonical_us" "us" canonical;
  metric "h1.solve_us" "us" h1;
  metric "json.encode_us" "us" encode;
  metric "protocol.solve_warm_us" "us" protocol_warm;
  metric "protocol.other_us" "us" (protocol_warm -. parse -. canonical -. h1 -. encode);
  metric "transport.solve_warm_us" "us" (http_warm_us -. protocol_warm);
  metric "protocol.solve_cold_us" "us" cold;
  metric "protocol.simulate_us" "us" simulate;
  Printf.printf
    "warm /solve breakdown (us, medians): http %.1f = transport %.1f [health floor %.1f] + \
     protocol %.1f = parse %.1f + canonicalise %.1f + solve %.1f + encode %.1f + other %.1f\n"
    http_warm_us (http_warm_us -. protocol_warm) health_us protocol_warm parse canonical h1
    encode (protocol_warm -. parse -. canonical -. h1 -. encode);
  (* The engine build and candidate enumeration a cold request pays. *)
  let fresh = Array.map (fun (r : Serve.request) -> fst (instance_of_body r.Serve.body)) colds in
  let engines = Array.map (fun (i : Instance.t) -> Cost.make i.Instance.app i.Instance.platform) fresh in
  metric "candidates.periods_us" "us"
    (1e6 *. Common.median (Array.map (fun e -> snd (Common.timed (fun () -> Candidates.periods e))) engines));
  (* The DES behind /simulate: one warm instance's H1 mapping. *)
  let inst, _ = instance_of_body (Array.get sims 0).Serve.body in
  let mapping =
    (Option.get
       (Pipeline_core.Sp_mono_p.solve inst ~period:(Instance.single_proc_period inst)))
      .Pipeline_core.Solution.mapping
  in
  let config =
    { Pipeline_sim.Workload_sim.default_config with Pipeline_sim.Workload_sim.datasets = Serve.datasets }
  in
  let fired0 = Common.obs "sim.des.fired" in
  ignore (Pipeline_sim.Workload_sim.run ~config inst mapping);
  let events = Common.obs "sim.des.fired" - fired0 in
  let des = median_us ~batch:1 200 (fun () -> Pipeline_sim.Workload_sim.run ~config inst mapping) in
  metric "des.run_us" "us" des;
  metric "des.events_per_s" "1/s" (float_of_int events /. (des /. 1e6))

(* ------------------------------------------------------------------ *)
(* The web-scale phases                                                *)
(* ------------------------------------------------------------------ *)

let web ~seed =
  let minor0 = (Gc.quick_stat ()).Gc.minor_words in
  let m = Web.solve ~seed ~cpu:(ref 0.) in
  let minor = (Gc.quick_stat ()).Gc.minor_words -. minor0 in
  let t = m.Pipeline_experiments.Scaling.timings in
  metric "web.build_s" "s" t.Pipeline_experiments.Scaling.build_s;
  metric "web.nicol_s" "s" t.Pipeline_experiments.Scaling.nicol_s;
  metric "web.exact_s" "s" t.Pipeline_experiments.Scaling.exact_s;
  metric "web.h1_s" "s" t.Pipeline_experiments.Scaling.h1_s;
  metric "web.minor_words" "count" minor

(* Serve and web probes run on one CPU, like those workloads; the pool
   and exact probes need both. *)
let run ~seed =
  Common.span "probe.pool" pool;
  Common.span "probe.exact" exact;
  Common.span "probe.failure" (fun () -> failure ~seed);
  Common.pinned (fun () ->
      Common.span "probe.serve" (fun () -> serve ~seed);
      Common.span "probe.web" (fun () -> web ~seed))
