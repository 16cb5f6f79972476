(* The repository's benchmark:

     main.exe --workload campaign|serve|web_scale --seed N --seconds S
              --trace 0|1

   Inputs are made from --seed; --seconds sizes the serve and web_scale
   work (the campaign is the paper's fixed Table 1 run). Outputs are
   checked, and every check is an operation that can fail. With
   --trace 0 the last line of stdout carries the end-to-end metrics;
   with --trace 1 the run switches on Obs metrics, tracing and the
   benchmark's own spans, and the last line carries the per-layer
   metrics instead. *)

module Pool = Pipeline_util.Pool

let usage () =
  prerr_endline
    "usage: main.exe --workload campaign|serve|web_scale --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload [ "campaign"; "serve"; "web_scale" ]) then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  (workload, int "--seed", seconds, trace)

(* What every end-to-end line reports, whatever the workload. *)
type e2e = {
  setup_s : float;
  work_s : float;  (** wall seconds of the fixed measured work *)
  cpu_s : float;  (** CPU seconds the program spent on that work *)
  peak_rss_mb : float;  (** of the process doing the work *)
}

let gc () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* Counts of the work a traced workload did, read right after its
   measured part. [obs] reads an Obs counter of the process that did the
   work; [serve] the daemon's /metrics, when there was one. *)
let counts ~obs ~serve ~(cost : Pipeline_model.Cost.cache_stats) ~minor ~major =
  let c = Common.count in
  c "pool.maps" (obs "pool.maps");
  c "pool.items" (obs "pool.items");
  c "pool.tree_tasks" (obs "pool.tree.tasks");
  c "cost.engine_builds" cost.Pipeline_model.Cost.engine_builds;
  let gets = cost.Pipeline_model.Cost.lru_hits + cost.Pipeline_model.Cost.lru_misses in
  Common.metric "cost.lru_hit_ratio" "ratio"
    (if gets = 0 then 0. else float_of_int cost.Pipeline_model.Cost.lru_hits /. float_of_int gets);
  c "candidates.builds" cost.Pipeline_model.Cost.candidate_builds;
  c "threshold.candidate_probes" (obs "model.threshold.candidate_probes");
  c "threshold.bisect_probes" (obs "model.threshold.bisect_probes");
  c "threshold.lattice_probes" (obs "model.threshold.lattice_probes");
  c "failure.probes" (obs "experiments.threshold_probes");
  c "bnb.nodes" (obs "optimal.bb.nodes");
  c "bnb.waves" (obs "optimal.bb.waves");
  c "bnb.tasks" (obs "optimal.bb.tasks");
  c "des.events" (obs "sim.des.fired");
  List.iter
    (fun k -> c k (serve k))
    [
      "serve.cache.platform_hits"; "serve.cache.platform_misses"; "serve.responses.ok";
      "serve.responses.client_error"; "serve.responses.server_error";
    ];
  c "serve.cache.platform_evictions" (serve "serve.cache.evictions");
  Common.metric "gc.minor_words" "count" minor;
  c "gc.major_collections" major

let cost_delta (a : Pipeline_model.Cost.cache_stats) (b : Pipeline_model.Cost.cache_stats) =
  Pipeline_model.Cost.
    {
      engine_builds = b.engine_builds - a.engine_builds;
      lru_hits = b.lru_hits - a.lru_hits;
      lru_misses = b.lru_misses - a.lru_misses;
      candidate_builds = b.candidate_builds - a.candidate_builds;
      deal_candidate_builds = b.deal_candidate_builds - a.deal_candidate_builds;
    }

(* Measure [f] with the workload's counts: the Obs registry starts from
   zero, Cost and GC tallies are differenced. *)
let counted f =
  Obs.reset ();
  let cost0 = Pipeline_model.Cost.cache_stats () in
  let minor0, major0 = gc () in
  let r = f () in
  let minor1, major1 = gc () in
  (r, cost_delta cost0 (Pipeline_model.Cost.cache_stats ()), minor1 -. minor0, major1 - major0)

let self_rss () = Common.peak_rss_mb "self"
let no_daemon _ = 0

let campaign ~seed ~trace =
  let (o, finish), cost, minor, major = counted (fun () -> Campaign.run ~seed) in
  if trace then counts ~obs:Common.obs ~serve:no_daemon ~cost ~minor ~major;
  finish ();
  Printf.printf "campaign: table1 %.3f s + exact %.3f s at jobs %d; proof nodes %s\n"
    o.Campaign.table1_s o.Campaign.exact_s Campaign.jobs
    (String.concat " " (List.map string_of_int o.Campaign.nodes));
  {
    setup_s = o.Campaign.setup_s;
    work_s = o.Campaign.work_s;
    cpu_s = o.Campaign.cpu_s;
    peak_rss_mb = self_rss ();
  }

let serve ~seed ~seconds ~trace =
  let o, check = Common.pinned (fun () -> Serve.run ~seed ~seconds) in
  let daemon k =
    let k = String.map (fun c -> if c = '.' then '_' else c) k in
    Option.value (List.assoc_opt k o.Serve.scraped) ~default:0
  in
  (* A traced run replays every request in-process, so the Cost and GC
     tallies are those of the daemon's own calls. *)
  let (), cost, minor, major = counted (fun () -> check ~all:trace) in
  if trace then counts ~obs:daemon ~serve:daemon ~cost ~minor ~major;
  List.iter
    (fun c ->
      let l = Serve.latencies o c in
      if Array.length l > 0 then
        Printf.printf "serve: %-10s n=%-6d p50 %8.1f us  p99 %8.1f us\n" (Serve.cls_name c)
          (Array.length l) (1e6 *. Common.median l) (1e6 *. Common.quantile l 0.99))
    [ Serve.Warm; Serve.Cold; Serve.Simulate ];
  Printf.printf "serve: %d requests in %.3f s = %.1f req/s\n" (Array.length o.Serve.lat)
    o.Serve.work_s (float_of_int (Array.length o.Serve.lat) /. o.Serve.work_s);
  {
    setup_s = o.Serve.setup_s;
    work_s = o.Serve.work_s;
    cpu_s = o.Serve.cpu_s;
    peak_rss_mb = o.Serve.rss_mb;
  }

let web ~seed ~seconds ~trace =
  let o, cost, minor, major = counted (fun () -> Common.pinned (fun () -> Web.run ~seed ~seconds)) in
  if trace then counts ~obs:Common.obs ~serve:no_daemon ~cost ~minor ~major;
  {
    setup_s = o.Web.setup_s;
    work_s = o.Web.work_s;
    cpu_s = o.Web.cpu_s;
    peak_rss_mb = self_rss ();
  }

(* Tracing overhead on one instrumented slice: a Table 1 cell at jobs 2,
   alternately untraced and traced. *)
let overhead ~seed =
  let cell () =
    snd (Common.timed (fun () -> Campaign.cell ~seed Pipeline_experiments.Config.E1 20))
  in
  let set on =
    Obs.set_metrics on;
    Obs.set_tracing on;
    Common.traced := on
  in
  let before = Pool.jobs () in
  Pool.set_jobs Campaign.jobs;
  let pairs =
    Array.init 3 (fun _ ->
        set false;
        let off = cell () in
        set true;
        let on = cell () in
        (off, on))
  in
  Pool.set_jobs before;
  let off = Common.median (Array.map fst pairs) and on = Common.median (Array.map snd pairs) in
  Common.metric "trace.overhead_pct" "%" (100. *. (on -. off) /. off)

let trace_file workload = Printf.sprintf ".perfbench/trace-%s.json" workload

let main () =
  let workload, seed, seconds, trace = args () in
  if trace then begin
    overhead ~seed;
    Hashtbl.reset Common.accs;
    Common.order := []
  end;
  Obs.set_metrics trace;
  Obs.set_tracing trace;
  Common.traced := trace;
  let e =
    match workload with
    | "campaign" -> campaign ~seed ~trace
    | "serve" -> serve ~seed ~seconds ~trace
    | _ -> web ~seed ~seconds ~trace
  in
  Printf.printf "%s: setup %.6f s, work %.6f s, cpu %.3f s, peak rss %.1f MB\n" workload
    e.setup_s e.work_s e.cpu_s e.peak_rss_mb;
  if trace then begin
    Common.count "host.nproc" (Common.nproc ());
    Common.metric "trace.work_s" "s" e.work_s;
    Layers.run ~seed;
    Common.print_spans ();
    (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Obs.write_trace (trace_file workload);
    Printf.printf "trace written to %s\n" (trace_file workload)
  end
  else begin
    let m = Common.metric in
    m "setup_s" "s" e.setup_s;
    m "work_s" "s" e.work_s;
    m "cpu_s" "s" e.cpu_s;
    m "peak_rss_mb" "MB" e.peak_rss_mb
  end;
  Printf.printf "%s: %d operations, %d failed (%.2f %%), nproc %d\n" workload !Common.attempted
    !Common.failed
    (100. *. float_of_int !Common.failed /. float_of_int (max 1 !Common.attempted))
    (Common.nproc ());
  Common.print_result ()

let () =
  match main () with
  | () -> ()
  | exception e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
