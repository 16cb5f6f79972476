(* The daemon: `pipeline_sched serve --port 0` as its own process with
   default flags, driven by one closed-loop client (the next request
   leaves only after the previous reply) with a seeded mix:
   60 % warm /solve cycling 4 24 x 8 instances that fit both caches
   (cache reads), 20 % cold /solve on a fresh platform each (engine
   build, candidate enumeration, eviction), 20 % /simulate of 1 000 data
   sets on the warm instances (DES). /pareto is left out: one large
   request would dominate the run. *)

open Pipeline_model
module Http = Pipeline_serve.Http
module Protocol = Pipeline_serve.Protocol

let daemon_exe = "_build/default/bin/pipeline_sched.exe"
let stages = 24
let procs = 8
let warm_platforms = 4
let datasets = 1000
let warm_epoch = 1000

(* Client and daemon share one CPU and move together to the next CPU
   every [cpu_block] requests (about 0.25 s), so the sequence's time is
   an average over the machine's CPUs. *)
let cpu_block = 500

(* Requests per second of --seconds: sized so the sequence takes most
   of that long on a 2-core machine (the checks take the rest). *)
let requests_per_second = 1800

type cls = Warm | Cold | Simulate

let cls_name = function Warm -> "solve_warm" | Cold -> "solve_cold" | Simulate -> "simulate"

type request = { cls : cls; path : string; body : string }

(* ------------------------------------------------------------------ *)
(* The client                                                          *)
(* ------------------------------------------------------------------ *)

(* One request per connection, as the daemon speaks. The socket closes
   with SO_LINGER 0, so neither end keeps it in TIME_WAIT: tens of
   thousands of those per run would leave the kernel expiring them
   during the next runs. The reply has been read in full by then. *)
let roundtrip ~port text =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0) with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string text in
      let rec send off =
        if off < Bytes.length b then send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let acc = Buffer.create 1024 and chunk = Bytes.create 8192 in
      let rec drain () =
        let got = Unix.read fd chunk 0 (Bytes.length chunk) in
        if got > 0 then begin
          Buffer.add_subbytes acc chunk 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents acc)

(* [Ok (status, body)], or [Error] on a transport failure or a reply
   that is not HTTP. *)
let call ~port text =
  match roundtrip ~port text with
  | exception Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)
  | raw -> (
    let head_end =
      let rec find i =
        if i + 3 >= String.length raw then None
        else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r' && raw.[i + 3] = '\n'
        then Some i
        else find (i + 1)
      in
      find 0
    in
    match (head_end, Scanf.sscanf_opt raw "HTTP/1.1 %d " Fun.id) with
    | Some i, Some status -> Ok (status, String.sub raw (i + 4) (String.length raw - i - 4))
    | _ -> Error "malformed reply")

let get ~port path = call ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" path)

let post ~port path ~body =
  call ~port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int }

(* Daemons still running, with their stdout; any left at exit are
   stopped and waited for. *)
let live : (int * in_channel) list ref = ref []

let stop_pid pid =
  match List.assoc_opt pid !live with
  | None -> ()
  | Some out ->
    live := List.remove_assoc pid !live;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in_noerr out

let stop d = stop_pid d.pid
let () = at_exit (fun () -> List.iter (fun (pid, _) -> stop_pid pid) !live)

let start () =
  if not (Sys.file_exists daemon_exe) then failwith (daemon_exe ^ " is not built");
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process daemon_exe [| daemon_exe; "serve"; "--port"; "0" |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  live := (pid, out) :: !live;
  let port = Scanf.sscanf (input_line out) "pipeline-sched: serving on 127.0.0.1:%d" Fun.id in
  (match get ~port "/health" with
  | Ok (200, _) -> ()
  | _ -> failwith "daemon did not answer /health");
  { pid; port }

(* ------------------------------------------------------------------ *)
(* Request bodies                                                      *)
(* ------------------------------------------------------------------ *)

(* Bodies are printed with %.17g, which round-trips every float and is
   much cheaper to produce than the daemon's shortest form. *)
let num = Printf.sprintf "%.17g"
let floats a = "[" ^ String.concat "," (Array.to_list (Array.map num a)) ^ "]"

let instance_json ~works ~deltas ~speeds ~bandwidth =
  Printf.sprintf {|{"works":%s,"deltas":%s,"platform":{"speeds":%s,"bandwidth":%s}}|}
    (floats works) (floats deltas) (floats speeds) (num bandwidth)

let single_proc_period ~works ~deltas ~speeds ~bandwidth =
  Instance.single_proc_period
    (Instance.make
       (Application.make ~deltas works)
       (Platform.comm_homogeneous ~bandwidth speeds))

(* The whole request sequence, a pure function of the seed. Every cold
   request draws a fresh instance, and the warm set is redrawn every
   [warm_epoch] requests, so a run's cost is an average over many
   instances rather than a few instances' luck; all but the first touch
   of each warm instance still hit both caches. *)
let requests ~seed ~count =
  let rng = Pipeline_util.Rng.create seed in
  let draw k lo hi = Array.init k (fun _ -> Pipeline_util.Rng.float_in rng lo hi) in
  let instance bandwidth =
    let works = draw stages 1. 10. in
    let deltas = draw (stages + 1) 1. 10. in
    let speeds = draw procs 1. 5. in
    (works, deltas, speeds, bandwidth)
  in
  let solve (works, deltas, speeds, bandwidth) =
    let period = 0.9 *. single_proc_period ~works ~deltas ~speeds ~bandwidth in
    Printf.sprintf {|{"instance":%s,"period":%s,"heuristic":"h1-sp-mono-p"}|}
      (instance_json ~works ~deltas ~speeds ~bandwidth)
      (num period)
  in
  let simulate (works, deltas, speeds, bandwidth) =
    (* The single-processor period is always met, so H1 never rejects. *)
    let period = single_proc_period ~works ~deltas ~speeds ~bandwidth in
    Printf.sprintf {|{"instance":%s,"period":%s,"datasets":%d}|}
      (instance_json ~works ~deltas ~speeds ~bandwidth)
      (num period) datasets
  in
  let warm = ref [||] and sims = ref [||] in
  let nwarm = ref 0 and nsim = ref 0 in
  Array.init count (fun i ->
      if i mod warm_epoch = 0 then begin
        let insts = Array.init warm_platforms (fun k -> instance (10. +. float_of_int k)) in
        warm := Array.map solve insts;
        sims := Array.map simulate insts
      end;
      let u = Pipeline_util.Rng.float rng 1. in
      if u < 0.6 then begin
        incr nwarm;
        { cls = Warm; path = "/solve"; body = !warm.(!nwarm mod warm_platforms) }
      end
      else if u < 0.8 then
        (* A bandwidth no other request uses: a fresh fingerprint. *)
        { cls = Cold; path = "/solve"; body = solve (instance (100. +. (0.001 *. float_of_int i))) }
      else begin
        incr nsim;
        { cls = Simulate; path = "/simulate"; body = !sims.(!nsim mod warm_platforms) }
      end)

let http_request r =
  { Http.meth = "POST"; path = r.path; headers = [ ("content-type", "application/json") ]; body = r.body }

(* ------------------------------------------------------------------ *)
(* /metrics                                                            *)
(* ------------------------------------------------------------------ *)

let scrape ~port =
  match get ~port "/metrics" with
  | Ok (200, text) ->
    List.filter_map
      (fun l ->
        if l = "" || l.[0] = '#' then None
        else Scanf.sscanf_opt l "%s %d" (fun k v -> (k, v)))
      (String.split_on_char '\n' text)
  | _ -> failwith "GET /metrics failed"

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  setup_s : float;
  work_s : float;
  cpu_s : float;
  rss_mb : float;
  lat : float array;  (** per request, in seconds *)
  scraped : (string * int) list;  (** the daemon's /metrics after the run *)
  requests : request array;
}

let latencies o c =
  Array.of_list
    (List.filteri (fun i _ -> o.requests.(i).cls = c) (Array.to_list o.lat))

(* Every reply must be a 200 byte-identical to an in-process
   Protocol.handle of the same request. Responses are a function of the
   request alone, so unless [all] is set each distinct body is handled
   once; with [all] the replay makes exactly the daemon's calls. *)
let check ~all reqs replies =
  let proto = Protocol.create () in
  let memo = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      let want =
        match Hashtbl.find_opt memo r.body with
        | Some w when not all -> w
        | _ ->
          let status, _, body =
            Common.span ("layer.protocol.handle:" ^ cls_name r.cls) (fun () ->
                Protocol.handle proto (http_request r))
          in
          Hashtbl.replace memo r.body (status, body);
          (status, body)
      in
      match replies.(i) with
      | Ok (200, body) when (200, body) = want -> Common.op true ""
      | Ok (200, _) -> Common.op false "request %d (%s): reply differs from in-process" i (cls_name r.cls)
      | Ok (status, _) -> Common.op false "request %d (%s): status %d" i (cls_name r.cls) status
      | Error e -> Common.op false "request %d (%s): %s" i (cls_name r.cls) e)
    reqs

(* Set-up is the daemon's: start it and see it answer, several times,
   one daemon at a time. The last one stays up for the run. *)
let setup () =
  let last = ref None in
  let ts =
    Array.init 21 (fun _ ->
        Option.iter stop !last;
        let d, t = Common.timed start in
        last := Some d;
        t)
  in
  (Option.get !last, Common.median ts)

let run ~seed ~seconds =
  let reqs = requests ~seed ~count:(requests_per_second * seconds) in
  let d, setup_s = setup () in
  let n = Array.length reqs in
  let lat = Array.make n 0. in
  let replies = Array.make n (Error "not sent") in
  let cpu0 = Common.proc_cpu_s d.pid in
  let t0 = Common.wall () in
  Array.iteri
    (fun i r ->
      if i mod cpu_block = 0 then Common.on_cpu ~pids:[ d.pid ] (i / cpu_block);
      let s0 = Common.wall () in
      let reply = post ~port:d.port r.path ~body:r.body in
      lat.(i) <- Common.wall () -. s0;
      replies.(i) <- reply)
    reqs;
  let work_s = Common.wall () -. t0 in
  let cpu_s = Common.proc_cpu_s d.pid -. cpu0 in
  let scraped = scrape ~port:d.port in
  let rss_mb = Common.peak_rss_mb (string_of_int d.pid) in
  stop d;
  ( { setup_s; work_s; cpu_s; rss_mb; lat; scraped; requests = reqs },
    fun ~all -> check ~all reqs replies )
