(* Measurement plumbing shared by the workloads: clocks, quantiles,
   process statistics, the run's operation tally, the benchmark's own
   spans, and the result line. *)

(* Seconds on the monotonic clock, to the nanosecond. *)
external wall : unit -> float = "perfbench_monotonic_s"

(* CPU seconds of this process, every domain and thread included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

(* Linear-interpolation quantile of an unsorted sample ([q] in [0, 1]). *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile of an empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Median of [k] timed repetitions of [f]; the last result is kept. *)
let median_time k f =
  let last = ref None in
  let ts =
    Array.init k (fun _ ->
        let r, t = timed f in
        last := Some r;
        t)
  in
  (Option.get !last, median ts)

(* Set-up timed at many moments of a run rather than in one burst at
   its start, where a slow second of the machine would decide it:
   [rep ()] runs [f] and keeps its time, [median ()] is the median of
   every rep so far. *)
let reps f =
  let ts = ref [] in
  let rep () =
    let r, t = timed f in
    ts := t :: !ts;
    r
  in
  (rep, fun () -> median (Array.of_list !ts))

(* Wall and CPU seconds of a run's measured units, summed. *)
type clock = { mutable wall_s : float; mutable cpu_s : float }

let clock () = { wall_s = 0.; cpu_s = 0. }

let clocked c f =
  let c0 = cpu () in
  let r, t = timed f in
  c.wall_s <- c.wall_s +. t;
  c.cpu_s <- c.cpu_s +. (cpu () -. c0);
  r

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let kb =
    List.find_map
      (fun l ->
        Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (read_lines path)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("no VmHWM in " ^ path)

(* CPU seconds (user + system, all threads) of another process. The
   kernel reports them in USER_HZ ticks, which Linux fixes at 100. *)
let proc_cpu_s pid =
  let stat = List.hd (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  (* The command name may hold spaces; fields resume after its ')'. *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of the line; [rest] starts at
     field 3. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

let nproc () =
  List.length
    (List.filter
       (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
       (read_lines "/proc/cpuinfo"))

(* ------------------------------------------------------------------ *)
(* Operations and checks                                               *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* Count one operation; a failed check prints its reason to stderr. *)
let op ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("perfbench: check failed: " ^ msg)
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own spans around calls into a layer. Each span is
   also an [Obs] span (so it lands in the Chrome trace); its total and
   self time (total minus enclosed spans) accumulate per name. Off
   unless the run is traced. *)
type acc = { mutable calls : int; mutable total : float; mutable self : float }

let traced = ref false
let accs : (string, acc) Hashtbl.t = Hashtbl.create 16
let order = ref []
let children = ref [ ref 0. ]

let span name f =
  if not !traced then f ()
  else begin
    let acc =
      match Hashtbl.find_opt accs name with
      | Some a -> a
      | None ->
        let a = { calls = 0; total = 0.; self = 0. } in
        Hashtbl.add accs name a;
        order := name :: !order;
        a
    in
    let inner = ref 0. in
    children := inner :: !children;
    let t0 = wall () in
    Fun.protect
      ~finally:(fun () ->
        let d = wall () -. t0 in
        children := List.tl !children;
        (List.hd !children) := !(List.hd !children) +. d;
        acc.calls <- acc.calls + 1;
        acc.total <- acc.total +. d;
        acc.self <- acc.self +. (d -. !inner))
      (fun () -> Obs.span name f)
  end

let print_spans () =
  Printf.printf "%-34s %8s %12s %12s\n" "span" "calls" "total_s" "self_s";
  List.iter
    (fun name ->
      let a = Hashtbl.find accs name in
      Printf.printf "%-34s %8d %12.6f %12.6f\n" name a.calls a.total a.self)
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let obs name =
  match List.assoc_opt name (Obs.metrics ()) with Some v -> v | None -> 0

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics
let count name value = metric name "count" (float_of_int value)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of stdout: exactly [correct], [attempted], [failed]
   and [metrics]. A non-finite value is itself a failed check. *)
let print_result () =
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then op false "%s is %g" name v)
    ms;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (number (if Float.is_finite v then v else 0.))
             unit)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed body

(* ------------------------------------------------------------------ *)
(* CPU affinity                                                        *)
(* ------------------------------------------------------------------ *)

external pin : unit -> unit = "perfbench_pin"
external unpin : unit -> unit = "perfbench_unpin"

(* Run [f] on one CPU, together with every process it starts. A
   closed-loop client and a one-request-at-a-time daemon then hand the
   CPU to each other directly, instead of waking an idle virtual CPU
   for every reply. *)
let pinned f =
  pin ();
  Fun.protect ~finally:unpin f

external pin_to : int -> int -> unit = "perfbench_pin_to"

(* Move the calling thread, and every thread of the processes [pids],
   to the [k]-th CPU (modulo the CPUs the run may use). A long run that
   moves between CPUs averages over them: on a VM the speed of each
   virtual CPU drifts, and not in step. *)
let on_cpu ?(pids = []) k =
  let tids pid =
    try Array.to_list (Sys.readdir (Printf.sprintf "/proc/%d/task" pid)) |> List.map int_of_string
    with Sys_error _ -> []
  in
  pin_to 0 k;
  List.iter (fun tid -> pin_to tid k) (List.concat_map tids pids)
