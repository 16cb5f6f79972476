(* The top E6 rung (50 000 stages x 1 000 processors) on several
   seeded instances, single-threaded, timed by Scaling's own per-phase
   clock. Its working set is far beyond
   any engine cache; it runs the lazy Candidates.Set lattice,
   Chains.Nicol and allocation-bound code, and uses neither Pool nor
   HTTP. *)

open Pipeline_experiments

let n = 50_000
let p = 1_000

(* Solves per second of --seconds: about 3.3 s each on a 2-core machine. *)
let solves_per_second = 0.25

(* The row the repository's code produces at the reference seed. *)
let reference_seed = 2007

let reference_row =
  "50000,1000,2559.000000,132.950000,19,1000,2.0,254.800000,198217.066667,990"

type outcome = {
  setup_s : float;
  work_s : float;  (** the sum of every solve's four phases *)
  cpu_s : float;  (** inside the phases *)
}

let csv_row m =
  match String.split_on_char '\n' (Scaling.to_csv [ m ]) with
  | _header :: row :: _ -> row
  | _ -> "<no row>"

let phases_s (m : Scaling.measurement) =
  let x = m.Scaling.timings in
  x.Scaling.build_s +. x.Scaling.nicol_s +. x.Scaling.exact_s +. x.Scaling.h1_s

(* One solve; [cpu] accumulates the CPU seconds spent inside Scaling's
   clocked phases, which exclude its instance generation. *)
let solve ~seed ~cpu =
  let last = ref None in
  let clock () =
    let c = Common.cpu () in
    Option.iter (fun l -> cpu := !cpu +. (c -. l)) !last;
    last := Some c;
    Common.wall ()
  in
  match Common.span "layer.scaling.run" (fun () -> Scaling.run ~clock ~seed [ (n, p) ]) with
  | [ m ] -> m
  | _ -> failwith "Scaling.run returned no row"

(* Solve [i] is on its own instance: instance costs differ by up to 3x in
   the exact phase, so a run averages over several. Instance 0 is the
   seed's own. *)
let instance_seed ~seed i = seed + (i * 100_000)

(* Set-up: generate every instance of the run. Scaling.run generates
   each again outside its clocked phases. *)
let setup ~seed ~count =
  for i = 0 to count - 1 do
    ignore (Scaling.instance ~seed:(instance_seed ~seed i) ~n ~p)
  done

let run ~seed ~seconds =
  let count = max 1 (int_of_float (Float.round (solves_per_second *. float_of_int seconds))) in
  (* Set-up is timed before the first solve and after each one. *)
  let setup_rep, setup_s = Common.reps (fun () -> setup ~seed ~count) in
  setup_rep ();
  let cpu = ref 0. in
  (* Each solve starts from a compacted heap, so it does not pay for the
     previous one's garbage, and runs on the next CPU in turn. *)
  let ms =
    Array.init count (fun i ->
        Common.on_cpu i;
        Gc.compact ();
        let m = solve ~seed:(instance_seed ~seed i) ~cpu in
        Gc.compact ();
        setup_rep ();
        m)
  in
  Array.iteri
    (fun i (m : Scaling.measurement) ->
      let x = m.Scaling.timings and r = m.Scaling.row in
      Common.op (r.Scaling.exact_period <= r.Scaling.h1_period)
        "web_scale solve %d: exact period above H1's, row %s" i (csv_row m);
      Printf.printf "web_scale: build %.3f nicol %.3f exact %.3f h1 %.3f s, row %s\n"
        x.Scaling.build_s x.Scaling.nicol_s x.Scaling.exact_s x.Scaling.h1_s (csv_row m))
    ms;
  (* Off the clock: the first instance again must give the same row, and
     at the reference seed the one recorded above. *)
  let row = csv_row ms.(0) in
  let again = csv_row (solve ~seed ~cpu:(ref 0.)) in
  Common.op (again = row) "web_scale row %s, then %s" row again;
  if seed = reference_seed then
    Common.op (row = reference_row) "web_scale row %s, want %s" row reference_row;
  { setup_s = setup_s (); work_s = Array.fold_left (fun acc m -> acc +. phases_s m) 0. ms; cpu_s = !cpu }
