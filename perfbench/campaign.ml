(* The paper's evaluation path: Table 1 (E1-E4, p = 10, n in
   {5, 10, 20, 40}, 50 pairs per cell) at --jobs 2, then a fixed series of
   Branch_bound period proofs on 12 x 100 instances. The only workload
   that uses Pool and the exact solvers; its 50-instance batches cycle
   through the 8-entry per-domain Cost LRU, so engines are rebuilt. *)

open Pipeline_experiments
module Pool = Pipeline_util.Pool
module Bb = Pipeline_optimal.Branch_bound

let p = 10
let ns = [ 5; 10; 20; 40 ]
let pairs = 50
let jobs = 2
let proofs = 8
let bnb_n = 12
let bnb_p = 100

(* The Table 1 CSVs the repository commits were made at this seed. *)
let reference_seed = 2007

let experiments = Config.all_experiments
let name = Config.experiment_name

let csv_path e =
  Printf.sprintf "results/table1-%s-p%d.csv" (String.lowercase_ascii (name e)) p

let reference e =
  match Common.read_lines (csv_path e) with
  | _header :: rows -> Some rows
  | [] | (exception Sys_error _) -> None

(* The proof series is the same at every seed: the exact rung's
   instance (Scaling's seed 2007) and its seven successors. Proof cost
   and, above all, memory differ by instance far more than Table 1's
   800-instance averages do, so a seeded series would make the run's
   peak memory a draw rather than a measurement. *)
let bnb_instances () =
  List.init proofs (fun i -> Scaling.bnb_instance ~seed:(reference_seed + i) ~n:bnb_n ~p:bnb_p)

let min_period inst = Bb.min_period inst

(* Everything the measured work consumes, made from the seed: the
   Table 1 batches, the proof instances and the reference tables. Pool
   start-up stays in the measured work: Pool spawns its domains on every
   dispatch, and a spawn waits for the other CPU, which on a VM can take
   several times as long as the rest of the set-up. *)
let setup ~seed =
  List.iter
    (fun e ->
      List.iter
        (fun n -> ignore (Workload.instances (Config.default_setup ~pairs ~seed e ~n ~p)))
        ns)
    experiments;
  let insts = bnb_instances () in
  let refs = if seed = reference_seed then List.map (fun e -> (e, reference e)) experiments else [] in
  (insts, refs)

(* One Table 1 cell: the six heuristics' mean boundaries over one batch.
   Failure.table generates each n's batch independently, so cells are
   the columns of the full table. *)
let cell ~seed e n =
  Common.span "layer.failure.table" (fun () ->
      (Failure.table ~seed e ~p ~ns:[ n ]).Failure.rows)

let prove inst = Common.span "layer.branch_bound.min_period" (fun () -> min_period inst)

let proof_key (r : Bb.result) =
  let sol = r.Bb.solution in
  Printf.sprintf "%h %h %s %d %b" sol.Pipeline_core.Solution.period
    sol.Pipeline_core.Solution.latency
    (Pipeline_model.Mapping.to_string sol.Pipeline_core.Solution.mapping)
    r.Bb.nodes r.Bb.proven_optimal

(* [cells] holds, per experiment, the per-n rows in [ns] order. *)
let check_tables ~seed ~refs cells =
  List.iter
    (fun (e, columns) ->
      let rows =
        List.map
          (fun (row, _) ->
            (row, List.map (fun col -> List.hd (List.assoc row col)) columns))
          (List.hd columns)
      in
      List.iteri
        (fun i (row, values) ->
          let got = String.concat "," (row :: List.map (Printf.sprintf "%.2f") values) in
          let finite = List.for_all (fun v -> Float.is_finite v && v > 0.) values in
          if seed = reference_seed then
            match List.assoc_opt e refs with
            | Some (Some want) ->
              let want = Option.value (List.nth_opt want i) ~default:"<missing>" in
              Common.op (finite && got = want) "table1 %s: %s, want %s" (name e) got want
            | _ -> Common.op false "table1 %s: cannot read %s" (name e) (csv_path e)
          else Common.op finite "table1 %s: %s" (name e) got)
        rows)
    cells

(* Bit-identity across --jobs: each experiment's n = 5 cell again at
   jobs 1. *)
let check_jobs1 ~seed cells =
  Pool.set_jobs 1;
  List.iter
    (fun (e, columns) ->
      let j2 = List.hd columns in
      let j1 = (Failure.table ~seed e ~p ~ns:[ List.hd ns ]).Failure.rows in
      List.iter2
        (fun (row, v) (row', v') ->
          Common.op
            (row = row' && List.map Int64.bits_of_float v = List.map Int64.bits_of_float v')
            "table1 %s row %s n=%d differs between jobs %d and 1" (name e) row (List.hd ns)
            jobs)
        j2 j1)
    cells;
  Pool.set_jobs jobs

(* Every proof again at jobs 1: optimum, witness, node count and the
   proven flag must be identical. *)
let check_proofs ~j2 insts =
  Pool.set_jobs 1;
  List.iteri
    (fun i (inst, r2) ->
      let r1 = min_period inst in
      Common.op (proof_key r1 = proof_key r2) "proof %d differs between jobs %d (%s) and 1 (%s)"
        i jobs (proof_key r2) (proof_key r1))
    (List.combine insts j2);
  Pool.set_jobs jobs

type outcome = {
  setup_s : float;
  work_s : float;
  table1_s : float;
  exact_s : float;
  cpu_s : float;
  nodes : int list;
}

let run ~seed =
  Pool.set_jobs jobs;
  let setup_rep, setup_s = Common.reps (fun () -> setup ~seed) in
  let insts, refs = setup_rep () in
  (* Each cell and each proof is clocked on its own and followed by one
     more set-up, off the clock. *)
  let table1 = Common.clock () and exact = Common.clock () in
  let unit c f =
    let r = Common.clocked c f in
    ignore (setup_rep ());
    r
  in
  let cells =
    List.map (fun e -> (e, List.map (fun n -> unit table1 (fun () -> cell ~seed e n)) ns)) experiments
  in
  let results = List.map (fun inst -> unit exact (fun () -> prove inst)) insts in
  let outcome =
    {
      setup_s = setup_s ();
      work_s = table1.Common.wall_s +. exact.Common.wall_s;
      table1_s = table1.Common.wall_s;
      exact_s = exact.Common.wall_s;
      cpu_s = table1.Common.cpu_s +. exact.Common.cpu_s;
      nodes = List.map (fun (r : Bb.result) -> r.Bb.nodes) results;
    }
  in
  (* Checks come after the clock stops; [finish] runs them so a traced
     run can first read its counters. *)
  let finish () =
    check_tables ~seed ~refs cells;
    check_jobs1 ~seed cells;
    check_proofs ~j2:results insts
  in
  (outcome, finish)
