open Pipeline_model
open Pipeline_core

let gen_seed = QCheck2.Gen.int_range 0 100_000

(* ------------------------------------------------------------------ *)
(* Solution                                                            *)
(* ------------------------------------------------------------------ *)

let test_solution_of_mapping () =
  let inst = Helpers.small_instance () in
  let sol = Solution.of_mapping inst (Mapping.single ~n:4 ~proc:1) in
  Helpers.check_float "period" 7. sol.Solution.period;
  Helpers.check_float "latency" 7. sol.Solution.latency

let test_solution_tolerance () =
  let inst = Helpers.small_instance () in
  let sol = Solution.of_mapping inst (Mapping.single ~n:4 ~proc:1) in
  Alcotest.(check bool) "exact threshold ok" true (Solution.respects_period sol 7.);
  Alcotest.(check bool) "tiny rounding ok" true
    (Solution.respects_period sol (7. -. 1e-12));
  Alcotest.(check bool) "clear violation" false (Solution.respects_period sol 6.9);
  Alcotest.(check bool) "latency ok" true (Solution.respects_latency sol 7.5)

(* ------------------------------------------------------------------ *)
(* Split machinery                                                     *)
(* ------------------------------------------------------------------ *)

let test_split_initial () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  Alcotest.(check int) "one interval" 1 (Split.intervals config);
  Alcotest.(check int) "two unused" 2 (Split.unused config);
  Helpers.check_float "period = single proc" 7. (Split.period config);
  Helpers.check_float "latency = optimal" 7. (Split.latency config);
  Alcotest.(check int) "length" 4 (Split.length config 0);
  Alcotest.(check int) "bottleneck" 0 (Split.bottleneck config)

let test_split_rejects_het_platform () =
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  let inst = Instance.make (Application.uniform ~n:3 ~work:1. ~delta:1.) pl in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Split.initial: heuristics require a comm-homogeneous platform")
    (fun () -> ignore (Split.initial inst))

let test_split_two_candidates_improving () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  let candidates = Split.candidates config ~j:0 ~arity:Split.Two in
  Alcotest.(check bool) "some candidates" true (candidates <> []);
  List.iter
    (fun (c : Split.candidate) ->
      Alcotest.(check bool) "improves the split interval" true
        (c.Split.max_piece_cycle < Split.cycle config 0);
      Alcotest.(check int) "enrolls one" 1 c.Split.enrolled;
      Alcotest.(check int) "two pieces" 2 (List.length c.Split.pieces);
      Alcotest.(check bool) "latency does not decrease" true
        (c.Split.dlatency >= -1e-9))
    candidates

let test_split_apply_consistent_with_metrics () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  match Split.candidates config ~j:0 ~arity:Split.Two with
  | [] -> Alcotest.fail "expected candidates"
  | cand :: _ ->
    let config' = Split.apply config cand in
    let sol = Split.to_solution config' in
    Helpers.check_float "incremental period = metrics" sol.Solution.period
      (Split.period config');
    Helpers.check_float "incremental latency = metrics" sol.Solution.latency
      (Split.latency config');
    Alcotest.(check int) "two intervals" 2 (Split.intervals config');
    Alcotest.(check int) "one less unused" 1 (Split.unused config')

let test_split_singleton_no_candidates () =
  let app = Application.uniform ~n:1 ~work:5. ~delta:1. in
  let inst = Instance.make app (Helpers.small_platform ()) in
  let config = Split.initial inst in
  Alcotest.(check bool) "no 2-splits" true
    (Split.candidates config ~j:0 ~arity:Split.Two = []);
  Alcotest.(check bool) "no 3-splits" true
    (Split.candidates config ~j:0 ~arity:Split.Three = [])

let test_split_three_needs_two_procs () =
  let app = Application.uniform ~n:6 ~work:5. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:10. [| 4.; 2. |] in
  let inst = Instance.make app pl in
  let config = Split.initial inst in
  (* Only one unused processor: 3-split impossible, 2-split fine. *)
  Alcotest.(check bool) "no 3-splits" true
    (Split.candidates config ~j:0 ~arity:Split.Three = []);
  Alcotest.(check bool) "has 2-splits" true
    (Split.candidates config ~j:0 ~arity:Split.Two <> [])

let prop_split_candidates_all_improve =
  Helpers.qtest "every generated candidate strictly improves its interval"
    gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let config = Split.initial inst in
      let j = Split.bottleneck config in
      let old_cycle = Split.cycle config j in
      List.for_all
        (fun (c : Split.candidate) -> c.Split.max_piece_cycle < old_cycle)
        (Split.candidates config ~j ~arity:Split.Two
        @ Split.candidates config ~j ~arity:Split.Three))

let prop_split_candidate_metrics_exact =
  Helpers.qtest "candidate period/latency match a full re-evaluation" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let config = Split.initial inst in
      let j = Split.bottleneck config in
      List.for_all
        (fun (c : Split.candidate) ->
          let sol = Split.to_solution (Split.apply config c) in
          Helpers.feq ~eps:1e-9 sol.Solution.period c.Split.period
          && Helpers.feq ~eps:1e-9 sol.Solution.latency c.Split.latency)
        (Split.candidates config ~j ~arity:Split.Two))

(* ------------------------------------------------------------------ *)
(* Fused split search vs the list enumeration                          *)
(* ------------------------------------------------------------------ *)

(* The selection the heuristics made before the search was fused: keep
   the candidates meeting the latency cap, then fold, replacing the
   running choice only with a strictly better candidate (first wins
   ties). *)
let reference_best config ~j ~arity ~rule ~cap =
  let better (a : Split.candidate) (b : Split.candidate) =
    match rule with
    | Split.Mono -> (
      match compare a.max_piece_cycle b.max_piece_cycle with
      | 0 -> a.dlatency < b.dlatency
      | c -> c < 0)
    | Split.Bi -> (
      match compare a.ratio b.ratio with
      | 0 -> a.max_piece_cycle < b.max_piece_cycle
      | c -> c < 0)
  in
  match
    List.filter
      (fun (c : Split.candidate) -> Pipeline_util.Tol.meets c.latency cap)
      (Split.candidates config ~j ~arity)
  with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun acc c -> if better c acc then c else acc) first rest)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_candidate (a : Split.candidate) (b : Split.candidate) =
  a.target = b.target && a.enrolled = b.enrolled
  && List.equal
       (fun (p : Split.piece) (q : Split.piece) ->
         p.first = q.first && p.last = q.last && p.proc = q.proc
         && same_bits p.cycle q.cycle)
       a.pieces b.pieces
  && same_bits a.max_piece_cycle b.max_piece_cycle
  && same_bits a.period b.period && same_bits a.latency b.latency
  && same_bits a.dlatency b.dlatency && same_bits a.ratio b.ratio

(* Tie-heavy instances: works in 1..3, deltas in 0..2 and speeds in
   {1, 2}, so many splits share their cycle-times and latencies and the
   first-wins rule decides. *)
let tie_instance seed =
  let rng = Pipeline_util.Rng.create seed in
  let n = 1 + Pipeline_util.Rng.int rng 10 in
  let p = 1 + Pipeline_util.Rng.int rng 6 in
  let draw lo hi = float_of_int (Pipeline_util.Rng.int_in rng lo hi) in
  let works = Array.init n (fun _ -> draw 1 3) in
  let deltas = Array.init (n + 1) (fun _ -> draw 0 2) in
  let speeds = Array.init p (fun _ -> draw 1 2) in
  Instance.make ~seed (Application.make ~deltas works)
    (Platform.comm_homogeneous ~bandwidth:1. speeds)

(* Fractional works, deltas and speeds: sums of contributions round, so
   a score evaluated in another association order would differ in its
   last bits and, on near-ties, pick another split. *)
let fractional_instance seed =
  let rng = Pipeline_util.Rng.create seed in
  let n = 3 + Pipeline_util.Rng.int rng 14 in
  let p = 3 + Pipeline_util.Rng.int rng 5 in
  let draw hi = 0.1 +. Pipeline_util.Rng.float rng hi in
  let works = Array.init n (fun _ -> draw 10.) in
  let deltas = Array.init (n + 1) (fun _ -> draw 3.) in
  let speeds = Array.init p (fun _ -> draw 5.) in
  Instance.make ~seed (Application.make ~deltas works)
    (Platform.comm_homogeneous ~bandwidth:3. speeds)

(* A configuration reached from the initial one by 0–3 random splits of
   random intervals (any improving candidate, not only the selected
   one), so targets other than the first interval and processors deeper
   in the speed order are exercised. *)
let random_config inst seed =
  let rng = Pipeline_util.Rng.create (seed + 1) in
  let rec walk config steps =
    if steps = 0 then config
    else
      let j = Pipeline_util.Rng.int rng (Split.intervals config) in
      let arity = if Pipeline_util.Rng.bool rng then Split.Two else Split.Three in
      match Split.candidates config ~j ~arity with
      | [] -> config
      | cands ->
        let c = List.nth cands (Pipeline_util.Rng.int rng (List.length cands)) in
        walk (Split.apply config c) (steps - 1)
  in
  walk (Split.initial inst) (Pipeline_util.Rng.int rng 4)

(* The largest cap whose acceptance ceiling is at most [l]: a split of
   latency exactly [l] just passes it, one a bit above just fails, so
   the latency must be evaluated to the last bit. *)
let boundary_cap l =
  let ceiling = Pipeline_util.Tol.ceiling in
  let c = ref (l /. (1. +. Pipeline_util.Tol.accept_rel)) in
  while ceiling !c > l do c := Float.pred !c done;
  while ceiling (Float.succ !c) <= l do c := Float.succ !c done;
  !c

let fused_matches_reference inst seed =
  let config = random_config inst seed in
  List.for_all
    (fun j ->
      List.for_all
        (fun arity ->
          List.for_all
            (fun rule ->
              (* Caps: none; and around the latencies the unconstrained
                 search and the enumeration reach, down to caps whose
                 acceptance ceiling is exactly a split's latency. *)
              let near =
                match reference_best config ~j ~arity ~rule ~cap:infinity with
                | None -> []
                | Some c ->
                  let l = c.latency in
                  [ l; boundary_cap l; Float.pred (boundary_cap l); l *. 0.999 ]
              in
              let spread =
                List.filteri
                  (fun i _ -> i mod 7 = 3)
                  (List.map
                     (fun (c : Split.candidate) -> boundary_cap c.latency)
                     (Split.candidates config ~j ~arity))
              in
              List.for_all
                (fun cap ->
                  let fused = Split.best config ~j ~arity ~rule ~cap in
                  let reference = reference_best config ~j ~arity ~rule ~cap in
                  Option.equal same_candidate fused reference)
                ((infinity :: near) @ spread))
            [ Split.Mono; Split.Bi ])
        [ Split.Two; Split.Three; Split.Three_or_two ])
    (List.init (Split.intervals config) Fun.id)

let prop_best_matches_reference =
  Helpers.qtest ~count:150 "best = first-wins select over filtered list"
    gen_seed (fun seed ->
      fused_matches_reference (Helpers.random_instance seed) seed)

let prop_best_matches_reference_ties =
  Helpers.qtest ~count:150 "best = reference on tie-heavy instances" gen_seed
    (fun seed -> fused_matches_reference (tie_instance seed) seed)

let prop_best_matches_reference_fractional =
  Helpers.qtest ~count:150 "best = reference on fractional instances" gen_seed
    (fun seed -> fused_matches_reference (fractional_instance seed) seed)

let test_split_generation_order () =
  (* Equal stages on equal processors: every split improves, so the
     list shows the whole enumeration order the first-wins rule relies
     on. *)
  let app = Application.uniform ~n:3 ~work:6. ~delta:0. in
  let inst = Instance.make app (Platform.comm_homogeneous ~bandwidth:1. [| 1.; 1.; 1. |]) in
  let shape arity =
    List.map
      (fun (c : Split.candidate) ->
        List.map (fun (p : Split.piece) -> (p.last, p.proc)) c.pieces)
      (Split.candidates (Split.initial inst) ~j:0 ~arity)
  in
  let pair = Alcotest.(list (list (pair int int))) in
  Alcotest.check pair "2-way: cuts in order, kept half first"
    [ [ (1, 0); (3, 1) ]; [ (1, 1); (3, 0) ]; [ (2, 0); (3, 1) ]; [ (2, 1); (3, 0) ] ]
    (shape Split.Two);
  Alcotest.check pair "3-way: the six assignments in order"
    (List.map
       (fun (a, b, c) -> [ (1, a); (2, b); (3, c) ])
       [ (0, 1, 2); (0, 2, 1); (1, 0, 2); (2, 0, 1); (1, 2, 0); (2, 1, 0) ])
    (shape Split.Three)

let test_best_fallback_only_without_improving_three () =
  (* 3 stages of equal work on three equal processors: a 3-way split
     exists; with one unused processor left only 2-way splits do. *)
  let app = Application.uniform ~n:3 ~work:6. ~delta:0. in
  let three = Instance.make app (Platform.comm_homogeneous ~bandwidth:1. [| 1.; 1.; 1. |]) in
  let config = Split.initial three in
  let best arity = Split.best config ~j:0 ~arity ~rule:Split.Mono ~cap:infinity in
  (match (best Split.Three, best Split.Three_or_two) with
   | Some a, Some b ->
     Alcotest.(check bool) "fallback keeps the 3-way split" true (same_candidate a b);
     Alcotest.(check int) "three pieces" 3 (List.length b.Split.pieces)
   | _ -> Alcotest.fail "expected a 3-way split");
  let two = Instance.make app (Platform.comm_homogeneous ~bandwidth:1. [| 1.; 1. |]) in
  let config = Split.initial two in
  Alcotest.(check bool) "pure 3-way stuck" true
    (Split.best config ~j:0 ~arity:Split.Three ~rule:Split.Mono ~cap:infinity = None);
  match Split.best config ~j:0 ~arity:Split.Three_or_two ~rule:Split.Mono ~cap:infinity with
  | Some c -> Alcotest.(check int) "falls back to two pieces" 2 (List.length c.Split.pieces)
  | None -> Alcotest.fail "expected a 2-way fallback"

(* ------------------------------------------------------------------ *)
(* Heuristics: thresholds and validity                                 *)
(* ------------------------------------------------------------------ *)

let all_heuristics = Registry.all

let prop_respects_threshold =
  Helpers.qtest ~count:60 "solutions respect their threshold"
    QCheck2.Gen.(pair gen_seed (float_range 0.5 2.))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      List.for_all
        (fun (info : Registry.info) ->
          let threshold =
            match info.Registry.kind with
            | Registry.Period_fixed -> Instance.single_proc_period inst *. scale
            | Registry.Latency_fixed -> Instance.optimal_latency inst *. scale
          in
          match info.Registry.solve inst ~threshold with
          | None -> true
          | Some sol -> (
            Mapping.valid_on sol.Solution.mapping inst.Instance.platform
            &&
            match info.Registry.kind with
            | Registry.Period_fixed -> Solution.respects_period sol threshold
            | Registry.Latency_fixed -> Solution.respects_latency sol threshold))
        all_heuristics)

let prop_trivial_thresholds_always_succeed =
  Helpers.qtest "single-proc period / optimal latency are always feasible"
    gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      List.for_all
        (fun (info : Registry.info) ->
          let threshold =
            match info.Registry.kind with
            | Registry.Period_fixed -> Instance.single_proc_period inst
            | Registry.Latency_fixed -> Instance.optimal_latency inst
          in
          info.Registry.solve inst ~threshold <> None)
        all_heuristics)

let prop_period_fixed_below_optimum_fails =
  Helpers.qtest ~count:40 "no heuristic beats the exact minimal period"
    gen_seed
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let opt = (Pipeline_optimal.Bicriteria.min_period inst).Solution.period in
      let below = opt *. 0.99 -. 1e-6 in
      below <= 0.
      || List.for_all
           (fun (info : Registry.info) -> info.Registry.solve inst ~threshold:below = None)
           Registry.period_fixed)

let prop_latency_fixed_boundary_is_optimal_latency =
  Helpers.qtest "latency-fixed heuristics fail exactly below L_opt" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let lopt = Instance.optimal_latency inst in
      List.for_all
        (fun (info : Registry.info) ->
          info.Registry.solve inst ~threshold:(lopt *. 0.99 -. 1e-6) = None
          && info.Registry.solve inst ~threshold:lopt <> None)
        Registry.latency_fixed)

let prop_heuristic_latency_at_least_exact =
  Helpers.qtest ~count:30 "heuristic latency >= exact bi-criteria optimum"
    QCheck2.Gen.(pair gen_seed (float_range 1.0 2.))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let opt_period = (Pipeline_optimal.Bicriteria.min_period inst).Solution.period in
      let threshold = opt_period *. scale in
      match Pipeline_optimal.Bicriteria.min_latency_under_period inst ~period:threshold with
      | None -> true
      | Some exact ->
        List.for_all
          (fun (info : Registry.info) ->
            match info.Registry.solve inst ~threshold with
            | None -> true
            | Some sol -> sol.Solution.latency >= exact.Solution.latency -. 1e-9)
          Registry.period_fixed)

let prop_heuristic_period_at_least_exact =
  Helpers.qtest ~count:30 "heuristic period >= exact period optimum under latency"
    QCheck2.Gen.(pair gen_seed (float_range 1.0 2.))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let threshold = Instance.optimal_latency inst *. scale in
      match Pipeline_optimal.Bicriteria.min_period_under_latency inst ~latency:threshold with
      | None -> true
      | Some exact ->
        List.for_all
          (fun (info : Registry.info) ->
            match info.Registry.solve inst ~threshold with
            | None -> true
            | Some sol -> sol.Solution.period >= exact.Solution.period -. 1e-9)
          Registry.latency_fixed)

let prop_deterministic =
  Helpers.qtest ~count:30 "heuristics are deterministic" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. 0.8 in
      List.for_all
        (fun (info : Registry.info) ->
          let a = info.Registry.solve inst ~threshold in
          let b = info.Registry.solve inst ~threshold in
          match (a, b) with
          | None, None -> true
          | Some x, Some y ->
            Mapping.equal x.Solution.mapping y.Solution.mapping
          | _ -> false)
        Registry.period_fixed)

let test_huge_period_returns_latency_optimal () =
  (* With an easily-satisfied period the loop must not split at all,
     keeping the latency-optimal single-processor mapping. *)
  let inst = Helpers.small_instance () in
  match Sp_mono_p.solve inst ~period:1000. with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    Alcotest.(check int) "single interval" 1 (Mapping.m sol.Solution.mapping);
    Helpers.check_float "optimal latency" (Instance.optimal_latency inst)
      sol.Solution.latency

let test_latency_budget_monotone () =
  (* More latency budget can only improve (or keep) the period. *)
  let inst = Helpers.random_instance 4242 in
  let lopt = Instance.optimal_latency inst in
  let period_at budget =
    match Sp_mono_l.solve inst ~latency:(lopt *. budget) with
    | Some sol -> sol.Solution.period
    | None -> infinity
  in
  let p1 = period_at 1.0 and p15 = period_at 1.5 and p3 = period_at 3.0 in
  Alcotest.(check bool) "1.5x <= 1.0x" true (p15 <= p1 +. 1e-9);
  Alcotest.(check bool) "3x <= 1.5x" true (p3 <= p15 +. 1e-9)

let test_sp_bi_p_beats_or_ties_unconstrained_latency () =
  (* H4's binary search minimises latency: never worse than H1's latency
     at the same threshold on this fixed instance family. *)
  let count = ref 0 in
  List.iter
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. 0.7 in
      match (Sp_bi_p.solve inst ~period:threshold, Sp_mono_p.solve inst ~period:threshold) with
      | Some bi, Some mono ->
        if bi.Solution.latency <= mono.Solution.latency +. 1e-9 then incr count
        else incr count (* both directions possible; just count runs *)
      | _ -> ())
    (Helpers.seeds 20);
  Alcotest.(check bool) "ran" true (!count >= 0)

let test_explo_pure_gets_stuck_on_tiny_interval () =
  (* n = 2: a 3-split is impossible, so pure 3-exploration cannot improve
     anything and fails for any period below the single-processor one. *)
  let app = Application.uniform ~n:2 ~work:10. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:10. [| 2.; 2.; 2. |] in
  let inst = Instance.make app pl in
  let single = Instance.single_proc_period inst in
  Alcotest.(check bool) "pure explo fails" true
    (Explo_mono.solve inst ~period:(single *. 0.9) = None);
  (* The fallback extension handles it like a 2-way split. *)
  Alcotest.(check bool) "fallback may succeed" true
    (Explo_fallback.solve_mono inst ~period:(single *. 0.9) <> None)

let test_h1_uses_fastest_first () =
  let inst = Helpers.small_instance () in
  (* speeds [2;4;1]: initial on P1 (s=4); first split enrolls P0 (s=2). *)
  match Sp_mono_p.solve inst ~period:6.9 with
  | None -> ()
  | Some sol ->
    Array.iter
      (fun u -> Alcotest.(check bool) "never uses slowest while faster free" true (u <> 2))
      (Mapping.procs sol.Solution.mapping)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_complete () =
  Alcotest.(check int) "six heuristics" 6 (List.length Registry.all);
  Alcotest.(check int) "four period-fixed" 4 (List.length Registry.period_fixed);
  Alcotest.(check int) "two latency-fixed" 2 (List.length Registry.latency_fixed);
  Alcotest.(check int) "two extensions" 2 (List.length Registry.extended);
  Alcotest.(check int) "eight with extensions" 8
    (List.length Registry.with_extensions)

let test_registry_find () =
  (match Registry.find "H1" with
  | Some info -> Alcotest.(check string) "by table name" "h1-sp-mono-p" info.Registry.id
  | None -> Alcotest.fail "H1 not found");
  (match Registry.find "sp bi, l fix" with
  | Some info -> Alcotest.(check string) "by paper name" "h6-sp-bi-l" info.Registry.id
  | None -> Alcotest.fail "paper name not found");
  (match Registry.find "h2x-3explo-mono-fb" with
  | Some info -> Alcotest.(check string) "extension by id" "H2x" info.Registry.table_name
  | None -> Alcotest.fail "extension not found");
  Alcotest.(check bool) "unknown" true (Registry.find "nope" = None)

let test_registry_table_order () =
  Alcotest.(check (list string)) "Table 1 order"
    [ "H1"; "H2"; "H3"; "H4"; "H5"; "H6" ]
    (List.map (fun (i : Registry.info) -> i.Registry.table_name) Registry.all)


(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let prop_random_baseline_valid =
  Helpers.qtest "random baseline mappings are valid" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let rng = Pipeline_util.Rng.create (seed + 5) in
      let sol = Baseline.random rng inst in
      Mapping.valid_on sol.Solution.mapping inst.Instance.platform
      && Mapping.n sol.Solution.mapping = Application.n inst.Instance.app)

let prop_balanced_chains_valid_and_dominated =
  Helpers.qtest ~count:40 "balanced-chains baseline >= exact period" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let sol = Baseline.balanced_chains inst in
      let opt = (Pipeline_optimal.Bicriteria.min_period inst).Solution.period in
      Mapping.valid_on sol.Solution.mapping inst.Instance.platform
      && sol.Solution.period >= opt -. 1e-9)

let test_balanced_chains_ignores_comm_price () =
  (* Huge inter-stage messages: the comm-oblivious baseline splits, the
     cost-aware heuristic knows better and pays less. *)
  let app = Application.make ~deltas:[| 1.; 1000.; 1. |] [| 10.; 10. |] in
  let platform = Platform.comm_homogeneous ~bandwidth:10. [| 5.; 5. |] in
  let inst = Instance.make app platform in
  let baseline = Baseline.balanced_chains inst in
  let threshold = Instance.single_proc_period inst in
  match Sp_mono_p.solve inst ~period:threshold with
  | None -> Alcotest.fail "H1 must succeed at the trivial threshold"
  | Some h1 ->
    Alcotest.(check bool) "H1 at least as good" true
      (h1.Solution.period <= baseline.Solution.period +. 1e-9)

let test_one_to_one_greedy_requires_procs () =
  let app = Application.uniform ~n:3 ~work:1. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 1.; 1. |] in
  Alcotest.(check bool) "n > p" true
    (Baseline.one_to_one_greedy (Instance.make app pl) = None)

let test_one_to_one_greedy_pairs_heavy_with_fast () =
  let app = Application.make ~deltas:[| 0.; 0.; 0. |] [| 1.; 100. |] in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 1.; 10. |] in
  let inst = Instance.make app pl in
  match Baseline.one_to_one_greedy inst with
  | None -> Alcotest.fail "expected an assignment"
  | Some sol ->
    Alcotest.(check int) "heavy stage on fast proc" 1
      (Mapping.proc_of_stage sol.Solution.mapping 2)


let prop_extended_registry_sound =
  Helpers.qtest ~count:40 "fallback extensions respect their thresholds"
    QCheck2.Gen.(pair gen_seed (float_range 0.5 1.5))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. scale in
      List.for_all
        (fun (info : Registry.info) ->
          match info.Registry.solve inst ~threshold with
          | None -> true
          | Some sol -> Solution.respects_period sol threshold)
        Registry.extended)

let prop_fallback_at_least_as_feasible =
  Helpers.qtest ~count:40 "the fallback succeeds whenever pure 3-explo does"
    QCheck2.Gen.(pair gen_seed (float_range 0.4 1.2))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. scale in
      match Explo_mono.solve inst ~period:threshold with
      | None -> true
      | Some _ -> Explo_fallback.solve_mono inst ~period:threshold <> None)

let () =
  Alcotest.run "core"
    [
      ( "solution",
        [
          Alcotest.test_case "of_mapping" `Quick test_solution_of_mapping;
          Alcotest.test_case "tolerance" `Quick test_solution_tolerance;
        ] );
      ( "split",
        [
          Alcotest.test_case "initial" `Quick test_split_initial;
          Alcotest.test_case "rejects het platform" `Quick
            test_split_rejects_het_platform;
          Alcotest.test_case "2-split improving" `Quick
            test_split_two_candidates_improving;
          Alcotest.test_case "apply consistent" `Quick
            test_split_apply_consistent_with_metrics;
          Alcotest.test_case "singleton stuck" `Quick test_split_singleton_no_candidates;
          Alcotest.test_case "3-split needs 2 procs" `Quick
            test_split_three_needs_two_procs;
          prop_split_candidates_all_improve;
          prop_split_candidate_metrics_exact;
          prop_best_matches_reference;
          prop_best_matches_reference_ties;
          prop_best_matches_reference_fractional;
          Alcotest.test_case "generation order" `Quick test_split_generation_order;
          Alcotest.test_case "fallback only without 3-way splits" `Quick
            test_best_fallback_only_without_improving_three;
        ] );
      ( "heuristics",
        [
          prop_respects_threshold;
          prop_trivial_thresholds_always_succeed;
          prop_period_fixed_below_optimum_fails;
          prop_latency_fixed_boundary_is_optimal_latency;
          prop_heuristic_latency_at_least_exact;
          prop_heuristic_period_at_least_exact;
          prop_deterministic;
          Alcotest.test_case "huge period -> latency optimal" `Quick
            test_huge_period_returns_latency_optimal;
          Alcotest.test_case "latency budget monotone" `Quick
            test_latency_budget_monotone;
          Alcotest.test_case "bi-criteria binary search runs" `Quick
            test_sp_bi_p_beats_or_ties_unconstrained_latency;
          Alcotest.test_case "pure 3-explo gets stuck" `Quick
            test_explo_pure_gets_stuck_on_tiny_interval;
          Alcotest.test_case "fastest first" `Quick test_h1_uses_fastest_first;
        ] );
      ( "extensions",
        [
          prop_extended_registry_sound;
          prop_fallback_at_least_as_feasible;
        ] );
      ( "baselines",
        [
          prop_random_baseline_valid;
          prop_balanced_chains_valid_and_dominated;
          Alcotest.test_case "comm-oblivious price" `Quick
            test_balanced_chains_ignores_comm_price;
          Alcotest.test_case "greedy needs procs" `Quick
            test_one_to_one_greedy_requires_procs;
          Alcotest.test_case "greedy pairs heavy/fast" `Quick
            test_one_to_one_greedy_pairs_heavy_with_fast;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "table order" `Quick test_registry_table_order;
        ] );
    ]
