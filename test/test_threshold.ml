(* Threshold-soundness: the exact candidate search (DESIGN.md §9).

   Three layers: the candidate sets contain every achievable period
   (membership properties against random mappings and the exact
   oracles), Threshold.search returns the smallest feasible candidate
   (checked against brute-force scans of the same probe), and the
   adaptive bisection reproduces the legacy fixed-count loops
   bit-for-bit (Sp_bi_p old vs new). *)

open Pipeline_model
open Pipeline_core
module Registry = Pipeline_registry
module Failure = Pipeline_experiments.Failure

let gen_seed = QCheck2.Gen.int_range 0 100_000
let gen_small = QCheck2.Gen.map (Helpers.random_instance ~n_max:7 ~p_max:4) gen_seed
let gen_tiny = QCheck2.Gen.map (Helpers.random_instance ~n_max:5 ~p_max:4) gen_seed

let candidates_of inst =
  Candidates.periods (Cost.get inst.Instance.app inst.Instance.platform)

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

let test_of_values () =
  let a = Candidates.of_values [ 3.; 1.; 2.; 1.; 3. ] in
  Alcotest.(check (array (float 0.))) "sorted, deduped" [| 1.; 2.; 3. |] a;
  Alcotest.check_raises "nan" (Invalid_argument "Candidates.of_values: NaN candidate")
    (fun () -> ignore (Candidates.of_values [ 1.; Float.nan ]))

let test_mem_ceiling () =
  let a = [| 1.; 3.; 5. |] in
  Alcotest.(check bool) "mem hit" true (Candidates.mem a 3.);
  Alcotest.(check bool) "mem miss" false (Candidates.mem a 2.);
  Alcotest.(check bool) "mem empty" false (Candidates.mem [||] 2.);
  Alcotest.(check (option (float 0.))) "ceiling between" (Some 3.)
    (Candidates.ceiling a 2.);
  Alcotest.(check (option (float 0.))) "ceiling exact" (Some 5.)
    (Candidates.ceiling a 5.);
  Alcotest.(check (option (float 0.))) "ceiling above" None (Candidates.ceiling a 6.);
  Alcotest.(check (option (float 0.))) "ceiling empty" None (Candidates.ceiling [||] 0.)

let test_cached_on_engine () =
  let inst = Helpers.small_instance () in
  let cost = Cost.get inst.Instance.app inst.Instance.platform in
  Alcotest.(check bool) "periods cached" true
    (Candidates.periods cost == Candidates.periods cost);
  Alcotest.(check bool) "deal cached" true
    (Candidates.deal_periods cost == Candidates.deal_periods cost)

let test_het_candidates () =
  (* Fully heterogeneous platforms build candidate sets too (DESIGN.md
     §13): sorted, deduplicated, and containing every mapping period. *)
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  let app = Application.uniform ~n:3 ~work:1. ~delta:1. in
  let cost = Cost.make app pl in
  let cands = Candidates.periods cost in
  Alcotest.(check bool) "non-empty" true (Array.length cands > 0);
  Alcotest.(check bool) "sorted strictly" true
    (Array.for_all Fun.id
       (Array.init
          (max 0 (Array.length cands - 1))
          (fun i -> cands.(i) < cands.(i + 1))));
  let mapping =
    Mapping.make ~n:3
      [ (Interval.make ~first:1 ~last:2, 0); (Interval.make ~first:3 ~last:3, 2) ]
  in
  Alcotest.(check bool) "mapping period is a member" true
    (Candidates.mem cands (Cost.period cost mapping))

(* The list enumeration the candidate sets were first built with, kept
   as the reference for the array one: every (interval, processor,
   boundary-in, boundary-out) cycle-time through Cost.config_cycle,
   consed onto a list and sorted by List.sort_uniq compare. The configs
   are spelled out here rather than taken from Cost.candidate_configs:
   every processor with the common bandwidth, or with every pair of its
   own I/O and link bandwidths. *)
let reference_periods cost =
  let pl = Cost.platform cost in
  let n = Application.n (Cost.application cost) and p = Platform.p pl in
  let configs = ref [] in
  for u = p - 1 downto 0 do
    if Platform.is_comm_homogeneous pl then begin
      let b = Platform.io_bandwidth pl 0 in
      configs := { Cost.proc = u; b_in = b; b_out = b } :: !configs
    end
    else begin
      let bs =
        Platform.io_bandwidth pl u
        :: List.filter_map
             (fun v -> if v = u then None else Some (Platform.bandwidth pl u v))
             (List.init p Fun.id)
      in
      List.iter
        (fun b_in ->
          List.iter
            (fun b_out -> configs := { Cost.proc = u; b_in; b_out } :: !configs)
            bs)
        bs
    end
  done;
  let acc = ref [] in
  for d = 1 to n do
    for e = d to n do
      List.iter (fun c -> acc := Cost.config_cycle cost ~d ~e c :: !acc) !configs
    done
  done;
  List.sort_uniq compare !acc

let reference_deal_periods cost =
  let p = Platform.p (Cost.platform cost) in
  List.sort_uniq compare
    (List.concat_map
       (fun c -> List.init p (fun r -> c /. float_of_int (r + 1)))
       (reference_periods cost))

let bits a = Array.map Int64.bits_of_float a

let enumeration_matches_list (inst : Instance.t) =
  (* Fresh engines: one per set, so neither reads the other's cache. *)
  let fresh () = Cost.make inst.Instance.app inst.Instance.platform in
  bits (Candidates.periods (fresh ()))
  = bits (Array.of_list (reference_periods (fresh ())))
  && bits (Candidates.deal_periods (fresh ()))
     = bits (Array.of_list (reference_deal_periods (fresh ())))

let prop_enumeration_matches_list =
  Helpers.qtest ~count:60 "comm-hom: array enumeration = list enumeration, bitwise"
    (QCheck2.Gen.map (Helpers.random_instance ~n_max:14 ~p_max:6) gen_seed)
    enumeration_matches_list

let prop_het_enumeration_matches_list =
  Helpers.qtest ~count:60 "fully-het: array enumeration = list enumeration, bitwise"
    (QCheck2.Gen.map (Helpers.random_het_instance ~n_max:10 ~p_max:5) gen_seed)
    enumeration_matches_list

(* A uniformly random interval mapping: its period must be a member of
   the candidate set, bit-for-bit. *)
let random_mapping rng (inst : Instance.t) =
  let n = Application.n inst.Instance.app in
  let p = Platform.p inst.Instance.platform in
  let k = 1 + Pipeline_util.Rng.int rng (min n p) in
  let procs = Array.init p Fun.id in
  for i = p - 1 downto 1 do
    let j = Pipeline_util.Rng.int rng (i + 1) in
    let t = procs.(i) in
    procs.(i) <- procs.(j);
    procs.(j) <- t
  done;
  let assignment = ref [] in
  let d = ref 1 in
  for j = 1 to k do
    let slack = n - !d - (k - j) in
    let last = if j = k then n else !d + Pipeline_util.Rng.int rng (slack + 1) in
    assignment := (Interval.make ~first:!d ~last, procs.(j - 1)) :: !assignment;
    d := last + 1
  done;
  Mapping.make ~n (List.rev !assignment)

let prop_period_is_candidate =
  Helpers.qtest ~count:200 "any mapping's period is a candidate" gen_small
    (fun inst ->
      let rng = Pipeline_util.Rng.create inst.Instance.seed in
      let sol = Solution.of_mapping inst (random_mapping rng inst) in
      Candidates.mem (candidates_of inst) sol.Solution.period)

let prop_optimal_period_is_candidate =
  Helpers.qtest ~count:60 "exact min period is a candidate" gen_small (fun inst ->
      Candidates.mem (candidates_of inst)
        (Pipeline_optimal.Bicriteria.min_period inst).Solution.period)

let prop_deal_optimum_is_candidate =
  Helpers.qtest ~count:25 "deal exhaustive optimum is a deal candidate" gen_tiny
    (fun inst ->
      let cands =
        Candidates.deal_periods (Cost.get inst.Instance.app inst.Instance.platform)
      in
      let sol = Pipeline_deal.Deal_exhaustive.min_period inst in
      Candidates.mem cands sol.Pipeline_deal.Deal_heuristic.period)

(* ------------------------------------------------------------------ *)
(* Threshold.search                                                    *)
(* ------------------------------------------------------------------ *)

let test_search_exact () =
  let candidates = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let probes = ref 0 in
  let probe t =
    incr probes;
    if t >= 6.5 then Some t else None
  in
  match Threshold.search ~candidates ~probe () with
  | None -> Alcotest.fail "expected a threshold"
  | Some found ->
    Helpers.check_float "smallest feasible" 7. found.Threshold.threshold;
    Helpers.check_float "payload from the memo" 7. found.Threshold.payload;
    Alcotest.(check bool) "log-many probes" true (found.Threshold.probes <= 5);
    Alcotest.(check int) "probe count reported" !probes found.Threshold.probes

let test_search_infeasible () =
  Alcotest.(check bool) "top candidate fails -> None" true
    (Threshold.search ~candidates:[| 1.; 2. |] ~probe:(fun _ -> None) () = None);
  Alcotest.(check bool) "no candidates -> None" true
    (Threshold.search ~candidates:[||] ~probe:(fun _ -> Some ()) () = None)

let prop_search_matches_scan =
  (* Against a brute-force scan of the same monotone probe. *)
  Helpers.qtest ~count:100 "search = linear scan" gen_seed (fun seed ->
      let rng = Pipeline_util.Rng.create seed in
      let count = 1 + Pipeline_util.Rng.int rng 40 in
      let candidates =
        Candidates.of_values
          (List.init count (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 100)))
      in
      let cutoff = float_of_int (Pipeline_util.Rng.int_in rng 0 110) in
      let probe t = if t >= cutoff then Some t else None in
      let scan = Array.to_seq candidates |> Seq.filter (fun c -> c >= cutoff) in
      match (Threshold.search ~candidates ~probe (), scan ()) with
      | None, Seq.Nil -> true
      | Some found, Seq.Cons (smallest, _) ->
        found.Threshold.threshold = smallest && found.Threshold.payload = smallest
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Lazy candidate sets: the (d, e, u) lattice vs the materialised array *)
(* ------------------------------------------------------------------ *)

(* Uniform deltas force the lazy representation; [~max_materialised:0]
   makes even these tiny instances take the lattice path, so every prop
   compares the lattice sweeps against the full sorted array. *)
let gen_uniform =
  QCheck2.Gen.map
    (Helpers.random_uniform_delta_instance ~n_max:8 ~p_max:4)
    gen_seed

let lazy_and_materialised inst =
  let cost = Cost.get inst.Instance.app inst.Instance.platform in
  (Candidates.Set.of_engine ~max_materialised:0 cost, Candidates.periods cost)

let prop_lazy_set_extrema =
  Helpers.qtest ~count:200 "lazy min/max = array endpoints, bitwise" gen_uniform
    (fun inst ->
      let set, cands = lazy_and_materialised inst in
      let last = Array.length cands - 1 in
      Candidates.Set.is_lazy set
      && Candidates.Set.min_elt set = Some cands.(0)
      && Candidates.Set.max_elt set = Some cands.(last)
      && Candidates.Set.force set == cands)

let prop_lazy_floor_ceiling_mem =
  (* Queried at a random off-grid value plus every candidate itself, the
     lattice sweeps must return the very floats the array searches
     return (same membership, same sort order). *)
  Helpers.qtest ~count:200 "lazy floor/ceiling/mem = array searches"
    QCheck2.Gen.(pair gen_uniform (float_range 0. 400.))
    (fun (inst, v) ->
      let set, cands = lazy_and_materialised inst in
      List.for_all
        (fun q ->
          Candidates.Set.floor set q = Candidates.floor cands q
          && Candidates.Set.ceiling set q = Candidates.ceiling cands q
          && Candidates.Set.mem set q = Candidates.mem cands q)
        (v :: Array.to_list cands))

let prop_search_set_matches_search =
  Helpers.qtest ~count:200 "search_set on the lattice = search on the array"
    QCheck2.Gen.(pair gen_uniform (float_range 0. 300.))
    (fun (inst, cutoff) ->
      let set, cands = lazy_and_materialised inst in
      let probe t = if t >= cutoff then Some t else None in
      match
        (Threshold.search_set ~set ~probe (), Threshold.search ~candidates:cands ~probe ())
      with
      | None, None -> true
      | Some a, Some b ->
        a.Threshold.threshold = b.Threshold.threshold
        && a.Threshold.payload = b.Threshold.payload
      | _ -> false)

let prop_boundary_set_matches_boundary =
  Helpers.qtest ~count:200 "boundary_set on the lattice = scan for the boundary"
    QCheck2.Gen.(pair gen_uniform (float_range 0. 300.))
    (fun (inst, cutoff) ->
      let set, cands = lazy_and_materialised inst in
      let succeeds c = c >= cutoff in
      let scan = Array.to_seq cands |> Seq.filter succeeds in
      match (Threshold.boundary_set ~set ~succeeds (), scan ()) with
      | None, Seq.Nil -> true
      | Some t, Seq.Cons (smallest, _) -> t = smallest
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fully-het candidate sets: soundness of the config family            *)
(* ------------------------------------------------------------------ *)

let gen_het =
  QCheck2.Gen.map (Helpers.random_het_instance ~n_max:6 ~p_max:4) gen_seed

let gen_het_uniform =
  QCheck2.Gen.map
    (Helpers.random_uniform_delta_het_instance ~n_max:8 ~p_max:4)
    gen_seed

let prop_het_period_is_candidate =
  Helpers.qtest ~count:200 "het: any mapping's period is a candidate" gen_het
    (fun inst ->
      let rng = Pipeline_util.Rng.create inst.Instance.seed in
      let sol = Solution.of_mapping inst (random_mapping rng inst) in
      Candidates.mem (candidates_of inst) sol.Solution.period)

let prop_het_optimal_period_is_candidate =
  Helpers.qtest ~count:40 "het: exhaustive min period is a candidate" gen_het
    (fun inst ->
      Candidates.mem (candidates_of inst)
        (Pipeline_optimal.Exhaustive.min_period inst).Solution.period)

let prop_het_boundary_set_matches_scan =
  Helpers.qtest ~count:200 "het: boundary_set = linear scan"
    QCheck2.Gen.(pair gen_het (float_range 0. 300.))
    (fun (inst, cutoff) ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let set = Candidates.Set.of_engine cost in
      let cands = candidates_of inst in
      let succeeds c = c >= cutoff in
      let scan = Array.to_seq cands |> Seq.filter succeeds in
      match (Threshold.boundary_set ~set ~succeeds (), scan ()) with
      | None, Seq.Nil -> true
      | Some t, Seq.Cons (smallest, _) -> t = smallest
      | _ -> false)

let prop_het_warm_equals_cold =
  (* The warm set (engine-cached array) and a cold rebuild on a fresh
     engine agree bit-for-bit, and re-asking the same engine returns the
     very same array (the Cost cache, not a re-enumeration). *)
  Helpers.qtest ~count:60 "het: warm set == cold set, bitwise" gen_het
    (fun inst ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let warm = Candidates.Set.force (Candidates.Set.of_engine cost) in
      let again = Candidates.Set.force (Candidates.Set.of_engine cost) in
      let cold =
        Candidates.Set.force
          (Candidates.Set.of_engine
             (Cost.make inst.Instance.app inst.Instance.platform))
      in
      warm == again && warm = cold)

let prop_het_lazy_set_matches_array =
  (* Uniform deltas + [~max_materialised:0] force the lattice arm on the
     fully-het config family; its sweeps must agree with the array. *)
  Helpers.qtest ~count:200 "het lattice: floor/ceiling/mem = array"
    QCheck2.Gen.(pair gen_het_uniform (float_range 0. 400.))
    (fun (inst, v) ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let set = Candidates.Set.of_engine ~max_materialised:0 cost in
      let cands = candidates_of inst in
      let last = Array.length cands - 1 in
      Candidates.Set.is_lazy set
      && Candidates.Set.min_elt set = Some cands.(0)
      && Candidates.Set.max_elt set = Some cands.(last)
      && List.for_all
           (fun q ->
             Candidates.Set.floor set q = Candidates.floor cands q
             && Candidates.Set.ceiling set q = Candidates.ceiling cands q
             && Candidates.Set.mem set q = Candidates.mem cands q)
           (v :: Array.to_list cands))

let prop_het_row_threshold_sound =
  (* End-to-end: the het registry rows' exact thresholds (as the fault
     campaign and Het_campaign compute them) are attained candidates,
     and no smaller candidate succeeds. *)
  Helpers.qtest ~count:6 "het rows: boundary attained, minimal"
    (QCheck2.Gen.map (Helpers.random_het_instance ~n_max:5 ~p_max:3) gen_seed)
    (fun inst ->
      let cands = candidates_of inst in
      List.for_all
        (fun (info : Registry.info) ->
          let t = Failure.instance_threshold info inst in
          let succeeds c = info.Registry.solve inst ~threshold:c <> None in
          Candidates.mem cands t && succeeds t
          && Array.for_all (fun c -> c >= t || not (succeeds c)) cands)
        (List.filter
           (fun (i : Registry.info) -> i.Registry.kind = Registry.Period_fixed)
           Registry.het))

(* ------------------------------------------------------------------ *)
(* Lattice kernels and the skipping bisection vs their references      *)
(* ------------------------------------------------------------------ *)

(* The per-element lattice sweeps that Cost.config_floor/config_ceiling
   replaced: one checked, boxed Cost.config_cycle per comparison, per
   config, and folded over the configs as Candidates.Set did. *)
let reference_config_floor cost cf v =
  let n = Application.n (Cost.application cost) in
  let best = ref None and e = ref 0 in
  for d = 1 to n do
    if !e < d - 1 then e := d - 1;
    while !e < n && Cost.config_cycle cost ~d ~e:(!e + 1) cf <= v do
      incr e
    done;
    if !e >= d then begin
      let c = Cost.config_cycle cost ~d ~e:!e cf in
      match !best with Some b when b >= c -> () | _ -> best := Some c
    end
  done;
  !best

let reference_config_ceiling cost cf v =
  let n = Application.n (Cost.application cost) in
  let best = ref None and e = ref 1 in
  (try
     for d = 1 to n do
       if !e < d then e := d;
       while !e <= n && Cost.config_cycle cost ~d ~e:!e cf < v do
         incr e
       done;
       if !e > n then raise Exit;
       let c = Cost.config_cycle cost ~d ~e:!e cf in
       match !best with Some b when b <= c -> () | _ -> best := Some c
     done
   with Exit -> ());
  !best

let fold_configs pick row cost v =
  Array.fold_left
    (fun acc cf ->
      match (acc, row cost cf v) with
      | Some b, Some c -> Some (pick b c)
      | None, c | c, None -> c)
    None (Cost.candidate_configs cost)

let reference_floor cost v = fold_configs Float.max reference_config_floor cost v
let reference_ceiling cost v = fold_configs Float.min reference_config_ceiling cost v

(* Candidates (every one on small sets, an even spread of about 40 on
   large ones), the floats either side of each, the midpoints to their
   successors, and points past both ends. *)
let query_points cands =
  let count = Array.length cands in
  let last = count - 1 and stride = 1 + (count / 40) in
  (cands.(0) /. 2.) :: (cands.(last) *. 2.)
  :: List.concat
       (List.init
          ((count + stride - 1) / stride)
          (fun k ->
            let i = k * stride in
            let c = cands.(i) in
            let between = if i < last then [ (c +. cands.(i + 1)) /. 2. ] else [] in
            [ c; Float.pred c; Float.succ c ] @ between))

let gen_lattice_engine =
  (* Uniform-delta comm-hom and fully-het draws, memoised or not. *)
  QCheck2.Gen.(
    map3
      (fun het memo seed ->
        let inst =
          if het then Helpers.random_uniform_delta_het_instance ~n_max:14 ~p_max:4 seed
          else Helpers.random_uniform_delta_instance ~n_max:14 ~p_max:5 seed
        in
        Cost.make ~memo inst.Instance.app inst.Instance.platform)
      bool bool gen_seed)

let bits = Option.map Int64.bits_of_float

let prop_lattice_kernels_match_reference =
  Helpers.qtest ~count:200 "lattice floor/ceiling = per-element sweep, bitwise"
    gen_lattice_engine (fun cost ->
      let set = Candidates.Set.of_engine ~max_materialised:0 cost in
      let some none x = if x = none then None else Some x in
      Candidates.Set.is_lazy set
      && List.for_all
           (fun v ->
             bits (Candidates.Set.floor set v) = bits (reference_floor cost v)
             && bits (Candidates.Set.ceiling set v) = bits (reference_ceiling cost v)
             && Array.for_all
                  (fun cf ->
                    bits (some neg_infinity (Cost.config_floor cost cf v))
                    = bits (reference_config_floor cost cf v)
                    && bits (some infinity (Cost.config_ceiling cost cf v))
                       = bits (reference_config_ceiling cost cf v))
                  (Cost.candidate_configs cost))
           (query_points (Candidates.periods cost)))

(* The lazy branch of Threshold.search_set before it skipped sweeps:
   every midpoint snapped down with Set.floor. *)
let reference_search_set ~set ~probe =
  match (Candidates.Set.min_elt set, Candidates.Set.max_elt set) with
  | Some min_elt, Some max_elt when probe max_elt <> None ->
    if min_elt <> max_elt && probe min_elt = None then begin
      let bits = Int64.bits_of_float and value = Int64.float_of_bits in
      let lo = ref (bits min_elt) and hi = ref (bits max_elt) in
      while Int64.sub !hi !lo > 1L do
        let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
        match Candidates.Set.floor set (value mid) with
        | None -> assert false
        | Some c ->
          if Int64.compare (bits c) !lo <= 0 then lo := mid
          else if probe c <> None then hi := bits c
          else lo := bits c
      done
    end
  | _ -> ()

let prop_search_set_probe_sequence =
  Helpers.qtest ~count:200 "search_set probes = reference loop's probes"
    QCheck2.Gen.(pair gen_lattice_engine (float_range 0. 1.))
    (fun (cost, frac) ->
      let set = Candidates.Set.of_engine ~max_materialised:0 cost in
      let cands = Candidates.periods cost in
      let points = Array.of_list (query_points cands) in
      let cutoff =
        points.(min (Array.length points - 1)
                  (int_of_float (frac *. float_of_int (Array.length points))))
      in
      let recording () =
        let log = ref [] in
        let probe v =
          log := Int64.bits_of_float v :: !log;
          if v >= cutoff then Some v else None
        in
        (log, probe)
      in
      let got, probe = recording () in
      let found = Threshold.search_set ~set ~probe () in
      let want, probe = recording () in
      reference_search_set ~set ~probe;
      !got = !want
      && (match found with
         | None -> true
         | Some f -> f.Threshold.probes = List.length !got))

(* ------------------------------------------------------------------ *)
(* Failure thresholds: exact boundary on the candidate grid            *)
(* ------------------------------------------------------------------ *)

let period_rows =
  List.filter
    (fun (i : Registry.info) -> i.Registry.kind = Registry.Period_fixed)
    Registry.paper

let prop_failure_threshold_sound =
  Helpers.qtest ~count:10 "boundary succeeds; no smaller candidate does"
    (QCheck2.Gen.map (Helpers.random_instance ~n_max:6 ~p_max:4) gen_seed)
    (fun inst ->
      let cands = candidates_of inst in
      List.for_all
        (fun (info : Registry.info) ->
          let t = Failure.instance_threshold info inst in
          let succeeds c = info.Registry.solve inst ~threshold:c <> None in
          Candidates.mem cands t && succeeds t
          && Array.for_all
               (fun c -> c >= t || not (succeeds c))
               cands)
        period_rows)

(* ------------------------------------------------------------------ *)
(* Sp_bi_p: adaptive bisection vs the legacy fixed-count loop          *)
(* ------------------------------------------------------------------ *)

(* The pre-rewrite Sp_bi_p.solve, verbatim (modulo the probe counter):
   25 iterations, each skipped once the bracket converged at 1e-12. *)
let legacy_sp_bi_p inst ~period =
  let attempt cap =
    Pipeline_core.Loop.minimise_latency_under_period ~latency_cap:cap
      ~arity:Pipeline_core.Split.Two ~rule:Pipeline_core.Split.Bi inst ~period
  in
  match attempt infinity with
  | None -> None
  | Some unconstrained ->
    let best = ref unconstrained in
    let lo = ref (Instance.optimal_latency inst)
    and hi = ref unconstrained.Solution.latency in
    for _ = 1 to 25 do
      if !hi -. !lo > 1e-12 *. Float.max 1. !hi then begin
        let cap = (!lo +. !hi) /. 2. in
        match attempt cap with
        | Some sol ->
          if sol.Solution.latency < !best.Solution.latency then best := sol;
          hi := cap
        | None -> lo := cap
      end
    done;
    Some !best

let prop_sp_bi_p_unchanged =
  Helpers.qtest ~count:60 "new Sp_bi_p = legacy 25-step bisection"
    QCheck2.Gen.(pair gen_small (float_range 1.0 3.0))
    (fun (inst, factor) ->
      let period =
        factor *. (Pipeline_optimal.Bicriteria.min_period inst).Solution.period
      in
      match (Pipeline_core.Sp_bi_p.solve inst ~period, legacy_sp_bi_p inst ~period) with
      | None, None -> true
      | Some a, Some b ->
        a.Solution.period = b.Solution.period
        && a.Solution.latency = b.Solution.latency
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Threshold.bisect                                                    *)
(* ------------------------------------------------------------------ *)

let test_bisect_brackets () =
  let b =
    Threshold.bisect ~lo:0. ~hi:10. ~feasible:(fun x -> x >= Float.pi) ()
  in
  Alcotest.(check bool) "lo below boundary" true (b.Threshold.lo < Float.pi);
  Alcotest.(check bool) "hi at or above boundary" true (b.Threshold.hi >= Float.pi);
  Alcotest.(check bool) "converged early" true (b.Threshold.probes < 64);
  Alcotest.(check bool) "tight bracket" true
    (Pipeline_util.Tol.converged ~lo:b.Threshold.lo ~hi:b.Threshold.hi ())

let test_bisect_probe_cap () =
  let probes = ref 0 in
  let b =
    Threshold.bisect ~max_probes:7 ~lo:0. ~hi:1e9
      ~feasible:(fun x ->
        incr probes;
        x >= 123.456)
      ()
  in
  Alcotest.(check int) "capped" 7 b.Threshold.probes;
  Alcotest.(check int) "probe called once per step" 7 !probes

let () =
  Alcotest.run "threshold"
    [
      ( "candidates",
        [
          Alcotest.test_case "of_values" `Quick test_of_values;
          Alcotest.test_case "mem and ceiling" `Quick test_mem_ceiling;
          Alcotest.test_case "cached on the engine" `Quick test_cached_on_engine;
          Alcotest.test_case "het candidate sets" `Quick test_het_candidates;
          prop_enumeration_matches_list;
          prop_het_enumeration_matches_list;
          prop_period_is_candidate;
          prop_optimal_period_is_candidate;
          prop_deal_optimum_is_candidate;
        ] );
      ( "search",
        [
          Alcotest.test_case "exact smallest feasible" `Quick test_search_exact;
          Alcotest.test_case "infeasible and empty" `Quick test_search_infeasible;
          prop_search_matches_scan;
        ] );
      ( "lazy-set",
        [
          prop_lazy_set_extrema;
          prop_lazy_floor_ceiling_mem;
          prop_search_set_matches_search;
          prop_boundary_set_matches_boundary;
        ] );
      ( "het-candidates",
        [
          prop_het_period_is_candidate;
          prop_het_optimal_period_is_candidate;
          prop_het_boundary_set_matches_scan;
          prop_het_warm_equals_cold;
          prop_het_lazy_set_matches_array;
          prop_het_row_threshold_sound;
        ] );
      ( "lattice-kernels",
        [ prop_lattice_kernels_match_reference; prop_search_set_probe_sequence ] );
      ("failure-boundary", [ prop_failure_threshold_sound ]);
      ("sp-bi-p", [ prop_sp_bi_p_unchanged ]);
      ( "bisect",
        [
          Alcotest.test_case "brackets the boundary" `Quick test_bisect_brackets;
          Alcotest.test_case "probe cap" `Quick test_bisect_probe_cap;
        ] );
    ]
