open Pipeline_util

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let va = Rng.int64 a in
  let vb = Rng.int64 b in
  Alcotest.(check int64) "copy continues from the same state" va vb;
  (* advancing a does not advance b *)
  let _ = Rng.int64 a in
  let va2 = Rng.int64 a and vb2 = Rng.int64 b in
  Alcotest.(check bool) "diverged consumption" true (va2 <> vb2)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "5 <= v <= 9" true (v >= 5 && v <= 9)
  done

let test_rng_int_in_hits_extremes () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 2000 do
    seen.(Rng.int_in rng 0 4) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_rng_int_rejects_bad_bound () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1) 0))

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0. && v < 2.5)
  done

let test_rng_float_in_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float_in rng (-1.) 1. in
    Alcotest.(check bool) "-1 <= v < 1" true (v >= -1. && v < 1.)
  done

let test_rng_float_mean () =
  let rng = Rng.create 13 in
  let total = ref 0. in
  let k = 20_000 in
  for _ = 1 to k do
    total := !total +. Rng.float rng 1.
  done;
  let mean = !total /. float_of_int k in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_bool_balanced () =
  let rng = Rng.create 17 in
  let trues = ref 0 in
  let k = 10_000 in
  for _ = 1 to k do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int k in
  Alcotest.(check bool) "roughly fair" true (ratio > 0.45 && ratio < 0.55)

let test_rng_permutation () =
  let rng = Rng.create 23 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_shuffle_preserves_elements () =
  let rng = Rng.create 29 in
  let a = Array.init 30 (fun i -> i * i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort compare sa;
  Array.sort compare sb;
  Alcotest.(check (array int)) "same multiset" sa sb

let test_rng_pick_member () =
  let rng = Rng.create 31 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    Alcotest.(check bool) "member" true (Array.mem v a)
  done

let test_rng_pick_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick (Rng.create 1) [||]))

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_mean () = Helpers.check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

let test_mean_opt () =
  Alcotest.(check (option (float 1e-9))) "none" None (Stats.mean_opt []);
  Alcotest.(check (option (float 1e-9))) "some" (Some 1.5) (Stats.mean_opt [ 1.; 2. ])

let test_geometric_mean () =
  Helpers.check_float "gmean" 2. (Stats.geometric_mean [ 1.; 2.; 4. ])

let test_geometric_mean_rejects_nonpositive () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geometric_mean: non-positive value") (fun () ->
      ignore (Stats.geometric_mean [ 1.; 0. ]))

let test_variance () =
  Helpers.check_float "variance" 2.5 (Stats.variance [ 1.; 2.; 3.; 4.; 5. ]);
  Helpers.check_float "single sample" 0. (Stats.variance [ 42. ])

let test_stddev () =
  Helpers.check_float "stddev" (sqrt 2.5) (Stats.stddev [ 1.; 2.; 3.; 4.; 5. ])

let test_median_odd () = Helpers.check_float "odd" 3. (Stats.median [ 5.; 3.; 1. ])

let test_median_even () =
  Helpers.check_float "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Helpers.check_float "p0" 1. (Stats.percentile 0. xs);
  Helpers.check_float "p50" 3. (Stats.percentile 0.5 xs);
  Helpers.check_float "p100" 5. (Stats.percentile 1. xs);
  Helpers.check_float "p25" 2. (Stats.percentile 0.25 xs)

let test_percentile_bad_q () =
  Alcotest.check_raises "q>1" (Invalid_argument "Stats.percentile: q not in [0,1]")
    (fun () -> ignore (Stats.percentile 1.5 [ 1. ]))

let test_min_max () =
  let mn, mx = Stats.min_max [ 3.; -1.; 7.; 0. ] in
  Helpers.check_float "min" (-1.) mn;
  Helpers.check_float "max" 7. mx

let test_acc_matches_batch () =
  let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  let acc = Stats.Acc.add_list Stats.Acc.empty xs in
  Alcotest.(check int) "count" (List.length xs) (Stats.Acc.count acc);
  Helpers.check_float "mean" (Stats.mean xs) (Stats.Acc.mean acc);
  Helpers.check_float "stddev" (Stats.stddev xs) (Stats.Acc.stddev acc);
  Helpers.check_float "min" 2. (Stats.Acc.min acc);
  Helpers.check_float "max" 9. (Stats.Acc.max acc)

let test_acc_empty () =
  Alcotest.(check int) "count" 0 (Stats.Acc.count Stats.Acc.empty);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Acc.mean Stats.Acc.empty))

let prop_acc_mean =
  Helpers.qtest "Acc.mean = Stats.mean"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let acc = Stats.Acc.add_list Stats.Acc.empty xs in
      Helpers.feq ~eps:1e-6 (Stats.Acc.mean acc) (Stats.mean xs))

let prop_percentile_monotone =
  Helpers.qtest "percentile monotone in q"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) (float_range 0. 100.))
        (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let test_series_sorted () =
  let s = Series.make ~label:"s" [ (3., 1.); (1., 2.); (2., 0.) ] in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "sorted by x"
    [ (1., 2.); (2., 0.); (3., 1.) ]
    (Series.points s)

let test_series_interpolate_inside () =
  let s = Series.make ~label:"s" [ (0., 0.); (10., 20.) ] in
  Alcotest.(check (option (float 1e-9))) "midpoint" (Some 10.)
    (Series.interpolate s 5.)

let test_series_interpolate_at_knot () =
  let s = Series.make ~label:"s" [ (0., 3.); (1., 7.); (2., 5.) ] in
  Alcotest.(check (option (float 1e-9))) "knot" (Some 7.) (Series.interpolate s 1.)

let test_series_interpolate_outside () =
  let s = Series.make ~label:"s" [ (0., 0.); (10., 20.) ] in
  Alcotest.(check (option (float 1e-9))) "left" None (Series.interpolate s (-1.));
  Alcotest.(check (option (float 1e-9))) "right" None (Series.interpolate s 11.)

let test_series_resample () =
  let s = Series.make ~label:"s" [ (0., 0.); (4., 8.) ] in
  let r = Series.resample ~xs:[ -1.; 0.; 2.; 4.; 5. ] s in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "clipped and interpolated"
    [ (0., 0.); (2., 4.); (4., 8.) ]
    (Series.points r)

let test_series_ranges () =
  let s1 = Series.make ~label:"a" [ (0., 5.); (2., 1.) ] in
  let s2 = Series.make ~label:"b" [ (1., 9.) ] in
  match Series.ranges [ s1; s2 ] with
  | None -> Alcotest.fail "expected ranges"
  | Some ((xmin, xmax), (ymin, ymax)) ->
    Helpers.check_float "xmin" 0. xmin;
    Helpers.check_float "xmax" 2. xmax;
    Helpers.check_float "ymin" 1. ymin;
    Helpers.check_float "ymax" 9. ymax

let test_series_average_of_identical () =
  let mk () = Series.make ~label:"x" [ (0., 2.); (1., 4.) ] in
  let avg = Series.average ~label:"avg" [ mk (); mk (); mk () ] in
  List.iter
    (fun (x, y) -> Helpers.check_float "avg y = 2x+2" ((2. *. x) +. 2.) y)
    (Series.points avg)

let test_series_average_empty () =
  let avg = Series.average ~label:"avg" [] in
  Alcotest.(check bool) "empty" true (Series.is_empty avg)

let test_series_map_filter () =
  let s = Series.make ~label:"s" [ (0., 1.); (1., 2.) ] in
  let doubled = Series.map_y (fun y -> 2. *. y) s in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "map_y" [ (0., 2.); (1., 4.) ] (Series.points doubled);
  let only_large = Series.filter (fun (_, y) -> y > 1.5) s in
  Alcotest.(check int) "filter" 1 (Series.length only_large)

let test_uniform_grid () =
  let g = Series.uniform_grid ~points:5 0. 1. in
  Alcotest.(check int) "5 points" 5 (List.length g);
  Helpers.check_float "first" 0. (List.hd g);
  Helpers.check_float "last" 1. (List.nth g 4)

let prop_interpolate_within_bounds =
  Helpers.qtest "interpolation stays within y-range"
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 20)
           (pair (float_range 0. 100.) (float_range 0. 100.)))
        (float_range 0. 100.))
    (fun (pts, x) ->
      let s = Series.make ~label:"q" pts in
      match (Series.interpolate s x, Series.y_range s) with
      | None, _ | _, None -> true
      | Some y, Some (lo, hi) -> y >= lo -. 1e-6 && y <= hi +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Table / Csv / Ascii_plot                                           *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let out = Table.render [ [ "h1"; "h2" ]; [ "a"; "1" ]; [ "bbb"; "22" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "5 split segments (header, rule, 2 rows, trailing)" 5
    (List.length lines);
  Alcotest.(check bool) "has rule" true
    (String.length (List.nth lines 1) > 0 && (List.nth lines 1).[0] = '-')

let test_table_ragged_rows () =
  let out = Table.render [ [ "a"; "b"; "c" ]; [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table_empty () = Alcotest.(check string) "empty" "" (Table.render [])

let test_table_markdown () =
  let out = Table.render_markdown [ [ "h" ]; [ "v" ] ] in
  Alcotest.(check bool) "separator line" true
    (String.split_on_char '\n' out |> fun l -> List.nth l 1 = "|---|")

let test_float_cell () =
  Alcotest.(check string) "regular" "3.14" (Table.float_cell ~decimals:2 3.14159);
  Alcotest.(check string) "nan" "-" (Table.float_cell Float.nan);
  Alcotest.(check string) "inf" "inf" (Table.float_cell Float.infinity)

let test_csv_dat () =
  let s = Series.make ~label:"curve" [ (1., 2.); (3., 4.) ] in
  let out = Csv.dat_of_series [ s ] in
  Alcotest.(check string) "gnuplot block" "# curve\n1 2\n3 4\n" out

let test_csv_quoting () =
  let out = Csv.csv_of_rows ~header:[ "a,b"; "c\"d" ] [ [ "x"; "y" ] ] in
  Alcotest.(check bool) "quoted comma" true
    (String.length out > 0 && String.sub out 0 5 = "\"a,b\"")

let test_csv_of_series () =
  let s = Series.make ~label:"l" [ (1., 2.) ] in
  Alcotest.(check string) "csv" "series,x,y\nl,1,2\n" (Csv.csv_of_series [ s ])

let test_csv_to_file () =
  let dir = Filename.temp_file "pw" "" in
  Sys.remove dir;
  let path = Filename.concat (Filename.concat dir "sub") "f.txt" in
  Csv.to_file path "hello";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "roundtrip" "hello" line

let test_ascii_plot_renders () =
  let s1 = Series.make ~label:"a" [ (0., 0.); (1., 1.) ] in
  let s2 = Series.make ~label:"b" [ (0., 1.); (1., 0.) ] in
  let out = Ascii_plot.render [ s1; s2 ] in
  Alcotest.(check bool) "has legend" true
    (String.length out > 0
    && String.length out > String.length "legend"
    &&
    let re = Str_find.contains out "legend:" in
    re)

let test_ascii_plot_empty () =
  Alcotest.(check string) "placeholder" "(no data to plot)" (Ascii_plot.render [])

let test_ascii_plot_flat_series () =
  let s = Series.make ~label:"flat" [ (0., 5.); (1., 5.) ] in
  let out = Ascii_plot.render [ s ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_render_table () =
  let s = Series.make ~label:"x" [ (1., 2.) ] in
  let out = Ascii_plot.render_table [ s ] in
  Alcotest.(check bool) "has label" true (Str_find.contains out "# x")


(* ------------------------------------------------------------------ *)
(* Bipartite / Hungarian                                               *)
(* ------------------------------------------------------------------ *)

let test_bipartite_perfect () =
  let adjacency = [| [ 0; 1 ]; [ 0 ]; [ 2 ] |] in
  let r = Bipartite.max_matching ~left:3 ~right:3 ~adjacency in
  Alcotest.(check int) "size" 3 r.Bipartite.size;
  Alcotest.(check bool) "perfect" true (Bipartite.is_perfect_on_left r);
  (* vertex 1 can only take 0, forcing vertex 0 onto 1. *)
  Alcotest.(check int) "forced" 0 r.Bipartite.left_match.(1);
  Alcotest.(check int) "displaced" 1 r.Bipartite.left_match.(0)

let test_bipartite_imperfect () =
  let adjacency = [| [ 0 ]; [ 0 ] |] in
  let r = Bipartite.max_matching ~left:2 ~right:1 ~adjacency in
  Alcotest.(check int) "size" 1 r.Bipartite.size;
  Alcotest.(check bool) "not perfect" false (Bipartite.is_perfect_on_left r)

let test_bipartite_empty_adjacency () =
  let r = Bipartite.max_matching ~left:2 ~right:3 ~adjacency:[| []; [ 1 ] |] in
  Alcotest.(check int) "size" 1 r.Bipartite.size

let test_bipartite_rejects_bad_input () =
  Alcotest.(check bool) "neighbour out of range" true
    (try
       ignore (Bipartite.max_matching ~left:1 ~right:1 ~adjacency:[| [ 5 ] |]);
       false
     with Invalid_argument _ -> true)

let test_bipartite_matching_consistency () =
  let adjacency = [| [ 0; 1; 2 ]; [ 1 ]; [ 1; 2 ] |] in
  let r = Bipartite.max_matching ~left:3 ~right:3 ~adjacency in
  Array.iteri
    (fun i j ->
      if j >= 0 then begin
        Alcotest.(check bool) "edge exists" true (List.mem j adjacency.(i));
        Alcotest.(check int) "inverse" i r.Bipartite.right_match.(j)
      end)
    r.Bipartite.left_match

let prop_bipartite_size_bounds =
  Helpers.qtest "matching size <= min(left, right)"
    QCheck2.Gen.(
      pair (int_range 1 8)
        (pair (int_range 1 8) (int_range 0 100_000)))
    (fun (left, (right, seed)) ->
      let rng = Rng.create seed in
      let adjacency =
        Array.init left (fun _ ->
            List.filter (fun _ -> Rng.bool rng) (List.init right Fun.id))
      in
      let r = Bipartite.max_matching ~left ~right ~adjacency in
      r.Bipartite.size <= min left right
      && Array.for_all (fun j -> j >= -1 && j < right) r.Bipartite.left_match)

let test_hungarian_known () =
  (* Classic 3x3: optimal value 5 via (0,1) (1,0) (2,2). *)
  let m = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  match Hungarian.solve ~rows:3 ~cols:3 ~cost:(fun i j -> m.(i).(j)) with
  | None -> Alcotest.fail "expected a solution"
  | Some (value, assignment) ->
    Helpers.check_float "value" 5. value;
    let seen = Array.make 3 false in
    Array.iter (fun j -> seen.(j) <- true) assignment;
    Alcotest.(check bool) "injective" true (Array.for_all Fun.id seen)

let test_hungarian_rectangular () =
  (* 2 rows, 3 columns: skip the expensive middle column. *)
  let m = [| [| 10.; 100.; 1. |]; [| 1.; 100.; 10. |] |] in
  match Hungarian.solve ~rows:2 ~cols:3 ~cost:(fun i j -> m.(i).(j)) with
  | None -> Alcotest.fail "expected a solution"
  | Some (value, assignment) ->
    Helpers.check_float "value" 2. value;
    Alcotest.(check (array int)) "assignment" [| 2; 0 |] assignment

let test_hungarian_infeasible () =
  Alcotest.(check bool) "all forbidden" true
    (Hungarian.solve ~rows:1 ~cols:1 ~cost:(fun _ _ -> infinity) = None)

let test_hungarian_partial_forbidden () =
  (* Row 0 can only take column 0; row 1 must then pay for column 1. *)
  let m = [| [| 1.; infinity |]; [| 0.; 7. |] |] in
  match Hungarian.solve ~rows:2 ~cols:2 ~cost:(fun i j -> m.(i).(j)) with
  | None -> Alcotest.fail "expected a solution"
  | Some (value, assignment) ->
    Helpers.check_float "value" 8. value;
    Alcotest.(check (array int)) "assignment" [| 0; 1 |] assignment

let test_hungarian_rows_exceed_cols () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Hungarian.solve ~rows:2 ~cols:1 ~cost:(fun _ _ -> 1.));
       false
     with Invalid_argument _ -> true)

let brute_assignment rows cols cost =
  (* Exhaustive minimum over injections, for cross-checking. *)
  let best = ref infinity in
  let used = Array.make cols false in
  let rec go i acc =
    if i = rows then best := Float.min !best acc
    else
      for j = 0 to cols - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          go (i + 1) (acc +. cost i j);
          used.(j) <- false
        end
      done
  in
  go 0 0.;
  !best

let prop_hungarian_matches_brute =
  Helpers.qtest ~count:60 "Hungarian = brute force on random matrices"
    QCheck2.Gen.(
      pair (int_range 1 5) (pair (int_range 0 3) (int_range 0 100_000)))
    (fun (rows, (extra, seed)) ->
      let cols = rows + extra in
      let rng = Rng.create seed in
      let m =
        Array.init rows (fun _ ->
            Array.init cols (fun _ -> float_of_int (Rng.int_in rng 0 50)))
      in
      match Hungarian.solve ~rows ~cols ~cost:(fun i j -> m.(i).(j)) with
      | None -> false
      | Some (value, _) ->
        Helpers.feq ~eps:1e-9 value (brute_assignment rows cols (fun i j -> m.(i).(j))))


(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_counts () =
  let h = Histogram.build ~bins:2 [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check int) "total" 4 (Histogram.total h);
  match Histogram.counts h with
  | [ (lo1, hi1, c1); (lo2, hi2, c2) ] ->
    Helpers.check_float "lo1" 0. lo1;
    Helpers.check_float "hi1" 1.5 hi1;
    Helpers.check_float "lo2" 1.5 lo2;
    Helpers.check_float "hi2" 3. hi2;
    Alcotest.(check int) "c1" 2 c1;
    Alcotest.(check int) "c2 (upper edge included)" 2 c2
  | _ -> Alcotest.fail "expected two bins"

let test_histogram_degenerate () =
  let h = Histogram.build ~bins:5 [ 7.; 7.; 7. ] in
  Alcotest.(check int) "all in one bin" 3
    (List.fold_left (fun acc (_, _, c) -> max acc c) 0 (Histogram.counts h))

let test_histogram_render () =
  let out = Histogram.render ~width:20 (Histogram.build ~bins:3 [ 1.; 2.; 2.; 3. ]) in
  Alcotest.(check bool) "has bars" true (Str_find.contains out "#");
  Alcotest.(check int) "three lines" 3
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)))

let test_histogram_rejects () =
  Alcotest.(check bool) "empty" true
    (try ignore (Histogram.build []); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan" true
    (try ignore (Histogram.build [ Float.nan ]); false with Invalid_argument _ -> true)

let prop_histogram_conserves_samples =
  Helpers.qtest "bin counts sum to the sample count"
    QCheck2.Gen.(
      pair (int_range 1 12) (list_size (int_range 1 60) (float_range (-50.) 50.)))
    (fun (bins, samples) ->
      Histogram.total (Histogram.build ~bins samples) = List.length samples)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_defaults () =
  Alcotest.(check bool) "recommended >= 1" true (Pool.recommended_jobs () >= 1);
  Alcotest.(check bool) "recommended <= cap" true
    (Pool.recommended_jobs () <= Pool.hard_cap);
  Alcotest.(check int) "library default is sequential" 1 (Pool.jobs ());
  Pool.set_jobs 3;
  Alcotest.(check int) "set_jobs" 3 (Pool.jobs ());
  Pool.set_jobs 0;
  Alcotest.(check int) "clamped below" 1 (Pool.jobs ());
  Pool.set_jobs 10_000;
  Alcotest.(check int) "clamped above" Pool.hard_cap (Pool.jobs ());
  Pool.set_jobs 1

let prop_pool_map_is_array_map =
  Helpers.qtest ~count:80 "map ~jobs:n f = Array.map f (bit-for-bit)"
    QCheck2.Gen.(
      pair (int_range 1 12) (array_size (int_range 0 60) (int_range (-1000) 1000)))
    (fun (jobs, xs) ->
      (* A float-valued f whose result depends on index-neighbourhood
         arithmetic: any chunking or reassembly mistake shows up. *)
      let f x = (float_of_int x *. 1.7) +. sqrt (float_of_int (abs x)) in
      Pool.map ~jobs f xs = Array.map f xs)

let prop_pool_map_list_is_list_map =
  Helpers.qtest ~count:40 "map_list ~jobs:n f = List.map f"
    QCheck2.Gen.(
      pair (int_range 1 8) (list_size (int_range 0 40) (int_range 0 500)))
    (fun (jobs, xs) ->
      let f x = Printf.sprintf "<%d>" (x * 3) in
      Pool.map_list ~jobs f xs = List.map f xs)

let test_pool_nested_map () =
  (* A task that itself calls Pool.map must take the sequential path and
     still produce the right answer. *)
  let outer = Array.init 10 (fun i -> i) in
  let f i =
    Array.fold_left ( + ) 0 (Pool.map ~jobs:4 (fun j -> (i * 100) + j) (Array.init 5 Fun.id))
  in
  Alcotest.(check bool) "nested = sequential" true
    (Pool.map ~jobs:4 f outer = Array.map f outer)

let test_pool_exception_propagates () =
  let boom i = if i = 17 then invalid_arg "boom-17" else i in
  Alcotest.(check bool) "raises the task's exception" true
    (try
       ignore (Pool.map ~jobs:4 boom (Array.init 40 Fun.id));
       false
     with Invalid_argument m -> m = "boom-17")

let test_pool_first_failing_chunk_wins () =
  (* Two failing tasks: the exception of the lowest-indexed chunk must
     be reported whatever the scheduling. *)
  let boom i =
    if i = 5 then failwith "early" else if i = 35 then failwith "late" else i
  in
  Alcotest.(check bool) "lowest chunk's exception" true
    (try
       ignore (Pool.map ~jobs:4 boom (Array.init 40 Fun.id));
       false
     with Failure m -> m = "early")

let test_pool_empty_and_single () =
  Alcotest.(check bool) "empty" true (Pool.map ~jobs:4 succ [||] = [||]);
  Alcotest.(check bool) "singleton" true (Pool.map ~jobs:4 succ [| 7 |] = [| 8 |])

(* Task-tree layer: the synthetic tree splits an integer range into 2–4
   parts until singletons. Each task covers a contiguous range, so
   concatenating the per-task ranges in frontier order must reproduce
   the root range exactly — any reordering, loss or duplication in
   fan_out shows up immediately. *)
let range_children (lo, hi) =
  if lo >= hi then [||]
  else begin
    let size = hi - lo + 1 in
    let parts = min size (2 + (size mod 3)) in
    let step = size / parts in
    Array.init parts (fun k ->
        let a = lo + (k * step) in
        let b = if k = parts - 1 then hi else a + step - 1 in
        (a, b))
  end

let range_concat tasks =
  List.concat_map
    (fun (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i))
    (Array.to_list tasks)

let prop_fan_out_preserves_order =
  Helpers.qtest ~count:100 "fan_out frontier concatenates to the root range"
    QCheck2.Gen.(
      triple (int_range 0 200) (int_range 1 64) (int_range 0 8))
    (fun (n, cap, depth) ->
      let frontier = Pool.fan_out ~cap ~depth ~children:range_children [| (0, n) |] in
      range_concat frontier = List.init (n + 1) Fun.id)

let prop_fan_out_deterministic_and_bounded =
  Helpers.qtest ~count:60 "fan_out is a pure function of (roots, cap, depth)"
    QCheck2.Gen.(pair (int_range 0 300) (int_range 1 64))
    (fun (n, cap) ->
      let run () = Pool.fan_out ~cap ~children:range_children [| (0, n) |] in
      let a = run () in
      (* Reproducible, and never overshoots cap by more than one task's
         branching factor (4 here). *)
      a = run () && Array.length a <= cap + 4)

let test_fan_out_leaves_and_depth () =
  (* Leaf roots pass through untouched. *)
  let leaves = [| (3, 3); (7, 7) |] in
  Alcotest.(check bool) "leaf roots unchanged" true
    (Pool.fan_out ~children:range_children leaves = leaves);
  (* depth:0 never expands; depth:1 expands exactly one level. *)
  Alcotest.(check bool) "depth 0" true
    (Pool.fan_out ~depth:0 ~children:range_children [| (0, 9) |] = [| (0, 9) |]);
  Alcotest.(check bool) "depth 1" true
    (Pool.fan_out ~depth:1 ~cap:1000 ~children:range_children [| (0, 9) |]
    = range_children (0, 9))

let prop_tree_map_equals_sequential =
  Helpers.qtest ~count:60 "tree_map fold = sequential DFS fold at any width"
    QCheck2.Gen.(
      triple (int_range 0 150) (int_range 1 32) (oneofl [ 1; 4; 8 ]))
    (fun (n, cap, jobs) ->
      (* Per-task fold in subtree order, merged in index order: must be
         bit-identical to the one-pass sequential fold. *)
      let run (lo, hi) =
        List.fold_left
          (fun acc v -> (acc *. 1.003) +. (float_of_int v *. 0.37))
          0.
          (List.init (hi - lo + 1) (fun i -> lo + i))
      in
      let parts = Pool.tree_map ~jobs ~cap ~children:range_children ~run [| (0, n) |] in
      let seq = run (0, n) in
      (* The fold is not associative, so compare through the same merge
         on the jobs:1 frontier instead of against [seq] directly — and
         check the frontier itself ignores the width. *)
      let parts1 =
        Pool.tree_map ~jobs:1 ~cap ~children:range_children ~run [| (0, n) |]
      in
      parts = parts1 && (Array.length parts <> 1 || parts.(0) = seq))

let test_tree_cap_knob () =
  let prev = Pool.tree_cap () in
  Fun.protect
    ~finally:(fun () -> Pool.set_tree_cap prev)
    (fun () ->
      Alcotest.(check int) "default" Pool.default_tree_cap prev;
      Pool.set_tree_cap 7;
      Alcotest.(check int) "set" 7 (Pool.tree_cap ());
      Pool.set_tree_cap 0;
      Alcotest.(check int) "clamped" 1 (Pool.tree_cap ()))

let test_pool_nested_tree_map () =
  (* Satellite regression: a pool worker that itself fans out a task
     tree must fall back to the sequential path and still be exact. *)
  let inner i =
    let run (lo, hi) = (hi - lo + 1) * (i + 1) in
    Array.fold_left ( + ) 0
      (Pool.tree_map ~jobs:4 ~cap:16 ~children:range_children ~run [| (0, 20) |])
  in
  Alcotest.(check bool) "nested tree_map = sequential" true
    (Pool.map ~jobs:4 inner (Array.init 8 Fun.id)
    = Array.map inner (Array.init 8 Fun.id))

let test_incumbent_monotone () =
  let inc = Pool.Incumbent.make 10. in
  Pool.Incumbent.lower_to inc 5.;
  Alcotest.(check (float 0.)) "lowered" 5. (Pool.Incumbent.get inc);
  Pool.Incumbent.lower_to inc 7.;
  Alcotest.(check (float 0.)) "never raised" 5. (Pool.Incumbent.get inc);
  (* Concurrent lowers from pool workers: the minimum wins. *)
  ignore
    (Pool.map ~jobs:4
       (fun v -> Pool.Incumbent.lower_to inc v)
       (Array.init 64 (fun i -> 4. -. (float_of_int i /. 32.))));
  Alcotest.(check (float 1e-12)) "min of all lowers" (4. -. (63. /. 32.))
    (Pool.Incumbent.get inc)

let prop_pool_rng_per_task =
  Helpers.qtest ~count:30 "per-task derived Rng streams are schedule-independent"
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 1000))
    (fun (jobs, seed) ->
      (* The campaign pattern: every task derives its own stream from
         (campaign seed, task index); results must not depend on jobs. *)
      let task i =
        let rng = Rng.create (Hashtbl.hash (seed, i)) in
        Rng.float rng 1.0 +. float_of_int (Rng.int rng 100)
      in
      let tasks = Array.init 20 Fun.id in
      Pool.map ~jobs task tasks = Pool.map ~jobs:1 task tasks)

(* ------------------------------------------------------------------ *)
(* Float_sort                                                          *)
(* ------------------------------------------------------------------ *)

(* Every value class whose order or identity a float sort can get
   wrong: both zeros, NaNs of several signs and payloads, the
   infinities, subnormals and the extreme normals. *)
let awkward_floats =
  [|
    0.; -0.; Float.nan; -.Float.nan;
    Int64.float_of_bits 0x7ff0_0000_0000_0001L (* signalling payload *);
    Int64.float_of_bits 0xfff8_0000_0000_00ffL;
    Float.infinity; Float.neg_infinity; 4.9e-324; -4.9e-324; 1e-310;
    Float.min_float; Float.max_float; -.Float.max_float;
  |]

let bits a = Array.map Int64.bits_of_float a

let sort_matches_list a =
  let sorted = Array.copy a in
  Float_sort.sort sorted;
  bits sorted = bits (Array.of_list (List.sort compare (Array.to_list a)))

let sort_uniq_matches_list a =
  let before = bits a in
  let uniq = Float_sort.sort_uniq a in
  bits uniq = bits (Array.of_list (List.sort_uniq compare (Array.to_list a)))
  && bits a = before

(* Few distinct values, so duplicates and equal-but-distinct members
   (±0., NaN payloads) are common. *)
let gen_float_array =
  QCheck2.Gen.(
    let elt =
      frequency
        [
          (3, oneofa awkward_floats);
          (3, map float_of_int (int_range (-8) 8));
          (1, float);
        ]
    in
    let len = frequency [ (4, int_range 0 40); (1, int_range 0 5000) ] in
    map Array.of_list (list_size len elt))

let prop_float_sort =
  Helpers.qtest ~count:300 "sort = List.sort compare, bitwise" gen_float_array
    sort_matches_list

let prop_float_sort_uniq =
  Helpers.qtest ~count:300 "sort_uniq = List.sort_uniq compare, bitwise"
    gen_float_array sort_uniq_matches_list

(* Every length around the insertion-sort cutoff (16) and the first
   merge widths, then large ones, on seeded random contents. *)
let test_float_sort_lengths () =
  let rng = Rng.create 7 in
  let lengths = List.init 70 Fun.id @ [ 127; 128; 129; 255; 256; 257; 1000; 4999; 5000 ] in
  List.iter
    (fun len ->
      let a =
        Array.init len (fun _ ->
            if Rng.bool rng then Rng.pick rng awkward_floats
            else float_of_int (Rng.int_in rng (-5) 5) /. 4.)
      in
      if not (sort_matches_list a) then Alcotest.failf "sort differs at length %d" len;
      if not (sort_uniq_matches_list a) then
        Alcotest.failf "sort_uniq differs at length %d" len)
    lengths

let test_float_sort_uniq_member () =
  (* List.sort_uniq keeps the second of two equal leading elements of a
     three-element block, so -0. survives here, not the first 0. *)
  let u = Float_sort.sort_uniq [| 0.; -0.; 1. |] in
  Alcotest.(check (array int64)) "keeps -0." (bits [| -0.; 1. |]) (bits u);
  let u = Float_sort.sort_uniq [| 0.; -0. |] in
  Alcotest.(check (array int64)) "keeps 0." (bits [| 0. |]) (bits u);
  let a = [| 2.; Float.nan; 1.; -0.; 0.; Float.neg_infinity |] in
  Float_sort.sort a;
  Alcotest.(check bool) "NaN first" true (Float.is_nan a.(0));
  Alcotest.(check (array int64)) "stable zeros"
    (bits [| Float.neg_infinity; -0.; 0.; 1.; 2. |])
    (bits (Array.sub a 1 5))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int_in extremes" `Quick test_rng_int_in_hits_extremes;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "float_in bounds" `Quick test_rng_float_in_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "shuffle multiset" `Quick test_rng_shuffle_preserves_elements;
          Alcotest.test_case "pick member" `Quick test_rng_pick_member;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
        ] );
      ( "float-sort",
        [
          prop_float_sort;
          prop_float_sort_uniq;
          Alcotest.test_case "lengths across the cutoff" `Quick test_float_sort_lengths;
          Alcotest.test_case "sort_uniq keeps List's member" `Quick
            test_float_sort_uniq_member;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "mean_opt" `Quick test_mean_opt;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "gmean nonpositive" `Quick
            test_geometric_mean_rejects_nonpositive;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile bad q" `Quick test_percentile_bad_q;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "acc matches batch" `Quick test_acc_matches_batch;
          Alcotest.test_case "acc empty" `Quick test_acc_empty;
          prop_acc_mean;
          prop_percentile_monotone;
        ] );
      ( "series",
        [
          Alcotest.test_case "sorted" `Quick test_series_sorted;
          Alcotest.test_case "interpolate inside" `Quick test_series_interpolate_inside;
          Alcotest.test_case "interpolate at knot" `Quick test_series_interpolate_at_knot;
          Alcotest.test_case "interpolate outside" `Quick
            test_series_interpolate_outside;
          Alcotest.test_case "resample" `Quick test_series_resample;
          Alcotest.test_case "ranges" `Quick test_series_ranges;
          Alcotest.test_case "average identical" `Quick test_series_average_of_identical;
          Alcotest.test_case "average empty" `Quick test_series_average_empty;
          Alcotest.test_case "map/filter" `Quick test_series_map_filter;
          Alcotest.test_case "uniform grid" `Quick test_uniform_grid;
          prop_interpolate_within_bounds;
        ] );
      ( "pool",
        [
          Alcotest.test_case "defaults and clamping" `Quick test_pool_defaults;
          prop_pool_map_is_array_map;
          prop_pool_map_list_is_list_map;
          Alcotest.test_case "nested map" `Quick test_pool_nested_map;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "first failing chunk wins" `Quick
            test_pool_first_failing_chunk_wins;
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_single;
          prop_pool_rng_per_task;
          prop_fan_out_preserves_order;
          prop_fan_out_deterministic_and_bounded;
          Alcotest.test_case "fan_out leaves and depth" `Quick
            test_fan_out_leaves_and_depth;
          prop_tree_map_equals_sequential;
          Alcotest.test_case "tree cap knob" `Quick test_tree_cap_knob;
          Alcotest.test_case "nested tree_map" `Quick test_pool_nested_tree_map;
          Alcotest.test_case "incumbent monotone" `Quick test_incumbent_monotone;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "degenerate" `Quick test_histogram_degenerate;
          Alcotest.test_case "render" `Quick test_histogram_render;
          Alcotest.test_case "rejects" `Quick test_histogram_rejects;
          prop_histogram_conserves_samples;
        ] );
      ( "matching",
        [
          Alcotest.test_case "bipartite perfect" `Quick test_bipartite_perfect;
          Alcotest.test_case "bipartite imperfect" `Quick test_bipartite_imperfect;
          Alcotest.test_case "bipartite empty adj" `Quick test_bipartite_empty_adjacency;
          Alcotest.test_case "bipartite bad input" `Quick
            test_bipartite_rejects_bad_input;
          Alcotest.test_case "bipartite consistency" `Quick
            test_bipartite_matching_consistency;
          prop_bipartite_size_bounds;
          Alcotest.test_case "hungarian known" `Quick test_hungarian_known;
          Alcotest.test_case "hungarian rectangular" `Quick test_hungarian_rectangular;
          Alcotest.test_case "hungarian infeasible" `Quick test_hungarian_infeasible;
          Alcotest.test_case "hungarian forbidden" `Quick
            test_hungarian_partial_forbidden;
          Alcotest.test_case "hungarian rows > cols" `Quick
            test_hungarian_rows_exceed_cols;
          prop_hungarian_matches_brute;
        ] );
      ( "table-csv-plot",
        [
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "table ragged" `Quick test_table_ragged_rows;
          Alcotest.test_case "table empty" `Quick test_table_empty;
          Alcotest.test_case "table markdown" `Quick test_table_markdown;
          Alcotest.test_case "float cell" `Quick test_float_cell;
          Alcotest.test_case "dat format" `Quick test_csv_dat;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
          Alcotest.test_case "csv of series" `Quick test_csv_of_series;
          Alcotest.test_case "to_file mkdir" `Quick test_csv_to_file;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot_renders;
          Alcotest.test_case "ascii plot empty" `Quick test_ascii_plot_empty;
          Alcotest.test_case "ascii plot flat" `Quick test_ascii_plot_flat_series;
          Alcotest.test_case "render table" `Quick test_render_table;
        ] );
    ]
