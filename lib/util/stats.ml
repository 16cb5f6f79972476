let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mean_opt = function [] -> None | xs -> Some (mean xs)

let geometric_mean = function
  | [] -> invalid_arg "Stats.geometric_mean: empty list"
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0. then
            invalid_arg "Stats.geometric_mean: non-positive value"
          else acc +. log x)
        0. xs
    in
    exp (log_sum /. float_of_int (List.length xs))

let variance xs =
  let n = List.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sq /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let sorted xs =
  let a = Array.of_list xs in
  Float_sort.sort a;
  a

let median = function
  | [] -> invalid_arg "Stats.median: empty list"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2)
    else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile q = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | _ when q < 0. || q > 1. -> invalid_arg "Stats.percentile: q not in [0,1]"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n = 1 then a.(0)
    else
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (floor pos) in
      let hi = int_of_float (ceil pos) in
      if lo = hi then a.(lo)
      else
        let frac = pos -. float_of_int lo in
        (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
    List.fold_left (fun (mn, mx) v -> (Float.min mn v, Float.max mx v)) (x, x) xs

module Acc = struct
  type t = {
    count : int;
    mean : float;
    m2 : float;  (* sum of squared deviations, Welford *)
    min : float;
    max : float;
  }

  let empty = { count = 0; mean = 0.; m2 = 0.; min = nan; max = nan }

  let add t x =
    let count = t.count + 1 in
    let delta = x -. t.mean in
    let mean = t.mean +. (delta /. float_of_int count) in
    let m2 = t.m2 +. (delta *. (x -. mean)) in
    let min = if t.count = 0 then x else Float.min t.min x in
    let max = if t.count = 0 then x else Float.max t.max x in
    { count; mean; m2; min; max }

  let add_list t xs = List.fold_left add t xs
  let count t = t.count
  let mean t = if t.count = 0 then nan else t.mean

  let stddev t =
    if t.count < 2 then 0. else sqrt (t.m2 /. float_of_int (t.count - 1))

  let min t = t.min
  let max t = t.max
end
