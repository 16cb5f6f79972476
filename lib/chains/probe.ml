let greedy ?(from = 1) ?(cap = max_int) prefix ~bound ~on_cut =
  (* Walks the leftmost-greedy partition of [from..n], handing each cut
     position to [on_cut] in order, and returns its interval count; None
     when some single element exceeds the bound or when more than [cap]
     intervals would be needed. Callers that only count pass [ignore],
     so a feasibility probe allocates no cut list. *)
  let n = Prefix.n prefix in
  if from < 1 || from > n then invalid_arg "Probe: from out of range";
  if cap < 1 then invalid_arg "Probe: cap must be >= 1";
  if Prefix.max_from prefix from > bound then None
  else begin
    (* Interval [count] starts at [start]. The cap check makes a probe
       O(cap log n): the walk gives up as soon as the greedy — and
       therefore minimal — interval count provably exceeds the cap,
       instead of cutting the whole tail first and counting afterwards. *)
    let rec walk start count =
      if count > cap then None
      else
        let e = Prefix.longest_fitting prefix ~from:start ~budget:bound in
        (* max_from <= bound guarantees e >= start. *)
        if e >= n then Some count
        else begin
          on_cut e;
          walk (e + 1) (count + 1)
        end
    in
    walk from 1
  end

let min_intervals ?from ?cap prefix ~bound =
  if bound < 0. then None else greedy ?from ?cap prefix ~bound ~on_cut:ignore

let feasible ?from prefix ~p ~bound =
  if p < 1 then invalid_arg "Probe.feasible: p must be >= 1";
  match min_intervals ?from ~cap:p prefix ~bound with
  | None -> false
  | Some m -> m <= p

let partition prefix ~p ~bound =
  if p < 1 then invalid_arg "Probe.partition: p must be >= 1";
  let cuts = ref [] in
  match greedy ~cap:p prefix ~bound ~on_cut:(fun e -> cuts := e :: !cuts) with
  | Some m when m <= p -> Some (Partition.of_cuts ~n:(Prefix.n prefix) (List.rev !cuts))
  | _ -> None
