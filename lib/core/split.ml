open Pipeline_model

type piece = { first : int; last : int; proc : int; cycle : float }

type candidate = {
  target : int;
  pieces : piece list;
  enrolled : int;
  max_piece_cycle : float;
  period : float;
  latency : float;
  dlatency : float;
  ratio : float;
}

type part = { p_first : int; p_last : int; p_proc : int }

type t = {
  inst : Instance.t;
  cost : Cost.t;            (* shared evaluation engine (comm-hom) *)
  order : int array;        (* processors by non-increasing speed *)
  next_rank : int;          (* rank of the next unused processor *)
  parts : part array;       (* intervals in pipeline order *)
  cycles : float array;     (* cycle-time per interval *)
  latency : float;
}

let initial (inst : Instance.t) =
  if not (Platform.is_comm_homogeneous inst.platform) then
    invalid_arg "Split.initial: heuristics require a comm-homogeneous platform";
  let cost = Cost.get inst.app inst.platform in
  let order = Platform.by_decreasing_speed inst.platform in
  let n = Application.n inst.app in
  let u = order.(0) in
  let part = { p_first = 1; p_last = n; p_proc = u } in
  let cycle = Cost.cycle cost ~d:1 ~e:n ~u in
  let latency = Cost.contrib cost ~d:1 ~e:n ~u +. Cost.dout cost ~e:n in
  {
    inst;
    cost;
    order;
    next_rank = 1;
    parts = [| part |];
    cycles = [| cycle |];
    latency;
  }

let instance t = t.inst
let latency t = t.latency
let intervals t = Array.length t.parts
let unused t = Array.length t.order - t.next_rank

let period t = Array.fold_left Float.max neg_infinity t.cycles

let cycle t j =
  if j < 0 || j >= intervals t then invalid_arg "Split.cycle: out of range";
  t.cycles.(j)

let length t j =
  if j < 0 || j >= intervals t then invalid_arg "Split.length: out of range";
  t.parts.(j).p_last - t.parts.(j).p_first + 1

let bottleneck t =
  let best = ref 0 in
  Array.iteri (fun j c -> if c > t.cycles.(!best) then best := j) t.cycles;
  !best

let max_cycle_excluding t j =
  let worst = ref neg_infinity in
  Array.iteri (fun i c -> if i <> j then worst := Float.max !worst c) t.cycles;
  !worst

(* Build a candidate from the replacement pieces of interval [j], if every
   piece improves on the interval's current cycle-time. *)
let candidate_of_pieces t ~j ~enrolled ~max_excl ~old_contrib pieces =
  let old_cycle = t.cycles.(j) in
  let max_piece = List.fold_left (fun m p -> Float.max m p.cycle) neg_infinity pieces in
  if max_piece >= old_cycle then None
  else begin
    let contrib =
      List.fold_left
        (fun acc p -> acc +. Cost.contrib t.cost ~d:p.first ~e:p.last ~u:p.proc)
        0. pieces
    in
    let dlatency = contrib -. old_contrib in
    let latency = t.latency +. dlatency in
    let period = Float.max max_excl max_piece in
    let ratio =
      List.fold_left
        (fun m p -> Float.max m (dlatency /. (old_cycle -. p.cycle)))
        neg_infinity pieces
    in
    Some
      {
        target = j;
        pieces;
        enrolled;
        max_piece_cycle = max_piece;
        period;
        latency;
        dlatency;
        ratio;
      }
  end

let mk_piece t d e u =
  { first = d; last = e; proc = u; cycle = Cost.cycle t.cost ~d ~e ~u }

type arity = Two | Three | Three_or_two
type rule = Mono | Bi

let check_target t j fn =
  if j < 0 || j >= intervals t then invalid_arg (fn ^ ": out of range")

(* The processors a split of [part] may use, by slot: 0 is the
   interval's own, 1 and 2 the next unused ones in the speed order. *)
let slot_procs t part ~arity =
  let wanted = match arity with Two -> 2 | Three | Three_or_two -> 3 in
  let procs = Array.make (min wanted (1 + unused t)) part.p_proc in
  for s = 1 to Array.length procs - 1 do
    procs.(s) <- t.order.(t.next_rank + s - 1)
  done;
  procs

(* The one enumeration of the splits of [part], in generation order.
   [k c1 c2 s1 s2 s3] receives the pieces [first..c1] on slot [s1],
   [c1+1..c2] on slot [s2] and, for a 3-way split, [c2+1..last] on slot
   [s3]; a 2-way split has [c2 = last] and [s3 = -1]. *)
let iter_two part ~slots k =
  if part.p_last > part.p_first && slots >= 2 then begin
    let e = part.p_last in
    for c = part.p_first to e - 1 do
      k c e 0 1 (-1);
      k c e 1 0 (-1)
    done
  end

let iter_three part ~slots k =
  if part.p_last - part.p_first >= 2 && slots >= 3 then
    for c1 = part.p_first to part.p_last - 2 do
      for c2 = c1 + 1 to part.p_last - 1 do
        (* Slot 0 keeps one of the three parts; slots 1 and 2 take the
           other two in both orders: six assignments per cut pair. *)
        k c1 c2 0 1 2;
        k c1 c2 0 2 1;
        k c1 c2 1 0 2;
        k c1 c2 2 0 1;
        k c1 c2 1 2 0;
        k c1 c2 2 1 0
      done
    done

(* [stuck ()] tells the fallback that no improving 3-way split was
   seen, so the 2-way splits are enumerated instead. *)
let enumerate part ~arity ~slots ~stuck k =
  match arity with
  | Two -> iter_two part ~slots k
  | Three -> iter_three part ~slots k
  | Three_or_two ->
    iter_three part ~slots k;
    if stuck () then iter_two part ~slots k

let pieces_of t part procs c1 c2 s1 s2 s3 =
  let p1 = mk_piece t part.p_first c1 procs.(s1) in
  let p2 = mk_piece t (c1 + 1) c2 procs.(s2) in
  if s3 < 0 then [ p1; p2 ]
  else [ p1; p2; mk_piece t (c2 + 1) part.p_last procs.(s3) ]

let enrolled_by s3 = if s3 < 0 then 1 else 2

let candidates t ~j ~arity =
  check_target t j "Split.candidates";
  let part = t.parts.(j) in
  let procs = slot_procs t part ~arity in
  let max_excl = max_cycle_excluding t j in
  let old_contrib =
    Cost.contrib t.cost ~d:part.p_first ~e:part.p_last ~u:part.p_proc
  in
  let acc = ref [] in
  enumerate part ~arity ~slots:(Array.length procs)
    ~stuck:(fun () -> !acc = [])
    (fun c1 c2 s1 s2 s3 ->
      match
        candidate_of_pieces t ~j ~enrolled:(enrolled_by s3) ~max_excl
          ~old_contrib
          (pieces_of t part procs c1 c2 s1 s2 s3)
      with
      | Some cand -> acc := cand :: !acc
      | None -> ());
  List.rev !acc

(* The running winner of {!best}: its scores in an all-float record (so
   updates store unboxed floats) and its split in an immediate one. *)
type scores = {
  mutable w_cycle : float;
  mutable w_dlatency : float;
  mutable w_ratio : float;
}

type winner = {
  mutable found : bool;
  mutable improving : bool;
  mutable c1 : int;
  mutable c2 : int;
  mutable s1 : int;
  mutable s2 : int;
  mutable s3 : int;
}

(* [Float.max], with its sign-bit calls taken only when the operands
   compare equal or unordered: if [y > x] it returns [y], if [x > y] it
   returns [x] (a sign-bit tie-break needs [x <= y]). *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y else if x > y then x else Float.max x y

(* Fused generation, latency-cap filter and selection. Every quantity is
   the float expression {!candidate_of_pieces} evaluates, in the same
   association order, and only a strictly better candidate replaces the
   winner, so the result is the first-wins selection over the filtered
   candidate list, bit for bit. The folds' [neg_infinity] seeds are
   dropped: [Float.max neg_infinity y] is [y] for every float, NaN
   included, and a boxed constant operand would box every piece.

   The hot loop calls no cost function: the latency contribution of
   every piece it can form is tabulated first, by slot, at offset
   [stage - first] — [head] for pieces [first..e], [tail] for pieces
   [d..last], [mid] for the pieces [c1+1..e] of the current cut row of
   a 3-way split. A piece's cycle-time is its contribution plus [δ_e/b],
   the very sum {!Cost.cycle} evaluates. *)
let best t ~j ~arity ~rule ~cap =
  check_target t j "Split.best";
  let part = t.parts.(j) and old_cycle = t.cycles.(j) in
  let first = part.p_first and last = part.p_last in
  let len = last - first + 1 in
  let procs = slot_procs t part ~arity in
  let slots = Array.length procs in
  let old_contrib = Cost.contrib t.cost ~d:first ~e:last ~u:part.p_proc in
  let dout = Array.make len 0. in
  Cost.douts t.cost ~e_min:first ~e_max:last dout ~pos:0;
  let head = Array.make (slots * len) 0. and tail = Array.make (slots * len) 0. in
  for s = 0 to slots - 1 do
    let u = procs.(s) in
    Cost.contribs_from t.cost ~d:first ~e_max:(last - 1) ~u head ~pos:(s * len);
    Cost.contribs_to t.cost ~d_min:(first + 1) ~e:last ~u tail ~pos:((s * len) + 1)
  done;
  let mid = Array.make (if len >= 3 && slots >= 3 then slots * len else 0) 0. in
  let mid_row = ref (-1) in
  let ceiling = Pipeline_util.Tol.ceiling cap in
  let sc = { w_cycle = 0.; w_dlatency = 0.; w_ratio = 0. } in
  let w =
    { found = false; improving = false; c1 = 0; c2 = 0; s1 = 0; s2 = 0; s3 = 0 }
  in
  let consider c1 c2 s1 s2 s3 =
    let three = s3 >= 0 in
    if three && c1 <> !mid_row then begin
      mid_row := c1;
      for s = 0 to slots - 1 do
        Cost.contribs_from t.cost ~d:(c1 + 1) ~e_max:(last - 1) ~u:procs.(s) mid
          ~pos:((s * len) + c1 + 1 - first)
      done
    end;
    let k1 = head.((s1 * len) + c1 - first) in
    let k2 =
      if three then mid.((s2 * len) + c2 - first)
      else tail.((s2 * len) + c1 + 1 - first)
    in
    let k3 = if three then tail.((s3 * len) + c2 + 1 - first) else 0. in
    let y1 = k1 +. dout.(c1 - first) and y2 = k2 +. dout.(c2 - first) in
    let y3 = if three then k3 +. dout.(len - 1) else 0. in
    let max_piece =
      let m = fmax y1 y2 in
      if three then fmax m y3 else m
    in
    if max_piece >= old_cycle then ()
    else begin
      w.improving <- true;
      let by_cycle = if w.found then Float.compare max_piece sc.w_cycle else -1 in
      match rule with
      | Mono when by_cycle > 0 -> () (* cannot win, whatever its latency *)
      | _ ->
        let sum = 0. +. k1 +. k2 in
        let sum = if three then sum +. k3 else sum in
        let dlatency = sum -. old_contrib in
        if t.latency +. dlatency <= ceiling then begin
          let wins =
            match rule with
            | Mono -> by_cycle < 0 || dlatency < sc.w_dlatency
            | Bi ->
              let r =
                fmax
                  (dlatency /. (old_cycle -. y1))
                  (dlatency /. (old_cycle -. y2))
              in
              let r =
                if three then fmax r (dlatency /. (old_cycle -. y3)) else r
              in
              let by_ratio = Float.compare r sc.w_ratio in
              if (not w.found) || by_ratio < 0
                 || (by_ratio = 0 && max_piece < sc.w_cycle)
              then begin
                sc.w_ratio <- r;
                true
              end
              else false
          in
          if wins then begin
            sc.w_cycle <- max_piece;
            sc.w_dlatency <- dlatency;
            w.found <- true;
            w.c1 <- c1;
            w.c2 <- c2;
            w.s1 <- s1;
            w.s2 <- s2;
            w.s3 <- s3
          end
        end
    end
  in
  enumerate part ~arity ~slots ~stuck:(fun () -> not w.improving) consider;
  if not w.found then None
  else
    candidate_of_pieces t ~j ~enrolled:(enrolled_by w.s3)
      ~max_excl:(max_cycle_excluding t j) ~old_contrib
      (pieces_of t part procs w.c1 w.c2 w.s1 w.s2 w.s3)

let apply t cand =
  let j = cand.target in
  if j < 0 || j >= intervals t then invalid_arg "Split.apply: stale candidate";
  let m = intervals t and k = List.length cand.pieces in
  let parts = Array.make (m + k - 1) t.parts.(j) in
  let cycles = Array.make (m + k - 1) 0. in
  Array.blit t.parts 0 parts 0 j;
  Array.blit t.cycles 0 cycles 0 j;
  List.iteri
    (fun i p ->
      parts.(j + i) <- { p_first = p.first; p_last = p.last; p_proc = p.proc };
      cycles.(j + i) <- p.cycle)
    cand.pieces;
  Array.blit t.parts (j + 1) parts (j + k) (m - j - 1);
  Array.blit t.cycles (j + 1) cycles (j + k) (m - j - 1);
  {
    t with
    next_rank = t.next_rank + cand.enrolled;
    parts;
    cycles;
    latency = cand.latency;
  }

let to_solution t =
  let pairs =
    Array.to_list
      (Array.map
         (fun p -> (Interval.make ~first:p.p_first ~last:p.p_last, p.p_proc))
         t.parts)
  in
  let mapping = Mapping.make ~n:(Application.n t.inst.Instance.app) pairs in
  Solution.of_mapping t.inst mapping
