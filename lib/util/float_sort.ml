(* Monomorphic stable sort over flat float arrays (DESIGN.md §15). The
   comparisons below are inlined float tests on unboxed array reads, so
   no element is boxed and no closure is called per comparison — the
   two costs that make [List.sort compare] and [Array.sort Float.compare]
   slow on floats. *)

(* [Float.compare a b < 0]: NaN below everything, NaNs equal to each
   other, -0. equal to 0. *)
let[@inline always] lt (a : float) (b : float) = a < b || (a <> a && b = b)

let[@inline always] equal (a : float) (b : float) =
  a = b || (a <> a && b <> b)

(* Runs shorter than this are insertion-sorted before merging. *)
let cutoff = 16

(* Stable: an element moves left only past strictly greater ones. *)
let insertion a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && lt x (Array.unsafe_get a !j) do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Merge the sorted runs src[lo, mid) and src[mid, hi) into dst[lo, hi);
   ties take the left run first, which keeps the sort stable. *)
let merge src lo mid hi dst =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let x = Array.unsafe_get src !i and y = Array.unsafe_get src !j in
    if lt y x then begin
      Array.unsafe_set dst !k y;
      incr j
    end
    else begin
      Array.unsafe_set dst !k x;
      incr i
    end;
    incr k
  done;
  if !i < mid then Array.blit src !i dst !k (mid - !i)
  else if !j < hi then Array.blit src !j dst !k (hi - !j)

(* Scratch arrays are kept per domain up to [retain] elements, so that
   repeated sorts of candidate-set size allocate only their results:
   short-lived arrays of that size live outside the minor heap, and a
   stream of them grows the process's resident memory. A buffer already
   in use (a nested call, or another systhread of the domain mid-sort)
   means a fresh one. *)
let retain = 1 lsl 16

type scratch = { mutable buf : float array; busy : bool Atomic.t }

let new_scratch () = { buf = [||]; busy = Atomic.make false }
let merge_key = Domain.DLS.new_key new_scratch
let work_key = Domain.DLS.new_key new_scratch

let with_scratch key n f =
  let s = Domain.DLS.get key in
  if n > retain || not (Atomic.compare_and_set s.busy false true) then
    f (Array.create_float n)
  else begin
    if Array.length s.buf < n then s.buf <- Array.create_float n;
    match f s.buf with
    | r ->
      Atomic.set s.busy false;
      r
    | exception e ->
      Atomic.set s.busy false;
      raise e
  end

(* Sort a.(0 .. n-1) in place. *)
let sort_prefix a n =
  let lo = ref 0 in
  while !lo < n do
    insertion a !lo (min n (!lo + cutoff));
    lo := !lo + cutoff
  done;
  if n > cutoff then
    with_scratch merge_key n (fun tmp ->
        let src = ref a and dst = ref tmp in
        let width = ref cutoff in
        while !width < n do
          let lo = ref 0 in
          while !lo < n do
            let mid = min n (!lo + !width) in
            let hi = min n (mid + !width) in
            merge !src !lo mid hi !dst;
            lo := hi
          done;
          let s = !src in
          src := !dst;
          dst := s;
          width := 2 * !width
        done;
        if !src != a then Array.blit !src 0 a 0 n)

let sort a = sort_prefix a (Array.length a)

(* Which member of a class of equal values [List.sort_uniq compare]
   keeps, given the class's first position [i] among a.(0 .. n-1). Its
   merge sort splits a length-[n] list into halves of [n asr 1] and the
   rest down to blocks of two or three, keeps the left half's survivor
   at every merge, and inside a block of three keeps the second element
   when the first two are equal. So the survivor is [a.(i)], unless [i]
   opens a block of three whose next element is in the class too. *)
let survivor a n i =
  let rec block lo len =
    if len <= 3 then (lo, len)
    else
      let half = len asr 1 in
      if i < lo + half then block lo half else block (lo + half) (len - half)
  in
  let lo, len = block 0 n in
  if len = 3 && i = lo && equal a.(i) a.(i + 1) then a.(i + 1) else a.(i)

(* Sort a.(0 .. n-1) and return its distinct values as a fresh array. *)
let sort_uniq_prefix a n =
  if n < 2 then Array.sub a 0 n
  else begin
    (* Equal non-zero, non-NaN floats share their bits, so any member
       of their class will do; zeros (±0.) and NaNs (any payload) need
       the member List.sort_uniq keeps, found before sorting moves them. *)
    let first_zero = ref n and first_nan = ref n in
    for i = n - 1 downto 0 do
      let v = Array.unsafe_get a i in
      if v = 0. then first_zero := i else if v <> v then first_nan := i
    done;
    let zero = if !first_zero < n then survivor a n !first_zero else 0. in
    let nan = if !first_nan < n then survivor a n !first_nan else Float.nan in
    sort_prefix a n;
    let k = ref 0 and i = ref 0 in
    while !i < n do
      let v = Array.unsafe_get a !i in
      let j = ref (!i + 1) in
      while !j < n && equal (Array.unsafe_get a !j) v do
        incr j
      done;
      let keep = if v = 0. then zero else if v <> v then nan else v in
      Array.unsafe_set a !k keep;
      incr k;
      i := !j
    done;
    Array.sub a 0 !k
  end

let sort_uniq_init n fill =
  with_scratch work_key n (fun work ->
      fill work;
      sort_uniq_prefix work n)

let sort_uniq a =
  let n = Array.length a in
  sort_uniq_init n (fun work -> Array.blit a 0 work 0 n)
