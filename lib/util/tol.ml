let accept_rel = 1e-9
let bisect_rel = 1e-12

let ceiling threshold =
  threshold +. (accept_rel *. Float.max 1. (Float.abs threshold))

let meets value threshold = value <= ceiling threshold

let converged ?(rel = bisect_rel) ~lo ~hi () =
  hi -. lo <= rel *. Float.max 1. hi
