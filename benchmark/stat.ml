(* Order statistics shared by the benchmark and its comparison tool. *)

let sorted xs = List.sort Float.compare xs

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), so spreads computed here match the ones
   an outside checker computes from the same values.  Needs two values;
   a single value is its own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Stat.quartiles: no values"
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Nearest-rank percentile ([p] in (0, 1]) of a latency sample. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
