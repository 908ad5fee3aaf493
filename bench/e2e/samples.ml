(* Growable sample buffer with nearest-rank percentiles. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest rank on a sorted array; 0 when empty so every reported
   value stays a number. *)
let rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(Int.max 0 (Int.min (n - 1) (r - 1)))

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Float.compare a;
  a

(* Mean of the two middle values for an even count, as Python's
   [statistics.median] gives it. *)
let median l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles, interpolated the way Python's
   [statistics.quantiles l ~n:4] does by default ("exclusive"). *)
let quartiles l =
  let a = sorted_of_list l in
  let n = Array.length a in
  let q i =
    let j = Int.max 1 (Int.min (n - 1) (i * (n + 1) / 4)) in
    let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (q 1, q 3)
