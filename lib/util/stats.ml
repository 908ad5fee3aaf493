type series = { mutable values : float list; mutable n : int }

type histogram = {
  buckets : float array;  (* upper bounds, strictly increasing *)
  counts : int array;  (* length buckets + 1; last is overflow *)
  mutable sum : float;
  mutable samples : int;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  series : (string, series) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; series = Hashtbl.create 16; histograms = Hashtbl.create 8 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = Stdlib.incr (counter_ref t name)

let add t name v =
  let r = counter_ref t name in
  r := !r + v

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let series_ref t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
      let s = { values = []; n = 0 } in
      Hashtbl.add t.series name s;
      s

let record t name v =
  let s = series_ref t name in
  s.values <- v :: s.values;
  s.n <- s.n + 1

let samples t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> List.rev s.values
  | None -> []

let count t name = match Hashtbl.find_opt t.series name with Some s -> s.n | None -> 0

let total t name = List.fold_left ( +. ) 0.0 (samples t name)

let mean t name =
  let n = count t name in
  if n = 0 then Float.nan else total t name /. float_of_int n

let min_max t name =
  match samples t name with
  | [] -> None
  | x :: rest ->
      Some (List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) rest)

let percentile t name p =
  match samples t name with
  | [] -> Float.nan
  | values ->
      let arr = Array.of_list values in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      let idx = Int.max 0 (Int.min (n - 1) (rank - 1)) in
      arr.(idx)

(* Doubling buckets from 1: enough dynamic range for latencies in
   ticks, chain lengths and byte sizes without per-metric tuning. *)
let default_buckets =
  Array.init 20 (fun i -> Float.of_int (1 lsl i))

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let buckets = default_buckets in
        let h =
          { buckets; counts = Array.make (Array.length buckets + 1) 0; sum = 0.0; samples = 0 }
        in
        Hashtbl.add t.histograms name h;
        h
  in
  let n = Array.length h.buckets in
  let i = ref 0 in
  while !i < n && v > h.buckets.(!i) do
    Stdlib.incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.sum <- h.sum +. v;
  h.samples <- h.samples + 1

(* Nearest-rank percentile over a fixed-bucket histogram: walk the
   cumulative counts to the bucket holding the rank and report its
   upper bound (the histogram only knows samples to bucket
   granularity, and an upper bound is the conservative answer for a
   latency gate).  The overflow bucket has no bound: infinity. *)
let histogram_percentile h p =
  if h.samples = 0 then Float.nan
  else begin
    let rank =
      Int.max 1 (Int.min h.samples (int_of_float (ceil (p /. 100.0 *. float_of_int h.samples))))
    in
    let n = Array.length h.counts in
    let rec go i cum =
      if i >= n then Float.infinity
      else
        let cum = cum + h.counts.(i) in
        if cum >= rank then
          if i < Array.length h.buckets then h.buckets.(i) else Float.infinity
        else go (i + 1) cum
    in
    go 0 0
  end

let histogram_opt t name = Hashtbl.find_opt t.histograms name

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let series_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.series [] |> List.sort String.compare

let to_json t =
  let counters_json = Json.obj_sorted (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) in
  let series_json =
    Json.obj_sorted
      (List.map
         (fun name ->
           let n = count t name in
           let lo, hi = match min_max t name with Some (lo, hi) -> (lo, hi) | None -> (0.0, 0.0) in
           ( name,
             Json.Obj
               [
                 ("count", Json.Int n);
                 ("total", Json.of_float (total t name));
                 ("mean", Json.of_float (mean t name));
                 ("min", Json.of_float lo);
                 ("max", Json.of_float hi);
                 ("p50", Json.of_float (percentile t name 50.0));
                 ("p99", Json.of_float (percentile t name 99.0));
               ] ))
         (series_names t))
  in
  let histograms_json =
    Json.obj_sorted
      (List.map
         (fun (name, h) ->
           ( name,
             Json.Obj
               [
                 ("buckets", Json.Arr (Array.to_list (Array.map Json.of_float h.buckets)));
                 ("counts", Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
                 ("sum", Json.of_float h.sum);
                 ("samples", Json.Int h.samples);
               ] ))
         (histograms t))
  in
  Json.Obj
    [ ("counters", counters_json); ("histograms", histograms_json); ("series", series_json) ]
