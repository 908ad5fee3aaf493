(* Unit tests for adgc_util: RNG, priority queue, trace, stats, dense
   marks, interners and CSR adjacency, tables. *)

module Rng = Adgc_util.Rng
module Heap_queue = Adgc_util.Heap_queue
module Trace = Adgc_util.Trace
module Stats = Adgc_util.Stats
module Table = Adgc_util.Table
module Json = Adgc_util.Json

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a max_int = Rng.int b max_int then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let t = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_in_bounds () =
  let t = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in t (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_covers_range () =
  let t = Rng.create 9 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int t 10) <- true
  done;
  Array.iteri (fun i b -> check Alcotest.bool (Printf.sprintf "value %d seen" i) true b) seen

let test_rng_float_bounds () =
  let t = Rng.create 10 in
  for _ = 1 to 10_000 do
    let v = Rng.float t 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_bernoulli_extremes () =
  let t = Rng.create 11 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Rng.bernoulli t 0.0);
    check Alcotest.bool "p=1 always" true (Rng.bernoulli t 1.0)
  done

let test_rng_bernoulli_rate () =
  let t = Rng.create 12 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli t 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_rng_split_independent () =
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int parent max_int = Rng.int child max_int then incr same
  done;
  check Alcotest.bool "split streams differ" true (!same < 4)

(* Replay rests on [split] being a function of the parent's state:
   two parents seeded alike hand out the same children, and stay in
   step with each other after the split. *)
let test_rng_split_reproducible () =
  let a = Rng.create 21 and b = Rng.create 21 in
  let ca = Rng.split a and cb = Rng.split b in
  for _ = 1 to 100 do
    check Alcotest.int "children in step" (Rng.int ca max_int) (Rng.int cb max_int);
    check Alcotest.int "parents in step" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_pick_list () =
  let t = Rng.create 14 in
  check Alcotest.int "singleton" 7 (Rng.pick_list t [ 7 ]);
  (match Rng.pick_list t [ 1; 2; 3 ] with
  | 1 | 2 | 3 -> ()
  | v -> Alcotest.failf "bad pick %d" v);
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list") (fun () ->
      ignore (Rng.pick_list t []))

(* ------------------------------------------------------------------ *)
(* Heap_queue *)

let test_pq_ordering () =
  let q = Heap_queue.create ~compare:Int.compare in
  List.iter (fun k -> Heap_queue.push q k k) [ 5; 3; 8; 1; 9; 2; 7 ];
  let out = ref [] in
  let rec drain () =
    match Heap_queue.pop q with
    | Some (k, _) ->
        out := k :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_pq_fifo_ties () =
  let q = Heap_queue.create ~compare:Int.compare in
  Heap_queue.push q 1 "a";
  Heap_queue.push q 1 "b";
  Heap_queue.push q 1 "c";
  let pop () = match Heap_queue.pop q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  check (Alcotest.list Alcotest.string) "fifo among equal keys" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_pq_peek () =
  let q = Heap_queue.create ~compare:Int.compare in
  check Alcotest.bool "empty peek" true (Heap_queue.peek q = None);
  Heap_queue.push q 4 "x";
  Heap_queue.push q 2 "y";
  (match Heap_queue.peek q with
  | Some (2, "y") -> ()
  | Some _ | None -> Alcotest.fail "wrong peek");
  check Alcotest.bool "peek does not remove" true (Heap_queue.pop q = Some (2, "y"));
  check Alcotest.bool "the other stays" true (Heap_queue.pop q = Some (4, "x"))

let test_pq_interleaved () =
  let q = Heap_queue.create ~compare:Int.compare in
  Heap_queue.push q 10 10;
  Heap_queue.push q 1 1;
  (match Heap_queue.pop q with Some (1, _) -> () | _ -> Alcotest.fail "expected 1");
  Heap_queue.push q 5 5;
  Heap_queue.push q 0 0;
  (match Heap_queue.pop q with Some (0, _) -> () | _ -> Alcotest.fail "expected 0");
  (match Heap_queue.pop q with Some (5, _) -> () | _ -> Alcotest.fail "expected 5");
  (match Heap_queue.pop q with Some (10, _) -> () | _ -> Alcotest.fail "expected 10");
  check Alcotest.bool "empty" true (Heap_queue.peek q = None)

let test_pq_grows () =
  let q = Heap_queue.create ~compare:Int.compare in
  for i = 999 downto 0 do
    Heap_queue.push q i i
  done;
  for i = 0 to 999 do
    match Heap_queue.pop q with
    | Some (k, _) -> check Alcotest.int "ascending" i k
    | None -> Alcotest.fail "ran out"
  done;
  check Alcotest.bool "exactly 1000" true (Heap_queue.pop q = None)

let test_pq_random_against_sort () =
  let rng = Rng.create 77 in
  let q = Heap_queue.create ~compare:Int.compare in
  let keys = List.init 500 (fun _ -> Rng.int rng 1000) in
  List.iter (fun k -> Heap_queue.push q k ()) keys;
  let expected = List.sort compare keys in
  let rec drain acc =
    match Heap_queue.pop q with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
  in
  check (Alcotest.list Alcotest.int) "matches sort" expected (drain [])

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_order () =
  let t = Trace.create () in
  Trace.addf t ~time:1 ~topic:"a" "one";
  Trace.addf t ~time:2 ~topic:"b" "two";
  Trace.addf t ~time:3 ~topic:"a" "three";
  check (Alcotest.list Alcotest.string) "order" [ "one"; "two"; "three" ]
    (List.map (fun (e : Trace.event) -> e.Trace.text) (Trace.events t))

let test_trace_by_topic () =
  let t = Trace.create () in
  Trace.addf t ~time:1 ~topic:"a" "one";
  Trace.addf t ~time:2 ~topic:"b" "two";
  Trace.addf t ~time:3 ~topic:"a" "three";
  check Alcotest.int "topic filter" 2 (List.length (Trace.by_topic t "a"))

(* The ring holds 65536 events. *)
let test_trace_bounded () =
  let t = Trace.create () in
  let n = 65536 + 6 in
  for i = 1 to n do
    Trace.addf t ~time:i ~topic:"t" "%d" i
  done;
  let texts = List.map (fun (e : Trace.event) -> e.Trace.text) (Trace.events t) in
  check Alcotest.int "full" 65536 (List.length texts);
  check Alcotest.string "oldest evicted first" "7" (List.hd texts);
  check Alcotest.string "keeps newest" (string_of_int n) (List.nth texts 65535)

let test_trace_disable () =
  let t = Trace.create () in
  Trace.set_enabled t false;
  Trace.addf t ~time:1 ~topic:"x" "hidden";
  Trace.addf t ~time:2 ~topic:"x" "also %s" "hidden";
  check Alcotest.int "nothing recorded" 0 (List.length (Trace.events t))

let test_trace_addf () =
  let t = Trace.create () in
  Trace.addf t ~time:5 ~topic:"fmt" "%d-%s" 12 "ab";
  match Trace.events t with
  | [ e ] ->
      check Alcotest.string "formatted" "12-ab" e.Trace.text;
      check Alcotest.int "time" 5 e.Trace.time
  | _ -> Alcotest.fail "expected one event"

let test_trace_pp_event () =
  let t = Trace.create () in
  Trace.addf t ~time:42 ~topic:"dcda" "cdm %d" 3;
  match Trace.events t with
  | [ e ] ->
      check Alcotest.string "time, padded topic, text" "[    42] dcda       cdm 3"
        (Format.asprintf "%a" Trace.pp_event e)
  | _ -> Alcotest.fail "expected one event"

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counters () =
  let s = Stats.create () in
  check Alcotest.int "zero default" 0 (Stats.get s "x");
  Stats.incr s "x";
  Stats.incr s "x";
  Stats.add s "x" 5;
  check Alcotest.int "accumulated" 7 (Stats.get s "x")

let test_stats_counters_sorted () =
  let s = Stats.create () in
  Stats.incr s "zebra";
  Stats.incr s "alpha";
  check (Alcotest.list Alcotest.string) "sorted names" [ "alpha"; "zebra" ]
    (List.map fst (Stats.counters s))

(* A series as its only reader in the system sees it: the summary
   [Stats.to_json] writes, or [None] when the series is absent. *)
let series_summary s name =
  let num = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | Json.Null -> Float.nan
    | _ -> Alcotest.fail "series field is not a number"
  in
  match Stats.to_json s with
  | Json.Obj top -> (
      match List.assoc_opt "series" top with
      | Some (Json.Obj series) -> (
          match List.assoc_opt name series with
          | Some (Json.Obj fields) -> Some (fun field -> num (List.assoc field fields))
          | _ -> None)
      | _ -> Alcotest.fail "no series object")
  | _ -> Alcotest.fail "stats document is not an object"

let series_field s name field =
  match series_summary s name with
  | Some f -> f field
  | None -> Alcotest.failf "series %s absent" name

let test_stats_counters_json () =
  let s = Stats.create () in
  Stats.add s "net.msg.sent" 4;
  Stats.incr s "cluster.restarts";
  match Stats.to_json s with
  | Json.Obj top ->
      check (Alcotest.list Alcotest.string) "sections" [ "counters"; "histograms"; "series" ]
        (List.map fst top);
      check Alcotest.string "counters sorted, as ints"
        {|{"cluster.restarts":1,"net.msg.sent":4}|}
        (Json.to_string (List.assoc "counters" top))
  | _ -> Alcotest.fail "stats document is not an object"

let test_stats_series () =
  let s = Stats.create () in
  List.iter (Stats.record s "lat") [ 1.0; 2.0; 3.0; 4.0 ];
  let field = series_field s "lat" in
  check (Alcotest.float 0.0) "count" 4.0 (field "count");
  check (Alcotest.float 1e-9) "mean" 2.5 (field "mean");
  check (Alcotest.float 1e-9) "total" 10.0 (field "total");
  check (Alcotest.float 1e-9) "min" 1.0 (field "min");
  check (Alcotest.float 1e-9) "max" 4.0 (field "max")

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.record s "p" (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (series_field s "p" "p50");
  check (Alcotest.float 1e-9) "p99" 99.0 (series_field s "p" "p99")

let test_stats_empty_series () =
  let s = Stats.create () in
  check Alcotest.bool "a series never recorded is absent" true (series_summary s "none" = None)

let test_trace_disabled_addf_lazy () =
  (* A disabled trace must not even render the message: %t would call
     the closure during formatting. *)
  let t = Trace.create () in
  Trace.set_enabled t false;
  Trace.addf t ~time:1 ~topic:"x" "%t" (fun _ -> Alcotest.fail "rendered while disabled");
  check Alcotest.int "nothing recorded" 0 (List.length (Trace.events t))

let test_stats_percentile_edges () =
  let s = Stats.create () in
  check Alcotest.bool "empty is absent" true (series_summary s "none" = None);
  Stats.record s "one" 7.0;
  List.iter
    (fun f -> check (Alcotest.float 1e-9) ("single " ^ f) 7.0 (series_field s "one" f))
    [ "min"; "p50"; "p99"; "max" ];
  for i = 1 to 10 do
    Stats.record s "ten" (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50 is the nearest rank" 5.0 (series_field s "ten" "p50");
  check (Alcotest.float 1e-9) "p99 is the maximum" 10.0 (series_field s "ten" "p99")

let test_stats_histogram () =
  let s = Stats.create () in
  List.iter (Stats.observe s "lat") [ 0.5; 1.0; 1.5; 4.0; 1e7 ];
  let h =
    match Stats.histogram_opt s "lat" with
    | Some h -> h
    | None -> Alcotest.fail "observe did not register"
  in
  (* Observing registers the powers of two from 1 to 2^19; v lands in
     the first bucket with v <= bound, and beyond the last bound it
     overflows. *)
  check Alcotest.int "default buckets" 20 (Array.length h.Stats.buckets);
  check (Alcotest.list Alcotest.int) "bucket counts" [ 2; 1; 1; 1 ]
    [ h.Stats.counts.(0); h.Stats.counts.(1); h.Stats.counts.(2); h.Stats.counts.(20) ];
  check Alcotest.int "samples" 5 h.Stats.samples;
  check (Alcotest.float 1e-9) "sum" 10000007.0 h.Stats.sum;
  Stats.observe s "fresh" 3.0;
  check Alcotest.bool "unknown is None" true (Stats.histogram_opt s "nope" = None);
  match Stats.to_json s with
  | Json.Obj top -> (
      match List.assoc "histograms" top with
      | Json.Obj hs ->
          check (Alcotest.list Alcotest.string) "sorted names" [ "fresh"; "lat" ] (List.map fst hs)
      | _ -> Alcotest.fail "no histograms object")
  | _ -> Alcotest.fail "stats document is not an object"

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("b", Json.Arr [ Json.Int 1; Json.Null; Json.Bool false ]);
        ("a", Json.Str "esc \"x\"\n\t\x01");
        ("f", Json.of_float 2.5);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok doc' -> check Alcotest.string "roundtrip" (Json.to_string doc) (Json.to_string doc')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul"; "\"unterminated" ]

let test_json_float_repr () =
  let str f = Json.to_string (Json.of_float f) in
  check Alcotest.string "integral floats have no exponent" "3" (str 3.0);
  check Alcotest.string "nan is null" "null" (str Float.nan);
  check Alcotest.string "inf is null" "null" (str infinity);
  (* Representation must parse back to the same value. *)
  List.iter
    (fun f ->
      match Json.of_string (str f) with
      | Ok (Json.Float f') -> check (Alcotest.float 0.0) "exact" f f'
      | Ok (Json.Int i) -> check (Alcotest.float 0.0) "exact" f (float_of_int i)
      | Ok _ | Error _ -> Alcotest.failf "bad float repr %s" (str f))
    [ 0.1; 1.0 /. 3.0; 1e-300; 6.02e23 ]

let test_json_obj_sorted () =
  check Alcotest.string "fields by name" {|{"a":1,"b":{"z":null,"y":true}}|}
    (Json.to_string
       (Json.obj_sorted
          [ ("b", Json.Obj [ ("z", Json.Null); ("y", Json.Bool true) ]); ("a", Json.Int 1) ]))

let test_json_pretty_roundtrip () =
  let doc =
    Json.Obj
      [
        ("list", Json.Arr [ Json.Int 1; Json.Arr []; Json.Obj [] ]);
        ("s", Json.Str "two\nlines \"q\"");
        ("f", Json.of_float 0.25);
      ]
  in
  let pretty = Json.to_string_pretty doc in
  check Alcotest.bool "ends with a newline" true (String.ends_with ~suffix:"\n" pretty);
  match Json.of_string pretty with
  | Ok doc' -> check Alcotest.string "same document" (Json.to_string doc) (Json.to_string doc')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_stats_to_json_stable () =
  let populate () =
    let s = Stats.create () in
    Stats.incr s "z";
    Stats.add s "a" 3;
    Stats.incr s "l";
    List.iter (Stats.record s "series") [ 3.0; 1.0; 2.0 ];
    List.iter (Stats.observe s "hist") [ 1.0; 5.0 ];
    s
  in
  let a = Json.to_string (Stats.to_json (populate ())) in
  let b = Json.to_string (Stats.to_json (populate ())) in
  check Alcotest.string "byte-stable" a b;
  (* Insertion order must not leak into the document. *)
  let s = Stats.create () in
  Stats.add s "a" 3;
  Stats.incr s "l";
  Stats.incr s "z";
  List.iter (Stats.observe s "hist") [ 5.0; 1.0 ];
  List.iter (Stats.record s "series") [ 3.0; 1.0; 2.0 ];
  check Alcotest.string "order-independent" a (Json.to_string (Stats.to_json s))

let test_json_validate () =
  let schema =
    Json.Obj
      [
        ("type", Json.Str "object");
        ("required", Json.Arr [ Json.Str "n" ]);
        ( "properties",
          Json.Obj
            [
              ("n", Json.Obj [ ("type", Json.Str "integer") ]);
              ("tag", Json.Obj [ ("enum", Json.Arr [ Json.Str "a"; Json.Str "b" ]) ]);
            ] );
      ]
  in
  (match Json_schema.validate ~schema (Json.Obj [ ("n", Json.Int 1); ("tag", Json.Str "a") ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %s" e);
  (match Json_schema.validate ~schema (Json.Obj [ ("tag", Json.Str "a") ]) with
  | Ok () -> Alcotest.fail "missing required accepted"
  | Error _ -> ());
  match Json_schema.validate ~schema (Json.Obj [ ("n", Json.Int 1); ("tag", Json.Str "z") ]) with
  | Ok () -> Alcotest.fail "enum violation accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Dense (epoch-marked bitset + interner) *)

module Mark = Adgc_util.Dense.Mark

module Str_interner = Adgc_util.Dense.Interner (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let test_mark_basics () =
  let m = Mark.create () in
  check Alcotest.bool "fresh id unmarked" false (Mark.is_marked m 3);
  check Alcotest.bool "first mark is new" true (Mark.mark m 3);
  check Alcotest.bool "now marked" true (Mark.is_marked m 3);
  check Alcotest.bool "second mark is not new" false (Mark.mark m 3);
  check Alcotest.bool "neighbours untouched" false (Mark.is_marked m 2)

let test_mark_epoch_clear () =
  let m = Mark.create ~capacity:8 () in
  for i = 0 to 7 do
    ignore (Mark.mark m i : bool)
  done;
  Mark.clear m;
  for i = 0 to 7 do
    check Alcotest.bool "cleared" false (Mark.is_marked m i)
  done;
  (* Re-marking after a clear behaves like a fresh set. *)
  check Alcotest.bool "mark again" true (Mark.mark m 5);
  check Alcotest.bool "others still clear" false (Mark.is_marked m 4);
  (* Many clears never wrap into stale marks. *)
  for _ = 1 to 10_000 do
    Mark.clear m
  done;
  check Alcotest.bool "no stale mark after many epochs" false (Mark.is_marked m 5)

let test_mark_growth () =
  let m = Mark.create ~capacity:2 () in
  check Alcotest.bool "mark far beyond capacity" true (Mark.mark m 1_000);
  check Alcotest.bool "marked after growth" true (Mark.is_marked m 1_000);
  check Alcotest.bool "beyond capacity reads unmarked" false (Mark.is_marked m 1_000_000);
  check Alcotest.bool "grown capacity" true (Mark.capacity m > 1_000)

let test_mark_negative () =
  let m = Mark.create () in
  check Alcotest.bool "negative is_marked is false" false (Mark.is_marked m (-1));
  Alcotest.check_raises "negative mark" (Invalid_argument "Dense.Mark.mark: negative id")
    (fun () -> ignore (Mark.mark m (-1) : bool))

let test_interner_bijection () =
  let t = Str_interner.create () in
  check Alcotest.int "empty" 0 (Str_interner.size t);
  check Alcotest.int "a -> 0" 0 (Str_interner.intern t "a");
  check Alcotest.int "b -> 1" 1 (Str_interner.intern t "b");
  check Alcotest.int "a stable" 0 (Str_interner.intern t "a");
  check Alcotest.int "size" 2 (Str_interner.size t);
  check Alcotest.string "key 0" "a" (Str_interner.key t 0);
  check Alcotest.string "key 1" "b" (Str_interner.key t 1);
  check (Alcotest.option Alcotest.int) "find known" (Some 1) (Str_interner.find t "b");
  check (Alcotest.option Alcotest.int) "find unknown" None (Str_interner.find t "zz");
  check Alcotest.bool "found" true (Str_interner.find t "a" <> None);
  check Alcotest.bool "not found" false (Str_interner.find t "zz" <> None)

let test_interner_key_unassigned () =
  let t = Str_interner.create () in
  ignore (Str_interner.intern t "only" : int);
  Alcotest.check_raises "unassigned id" (Invalid_argument "Dense.Interner.key: id 1 unassigned")
    (fun () -> ignore (Str_interner.key t 1 : string))

let test_interner_intern_order () =
  let t = Str_interner.create ~capacity:1 () in
  let names = List.init 100 string_of_int in
  List.iteri
    (fun i s -> check Alcotest.int "id is the interning position" i (Str_interner.intern t s))
    names;
  check Alcotest.int "size" 100 (Str_interner.size t);
  List.iteri
    (fun i s ->
      check Alcotest.string "key survives growth" s (Str_interner.key t i);
      check (Alcotest.option Alcotest.int) "find survives growth" (Some i) (Str_interner.find t s))
    names

(* ------------------------------------------------------------------ *)
(* The CSR adjacency: multiset semantics against a reference model
   under random add/remove churn, plus block recycling. *)

module Csr = Adgc_util.Dense.Csr

let csr_matches_model =
  let gen =
    QCheck2.Gen.(list_size (int_bound 400) (triple bool (int_bound 12) (int_bound 8)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"csr matches a reference multiset" ~count:200 gen (fun ops ->
         let t = Csr.create ~capacity:4 () in
         let model = Array.make 13 [] in
         List.iter
           (fun (add, row, v) ->
             if add then begin
               Csr.add t row v;
               model.(row) <- v :: model.(row)
             end
             else begin
               let present = List.mem v model.(row) in
               let removed = Csr.remove t row v in
               if present <> removed then QCheck2.Test.fail_report "remove disagrees";
               if present then begin
                 let rec drop_one = function
                   | [] -> []
                   | x :: rest -> if x = v then rest else x :: drop_one rest
                 in
                 model.(row) <- drop_one model.(row)
               end
             end)
           ops;
         Array.iteri
           (fun row expected ->
             let got = ref [] in
             Csr.iter t row (fun v -> got := v :: !got);
             if List.sort compare !got <> List.sort compare expected then
               QCheck2.Test.fail_report "contents disagree")
           model;
         true))

let test_csr_recycles_blocks () =
  let t = Csr.create ~capacity:8 () in
  for v = 0 to 99 do
    Csr.add t 0 v
  done;
  let words_full = Csr.words t in
  let length row =
    let n = ref 0 in
    Csr.iter t row (fun _ -> incr n);
    !n
  in
  Csr.clear_row t 0;
  check Alcotest.int "row is empty" 0 (length 0);
  (* Refill a different row: the parked blocks are reused, so the
     arena does not grow. *)
  for v = 0 to 99 do
    Csr.add t 1 v
  done;
  check Alcotest.int "recycling kept the arena flat" words_full (Csr.words t);
  check Alcotest.int "refilled row complete" 100 (length 1);
  Csr.reset t;
  check Alcotest.int "reset empties every row" 0 (length 1)

(* The heap tracer packs remote ids as negative values, and an edge
   stored twice is two entries: [remove] takes out one. *)
let test_csr_negative_and_duplicates () =
  let t = Csr.create () in
  List.iter (Csr.add t 3) [ -1; 5; -1; -42 ];
  let row r =
    let got = ref [] in
    Csr.iter t r (fun v -> got := v :: !got);
    List.sort compare !got
  in
  check (Alcotest.list Alcotest.int) "negatives kept" [ -42; -1; -1; 5 ] (row 3);
  check Alcotest.bool "remove one copy" true (Csr.remove t 3 (-1));
  check (Alcotest.list Alcotest.int) "the other copy stays" [ -42; -1; 5 ] (row 3);
  check Alcotest.bool "absent value" false (Csr.remove t 3 7);
  check (Alcotest.list Alcotest.int) "untouched row" [] (row 2)

(* ------------------------------------------------------------------ *)
(* Table *)

(* What [f] prints on stdout. *)
let capture_stdout f =
  let path = Filename.temp_file "adgc_table" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let test_table_render () =
  let s =
    capture_stdout (Table.print ~header:[ "name"; "value" ] ~rows:[ [ "a"; "1" ]; [ "bc"; "23" ] ])
  in
  check Alcotest.bool "contains header" true
    (String.length s > 0 && String.index_opt s 'n' <> None);
  (* All lines share the same width. *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  (match widths with
  | w :: rest -> List.iter (fun w' -> check Alcotest.int "aligned" w w') rest
  | [] -> Alcotest.fail "no output")

let test_table_alignment () =
  let lines rows ?align () =
    capture_stdout (Table.print ?align ~header:[ "k"; "value" ] ~rows)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check (Alcotest.list Alcotest.string) "first column left, the rest right"
    [ "+----+-------+"; "| k  | value |"; "+====+=======+"; "| ab |     1 |"; "+----+-------+" ]
    (lines [ [ "ab"; "1" ] ] ());
  check (Alcotest.list Alcotest.string) "explicit alignment"
    [ "+----+-------+"; "|  k | value |"; "+====+=======+"; "| ab | 1     |"; "|  c | 22    |";
      "+----+-------+" ]
    (lines [ [ "ab"; "1" ]; [ "c"; "22" ] ] ~align:[ Table.Right; Table.Left ] ())

let test_table_pads_rows () =
  let s = capture_stdout (Table.print ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ]; [ "1"; "2"; "3"; "4" ] ]) in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check Alcotest.int "lines" 6 (List.length lines)

let test_sorted_last_of_each () =
  let module Sorted = Adgc_util.Sorted in
  let by_key (a, _) (b, _) = Int.compare a b in
  let ascending = [| (0, "a"); (1, "b"); (4, "c") |] in
  check Alcotest.bool "ascending input returned as is" true
    (Sorted.last_of_each by_key ascending == ascending);
  let distinct = [| (4, "c"); (0, "a"); (1, "b") |] in
  let sorted = Sorted.last_of_each by_key distinct in
  check Alcotest.bool "distinct input sorted in place" true (sorted == distinct);
  check Alcotest.(list (pair int string)) "sorted" (Array.to_list ascending) (Array.to_list sorted);
  check Alcotest.(list (pair int string)) "last of equal keys kept"
    [ (0, "b"); (1, "d"); (2, "e") ]
    (Array.to_list
       (Sorted.last_of_each by_key [| (1, "a"); (0, "b"); (1, "c"); (2, "e"); (1, "d") |]))

let suite =
  ( "util",
    [
      Alcotest.test_case "rng: determinism" `Quick test_rng_deterministic;
      Alcotest.test_case "rng: seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
      Alcotest.test_case "rng: int_in bounds" `Quick test_rng_int_in_bounds;
      Alcotest.test_case "rng: int covers range" `Quick test_rng_int_covers_range;
      Alcotest.test_case "rng: float bounds" `Quick test_rng_float_bounds;
      Alcotest.test_case "rng: bernoulli extremes" `Quick test_rng_bernoulli_extremes;
      Alcotest.test_case "rng: bernoulli rate" `Quick test_rng_bernoulli_rate;
      Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
      Alcotest.test_case "rng: split is reproducible" `Quick test_rng_split_reproducible;
      Alcotest.test_case "rng: pick_list" `Quick test_rng_pick_list;
      Alcotest.test_case "pq: ordering" `Quick test_pq_ordering;
      Alcotest.test_case "pq: FIFO among ties" `Quick test_pq_fifo_ties;
      Alcotest.test_case "pq: peek" `Quick test_pq_peek;
      Alcotest.test_case "pq: interleaved ops" `Quick test_pq_interleaved;
      Alcotest.test_case "pq: growth" `Quick test_pq_grows;
      Alcotest.test_case "pq: random vs sort" `Quick test_pq_random_against_sort;
      Alcotest.test_case "trace: order" `Quick test_trace_order;
      Alcotest.test_case "trace: by topic" `Quick test_trace_by_topic;
      Alcotest.test_case "trace: bounded ring" `Quick test_trace_bounded;
      Alcotest.test_case "trace: disabled" `Quick test_trace_disable;
      Alcotest.test_case "trace: addf" `Quick test_trace_addf;
      Alcotest.test_case "trace: pp_event layout" `Quick test_trace_pp_event;
      Alcotest.test_case "stats: counters" `Quick test_stats_counters;
      Alcotest.test_case "stats: sorted names" `Quick test_stats_counters_sorted;
      Alcotest.test_case "stats: counters in to_json" `Quick test_stats_counters_json;
      Alcotest.test_case "stats: series" `Quick test_stats_series;
      Alcotest.test_case "stats: percentile" `Quick test_stats_percentile;
      Alcotest.test_case "stats: empty series" `Quick test_stats_empty_series;
      Alcotest.test_case "trace: disabled addf never renders" `Quick test_trace_disabled_addf_lazy;
      Alcotest.test_case "stats: percentile edges" `Quick test_stats_percentile_edges;
      Alcotest.test_case "stats: histograms" `Quick test_stats_histogram;
      Alcotest.test_case "stats: to_json is stable" `Quick test_stats_to_json_stable;
      Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json: rejects malformed" `Quick test_json_rejects;
      Alcotest.test_case "json: float representation" `Quick test_json_float_repr;
      Alcotest.test_case "json: obj_sorted" `Quick test_json_obj_sorted;
      Alcotest.test_case "json: pretty rendering parses back" `Quick test_json_pretty_roundtrip;
      Alcotest.test_case "json: schema validation" `Quick test_json_validate;
      Alcotest.test_case "dense: mark basics" `Quick test_mark_basics;
      Alcotest.test_case "dense: O(1) clear via epochs" `Quick test_mark_epoch_clear;
      Alcotest.test_case "dense: mark growth" `Quick test_mark_growth;
      Alcotest.test_case "dense: negative ids" `Quick test_mark_negative;
      Alcotest.test_case "dense: interner bijection" `Quick test_interner_bijection;
      Alcotest.test_case "dense: interner key bounds" `Quick test_interner_key_unassigned;
      Alcotest.test_case "dense: interner ids follow intern order" `Quick
        test_interner_intern_order;
      csr_matches_model;
      Alcotest.test_case "csr recycles cleared blocks" `Quick test_csr_recycles_blocks;
      Alcotest.test_case "csr: negative values and duplicates" `Quick
        test_csr_negative_and_duplicates;
      Alcotest.test_case "table: render alignment" `Quick test_table_render;
      Alcotest.test_case "table: row padding" `Quick test_table_pads_rows;
      Alcotest.test_case "table: column alignment" `Quick test_table_alignment;
      Alcotest.test_case "sorted: last of each" `Quick test_sorted_last_of_each;
    ] )
