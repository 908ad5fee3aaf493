(* Tests for the observability layer: span ring, detection lineage
   and the deterministic exporters. *)

module Span = Adgc_obs.Span
module Lineage = Adgc_obs.Lineage
module Export = Adgc_obs.Export
module Json = Adgc_util.Json
module Stats = Adgc_util.Stats
open Adgc_algebra

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Span ring *)

let test_span_disabled_is_none () =
  let t = Span.create () in
  let id = Span.begin_span t ~time:0 ~kind:Span.Run "r" in
  check Alcotest.int "none" Span.none id;
  Span.end_span t ~time:5 id;
  ignore (Span.event t ~time:1 ~kind:Span.Snapshot "s" : int);
  check Alcotest.int "nothing recorded" 0 (List.length (Span.spans t))

let test_span_begin_end () =
  let t = Span.create () in
  Span.set_enabled t true;
  let run = Span.begin_span t ~time:0 ~kind:Span.Run "run" in
  let child = Span.begin_span t ~time:3 ~parent:run ~proc:2 ~kind:Span.Lgc_sweep "lgc" in
  Span.end_span t ~time:7 ~args:[ ("swept", "4") ] child;
  Span.end_span t ~time:9 run;
  match Span.spans t with
  | [ r; c ] ->
      check Alcotest.string "run name" "run" r.Span.name;
      check Alcotest.bool "run has no parent" true (r.Span.parent = None);
      check Alcotest.bool "run closed" true (r.Span.end_time = Some 9);
      check Alcotest.bool "child parent" true (c.Span.parent = Some r.Span.id);
      check Alcotest.int "child proc" 2 c.Span.proc;
      check Alcotest.int "child start" 3 c.Span.start_time;
      check Alcotest.bool "child end" true (c.Span.end_time = Some 7);
      check Alcotest.bool "child args" true (List.mem_assoc "swept" c.Span.args)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_end_unknown_ignored () =
  let t = Span.create () in
  Span.set_enabled t true;
  Span.end_span t ~time:1 Span.none;
  Span.end_span t ~time:1 999;
  let id = Span.begin_span t ~time:0 ~kind:Span.Run "r" in
  Span.end_span t ~time:1 id;
  Span.end_span t ~time:2 ~args:[ ("late", "x") ] id;
  match Span.spans t with
  | [ s ] ->
      check Alcotest.bool "first close wins" true (s.Span.end_time = Some 1);
      check Alcotest.bool "no late args" false (List.mem_assoc "late" s.Span.args)
  | _ -> Alcotest.fail "expected one span"

(* The ring holds 65536 spans. *)
let test_span_eviction () =
  let t = Span.create () in
  Span.set_enabled t true;
  let n = 65536 + 6 in
  for i = 1 to n do
    ignore (Span.event t ~time:i ~kind:Span.Snapshot (string_of_int i) : int)
  done;
  let names = List.map (fun (s : Span.span) -> s.Span.name) (Span.spans t) in
  check Alcotest.int "full" 65536 (List.length names);
  check Alcotest.string "oldest evicted first" "7" (List.hd names);
  check Alcotest.string "keeps newest" (string_of_int n) (List.nth names 65535)

let test_span_event_zero_duration () =
  let t = Span.create () in
  Span.set_enabled t true;
  let id = Span.event t ~time:5 ~args:[ ("k", "v") ] ~kind:(Span.Custom "probe") "e" in
  match Span.spans t with
  | [ s ] ->
      check Alcotest.int "id" s.Span.id id;
      check Alcotest.int "start" 5 s.Span.start_time;
      check Alcotest.bool "end" true (s.Span.end_time = Some 5);
      check Alcotest.string "kind" "probe" (Span.kind_name s.Span.kind)
  | _ -> Alcotest.fail "expected one span"

(* ------------------------------------------------------------------ *)
(* Lineage *)

let det ~initiator ~seq = Detection_id.make ~initiator:(Proc_id.of_int initiator) ~seq

let key ~src ~owner ~serial =
  Ref_key.make ~src:(Proc_id.of_int src) ~target:(Oid.make ~owner:(Proc_id.of_int owner) ~serial)

let test_lineage_disabled () =
  let t = Lineage.create () in
  let id = det ~initiator:0 ~seq:1 in
  Lineage.record t id (Lineage.Guard { at = Proc_id.of_int 0; time = 1; reason = "x" });
  check Alcotest.int "no hops" 0 (List.length (Lineage.hops t id));
  check Alcotest.int "no detections" 0 (List.length (Lineage.detections t))

let test_lineage_chain () =
  let t = Lineage.create () in
  Lineage.set_enabled t true;
  let id = det ~initiator:0 ~seq:1 in
  let p n = Proc_id.of_int n in
  Lineage.record t id (Lineage.Initiated { at = p 0; time = 1; candidate = key ~src:2 ~owner:0 ~serial:0 });
  Lineage.record t id (Lineage.Sent { at = p 0; dst = p 1; time = 1; sources = 1; targets = 1; hops = 1 });
  Lineage.record t id (Lineage.Received { at = p 1; time = 4; sources = 1; targets = 1; hops = 1 });
  Lineage.record t id (Lineage.Concluded { at = p 1; time = 4; proven = true; hops = 1; refs = 2 });
  (* A different detection does not leak in. *)
  Lineage.record t (det ~initiator:3 ~seq:9)
    (Lineage.Guard { at = p 3; time = 2; reason = "budget" });
  let hops = Lineage.hops t id in
  check Alcotest.int "4 hops" 4 (List.length hops);
  check Alcotest.bool "chronological" true
    (List.for_all2
       (fun a b -> Scaffold.hop_time a <= Scaffold.hop_time b)
       (List.filteri (fun i _ -> i < 3) hops)
       (List.tl hops));
  (match (List.hd hops, List.nth hops 3) with
  | Lineage.Initiated _, Lineage.Concluded { proven = true; _ } -> ()
  | _ -> Alcotest.fail "chain must run Initiated -> ... -> Concluded");
  check Alcotest.int "two detections" 2 (List.length (Lineage.detections t));
  (* pp_chain renders every hop. *)
  let rendered = Format.asprintf "%a" Lineage.pp_chain (t, id) in
  List.iter
    (fun needle ->
      check Alcotest.bool needle true (Astring_contains.contains rendered needle))
    [ "initiated"; "->"; "received"; "concluded" ]

let test_lineage_span_association () =
  let t = Lineage.create () in
  Lineage.set_enabled t true;
  let id = det ~initiator:2 ~seq:7 in
  check Alcotest.bool "unknown" true (Lineage.span t id = None);
  Lineage.set_span t id 42;
  check Alcotest.bool "recorded" true (Lineage.span t id = Some 42)

let test_lineage_hop_cap () =
  let t = Lineage.create ~max_hops:8 () in
  Lineage.set_enabled t true;
  let id = det ~initiator:0 ~seq:0 in
  for i = 1 to 50 do
    Lineage.record t id (Lineage.Guard { at = Proc_id.of_int 0; time = i; reason = "g" })
  done;
  check Alcotest.bool "bounded" true (List.length (Lineage.hops t id) <= 8)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let sample_spans () =
  let t = Span.create () in
  Span.set_enabled t true;
  let run = Span.begin_span t ~time:0 ~kind:Span.Run "run" in
  let d = Span.begin_span t ~time:2 ~parent:run ~kind:Span.Detection "det T1@P0" in
  ignore (Span.event t ~time:3 ~parent:d ~proc:1 ~args:[ ("from", "P0") ] ~kind:Span.Cdm_hop "cdm" : int);
  Span.end_span t ~time:5 ~args:[ ("proven", "true") ] d;
  Span.end_span t ~time:9 run;
  t

(* The structural contract a Chrome trace_event document must satisfy
   to load in about:tracing / Perfetto. *)
let chrome_schema =
  Json.Obj
    [
      ("type", Json.Str "object");
      ("required", Json.Arr [ Json.Str "traceEvents" ]);
      ( "properties",
        Json.Obj
          [
            ( "traceEvents",
              Json.Obj
                [
                  ("type", Json.Str "array");
                  ( "items",
                    Json.Obj
                      [
                        ("type", Json.Str "object");
                        ( "required",
                          Json.Arr
                            [
                              Json.Str "name"; Json.Str "cat"; Json.Str "ph"; Json.Str "ts";
                              Json.Str "dur"; Json.Str "pid"; Json.Str "tid";
                            ] );
                        ( "properties",
                          Json.Obj
                            [
                              ("name", Json.Obj [ ("type", Json.Str "string") ]);
                              ("cat", Json.Obj [ ("type", Json.Str "string") ]);
                              ("ph", Json.Obj [ ("enum", Json.Arr [ Json.Str "X" ]) ]);
                              ("ts", Json.Obj [ ("type", Json.Str "number") ]);
                              ("dur", Json.Obj [ ("type", Json.Str "number") ]);
                              ("pid", Json.Obj [ ("type", Json.Str "integer") ]);
                              ("tid", Json.Obj [ ("type", Json.Str "integer") ]);
                            ] );
                      ] );
                ] );
          ] );
    ]

let test_chrome_trace_structure () =
  let t = sample_spans () in
  let doc = Export.chrome_trace t in
  (* Self-parse: the serialized document must be valid JSON. *)
  (match Json.of_string (Json.to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e);
  (match Json_schema.validate ~schema:chrome_schema doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome trace structure: %s" e);
  match doc with
  | Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Json.Arr events -> check Alcotest.int "all spans exported" 3 (List.length events)
      | _ -> Alcotest.fail "traceEvents not an array")
  | _ -> Alcotest.fail "not an object"

let test_jsonl_and_digest () =
  let t = sample_spans () in
  let lines = String.split_on_char '\n' (String.trim (Export.jsonl t)) in
  check Alcotest.int "one line per span" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.failf "bad jsonl line %S: %s" line e)
    lines;
  (* Digest: stable across identical timelines, sensitive to change. *)
  let d1 = Export.span_digest t in
  let d2 = Export.span_digest (sample_spans ()) in
  check Alcotest.string "deterministic" d1 d2;
  ignore (Span.event t ~time:11 ~kind:Span.Snapshot "extra" : int);
  check Alcotest.bool "sensitive" false (String.equal d1 (Export.span_digest t))

let test_metrics_document () =
  let stats = Stats.create () in
  Stats.incr stats "c";
  Stats.observe stats "h" 2.0;
  let doc = Export.metrics_document ~meta:[ ("seed", Json.Int 7) ] stats in
  match doc with
  | Json.Obj fields ->
      check Alcotest.bool "schema_version" true
        (List.assoc "schema_version" fields = Json.Int 1);
      (match List.assoc "meta" fields with
      | Json.Obj [ ("seed", Json.Int 7) ] -> ()
      | _ -> Alcotest.fail "meta not preserved");
      (match List.assoc "stats" fields with
      | Json.Obj stats_fields ->
          check Alcotest.bool "counters present" true (List.mem_assoc "counters" stats_fields);
          check Alcotest.bool "histograms present" true (List.mem_assoc "histograms" stats_fields)
      | _ -> Alcotest.fail "stats not an object")
  | _ -> Alcotest.fail "not an object"

let suite =
  ( "obs",
    [
      Alcotest.test_case "span: disabled costs nothing" `Quick test_span_disabled_is_none;
      Alcotest.test_case "span: begin/end with parent and args" `Quick test_span_begin_end;
      Alcotest.test_case "span: unknown/closed ids ignored" `Quick test_span_end_unknown_ignored;
      Alcotest.test_case "span: bounded ring eviction" `Quick test_span_eviction;
      Alcotest.test_case "span: zero-duration event" `Quick test_span_event_zero_duration;
      Alcotest.test_case "lineage: disabled records nothing" `Quick test_lineage_disabled;
      Alcotest.test_case "lineage: full chain per detection" `Quick test_lineage_chain;
      Alcotest.test_case "lineage: span association" `Quick test_lineage_span_association;
      Alcotest.test_case "lineage: hop cap" `Quick test_lineage_hop_cap;
      Alcotest.test_case "export: chrome trace structure" `Quick test_chrome_trace_structure;
      Alcotest.test_case "export: jsonl and digest" `Quick test_jsonl_and_digest;
      Alcotest.test_case "export: metrics document" `Quick test_metrics_document;
    ] )
