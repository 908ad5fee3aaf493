module Json = Adgc_util.Json
module Stats = Adgc_util.Stats

(* Chrome trace_event "complete" (ph=X) events: sim ticks stand in
   for microseconds, processes become tids under one pid so Perfetto
   lays each process out as its own track. *)
let chrome_event (s : Span.span) =
  let dur = match s.end_time with Some e -> e - s.start_time | None -> 0 in
  let args =
    ("span_id", Json.Int s.id)
    :: (match s.parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
    @ List.map (fun (k, v) -> (k, Json.Str v)) s.args
  in
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("cat", Json.Str (Span.kind_name s.kind));
      ("ph", Json.Str "X");
      ("ts", Json.Int s.start_time);
      ("dur", Json.Int dur);
      ("pid", Json.Int 0);
      ("tid", Json.Int (if s.proc >= 0 then s.proc else 0));
      ("args", Json.Obj args);
    ]

let chrome_trace t =
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map chrome_event (Span.spans t)));
      ("displayTimeUnit", Json.Str "ms");
    ]

let jsonl_line (s : Span.span) =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int s.id);
         ("parent", (match s.parent with Some p -> Json.Int p | None -> Json.Null));
         ("kind", Json.Str (Span.kind_name s.kind));
         ("name", Json.Str s.name);
         ("proc", Json.Int s.proc);
         ("start", Json.Int s.start_time);
         ("end", (match s.end_time with Some e -> Json.Int e | None -> Json.Null));
         ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.args));
       ])

let jsonl t = String.concat "" (List.map (fun s -> jsonl_line s ^ "\n") (Span.spans t))

let span_digest t = Digest.to_hex (Digest.string (jsonl t))

let schema_version = 1

let metrics_document ?(meta = []) stats =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("meta", Json.obj_sorted meta);
      ("stats", Stats.to_json stats);
    ]
