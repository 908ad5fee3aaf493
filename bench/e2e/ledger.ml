(* Per-layer cost ledger, recorded from outside the program.

   [span t layer f] times one call into a layer's public entry point.
   Spans nest (a dispatch runs inside the scheduler's [run_for], a
   pre-sweep check inside an LGC), and a layer's {e self} time is its
   span's duration minus the part covered by its child spans — so the
   self times of all layers add up to the wall time the spans cover,
   and the outermost layer ([sched.run_for]) ends up with the
   scheduler's own residual.  Allocation is split the same way, from
   [Gc.minor_words].

   The per-layer accumulators are exact however many spans run.  The
   individual spans (name, start, end, parent) are additionally kept
   in a bounded ring — the newest [capacity] survive, the count of
   older ones dropped is reported — and rendered as Chrome
   trace-event JSON at the end of the run. *)

let capacity = 65_536

type acc = { mutable calls : int; mutable self_s : float; mutable self_words : float }

type frame = {
  f_layer : int;
  f_id : int;
  f_parent : int;
  f_t0 : float;
  f_w0 : float;
  mutable child_s : float;
  mutable child_words : float;
}

type t = {
  mutable names : string array;
  mutable accs : acc array;
  ids : (string, int) Hashtbl.t;
  mutable stack : frame list;
  mutable next_id : int;
  origin : float;
  (* span ring, [capacity] slots *)
  r_layer : int array;
  r_id : int array;
  r_parent : int array;
  r_start : float array;
  r_dur : float array;
  mutable recorded : int;
}

let create () =
  {
    names = [||];
    accs = [||];
    ids = Hashtbl.create 32;
    stack = [];
    next_id = 0;
    origin = Unix.gettimeofday ();
    r_layer = Array.make capacity 0;
    r_id = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_start = Array.make capacity 0.0;
    r_dur = Array.make capacity 0.0;
    recorded = 0;
  }

let layer t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      Hashtbl.add t.ids name id;
      t.names <- Array.append t.names [| name |];
      t.accs <- Array.append t.accs [| { calls = 0; self_s = 0.0; self_words = 0.0 } |];
      id

let close t frame =
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let dur = t1 -. frame.f_t0 and words = w1 -. frame.f_w0 in
  let acc = t.accs.(frame.f_layer) in
  acc.calls <- acc.calls + 1;
  acc.self_s <- acc.self_s +. (dur -. frame.child_s);
  acc.self_words <- acc.self_words +. (words -. frame.child_words);
  (match t.stack with
  | _ :: (parent :: _ as rest) ->
      parent.child_s <- parent.child_s +. dur;
      parent.child_words <- parent.child_words +. words;
      t.stack <- rest
  | [ _ ] | [] -> t.stack <- []);
  let slot = t.recorded mod capacity in
  t.r_layer.(slot) <- frame.f_layer;
  t.r_id.(slot) <- frame.f_id;
  t.r_parent.(slot) <- frame.f_parent;
  t.r_start.(slot) <- frame.f_t0 -. t.origin;
  t.r_dur.(slot) <- dur;
  t.recorded <- t.recorded + 1

let span t layer f =
  let parent = match t.stack with p :: _ -> p.f_id | [] -> -1 in
  let frame =
    {
      f_layer = layer;
      f_id = t.next_id;
      f_parent = parent;
      f_t0 = Unix.gettimeofday ();
      f_w0 = Gc.minor_words ();
      child_s = 0.0;
      child_words = 0.0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- frame :: t.stack;
  match f () with
  | v ->
      close t frame;
      v
  | exception e ->
      close t frame;
      raise e

type row = { name : string; calls : int; self_s : float; minor_words : float }

let rows t =
  Array.to_list
    (Array.mapi
       (fun i (a : acc) ->
         { name = t.names.(i); calls = a.calls; self_s = a.self_s; minor_words = a.self_words })
       t.accs)

let spans t = t.recorded

let dropped t = Int.max 0 (t.recorded - capacity)

(* Chrome trace-event JSON ("X" complete events, microseconds), oldest
   surviving span first. *)
let chrome_json t =
  let module J = Adgc_util.Json in
  let kept = Int.min t.recorded capacity in
  let first = t.recorded - kept in
  let events =
    List.init kept (fun k ->
        let slot = (first + k) mod capacity in
        J.Obj
          [
            ("name", J.Str t.names.(t.r_layer.(slot)));
            ("ph", J.Str "X");
            ("ts", J.Float (t.r_start.(slot) *. 1e6));
            ("dur", J.Float (t.r_dur.(slot) *. 1e6));
            ("pid", J.Int 0);
            ("tid", J.Int 0);
            ("args", J.Obj [ ("id", J.Int t.r_id.(slot)); ("parent", J.Int t.r_parent.(slot)) ]);
          ])
  in
  J.Obj
    [
      ("traceEvents", J.Arr events);
      ("displayTimeUnit", J.Str "ms");
      ("otherData", J.Obj [ ("spans", J.Int t.recorded); ("dropped", J.Int (dropped t)) ]);
    ]
