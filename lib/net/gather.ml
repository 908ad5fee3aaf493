open Adgc_algebra
module N = Adgc_serial.Net_codec
module R = Adgc_serial.Net_codec.Read
module Invariant = Adgc_check.Invariant

type object_state = { oid : Oid.t; refs : Oid.t list; rooted : bool }

type stub_state = { target : Oid.t; stub_ic : int }

type scion_state = { key : Ref_key.t; scion_ic : int; confirmed : bool }

type node_state = {
  rank : int;
  tick : int;
  objects : object_state list;
  stubs : stub_state list;
  scions : scion_state list;
  reclaimed : Oid.t list;
  counters : (string * int) list;
}

let capture ~rt ~rank ~tick ~reclaimed =
  let p = rt.Adgc_rt.Runtime.procs.(rank) in
  let heap = p.Adgc_rt.Process.heap in
  let objects =
    Adgc_rt.Heap.fold heap ~init:[] ~f:(fun acc (o : Adgc_rt.Heap.obj) ->
        let refs =
          Array.fold_right (fun f acc -> match f with Some r -> r :: acc | None -> acc) o.fields []
        in
        { oid = o.oid; refs; rooted = Adgc_rt.Heap.is_root heap o.oid } :: acc)
    |> List.sort (fun a b -> Oid.compare a.oid b.oid)
  in
  let stubs =
    List.map
      (fun (e : Adgc_rt.Stub_table.entry) -> { target = e.target; stub_ic = e.ic })
      (Adgc_rt.Stub_table.entries p.Adgc_rt.Process.stubs)
  in
  let scions =
    List.map
      (fun (e : Adgc_rt.Scion_table.entry) ->
        { key = e.key; scion_ic = e.ic; confirmed = e.confirmed })
      (Adgc_rt.Scion_table.entries p.Adgc_rt.Process.scions)
  in
  {
    rank;
    tick;
    objects;
    stubs;
    scions;
    reclaimed;
    counters = Adgc_util.Stats.counters rt.Adgc_rt.Runtime.stats;
  }

(* ------------------------------------------------------------------ *)
(* Wire representation: five packed runs, ids as Oid.emit and
   Ref_key.emit write them, flags as 0 or 1.  The first is [rank; tick]
   and then each object as [owner; serial; rooted; n; n refs...]; then
   the stubs [owner; serial; ic], the scions [src; owner; serial; ic;
   confirmed] and the reclaimed [owner; serial], whole entries each;
   then the counters' values, each counter's name following the run as
   a string. *)

let emit s t =
  N.packed s (List.fold_left (fun n o -> n + 4 + (2 * List.length o.refs)) 2 t.objects);
  N.raw s t.rank;
  N.raw s t.tick;
  List.iter
    (fun o ->
      Oid.emit s o.oid;
      N.raw s (Bool.to_int o.rooted);
      N.raw s (List.length o.refs);
      List.iter (Oid.emit s) o.refs)
    t.objects;
  N.packed s (3 * List.length t.stubs);
  List.iter
    (fun st ->
      Oid.emit s st.target;
      N.raw s st.stub_ic)
    t.stubs;
  N.packed s (5 * List.length t.scions);
  List.iter
    (fun sc ->
      Ref_key.emit s sc.key;
      N.raw s sc.scion_ic;
      N.raw s (Bool.to_int sc.confirmed))
    t.scions;
  N.packed s (2 * List.length t.reclaimed);
  List.iter (Oid.emit s) t.reclaimed;
  N.packed s (List.length t.counters);
  List.iter (fun (_, v) -> N.raw s v) t.counters;
  List.iter (fun (k, _) -> N.str s k) t.counters

let read_bool r = match R.raw r with 0 -> false | 1 -> true | _ -> R.fail r "bad bool"

(* A run of whole [width]-item entries. *)
let read_table r ~width what read_entry =
  List.init (R.entries r (R.packed r) ~fixed:0 ~width what) (fun _ -> read_entry r)

let read r =
  let k = R.packed r in
  if k < 2 then R.fail r "short node state run";
  let rank = R.raw r in
  let tick = R.raw r in
  (* [left] items of the run are unread; an object's count of refs
     must fit in them. *)
  let rec objects left acc =
    if left = 0 then List.rev acc
    else begin
      if left < 4 then R.fail r "ragged object";
      let oid = Oid.read r in
      let rooted = read_bool r in
      let n = R.raw r in
      if n > (left - 4) / 2 then R.fail r "ragged object";
      let refs = List.init n (fun _ -> Oid.read r) in
      objects (left - 4 - (2 * n)) ({ oid; refs; rooted } :: acc)
    end
  in
  let objects = objects (k - 2) [] in
  let stubs =
    read_table r ~width:3 "stub" (fun r ->
        let target = Oid.read r in
        { target; stub_ic = R.raw r })
  in
  let scions =
    read_table r ~width:5 "scion" (fun r ->
        let key = Ref_key.read r in
        let scion_ic = R.raw r in
        { key; scion_ic; confirmed = read_bool r })
  in
  let reclaimed = read_table r ~width:2 "reclaimed" Oid.read in
  let values = Array.of_list (read_table r ~width:1 "counter" R.raw) in
  let counters = List.init (Array.length values) (fun i -> (R.str r, values.(i))) in
  { rank; tick; objects; stubs; scions; reclaimed; counters }

(* ------------------------------------------------------------------ *)
(* The oracle over gathered state. *)

type verdict = {
  violations : Invariant.violation list;
  live : Oid.Set.t;
  reclaimed : Oid.Set.t;
  unreclaimed : Oid.Set.t;
}

let clean v = v.violations = []

let check ~expected_live ~expected_garbage ?(dead = []) states =
  let is_dead pid = List.mem (Proc_id.to_int pid) dead in
  (* Index every surviving object and node. *)
  let objects : object_state Oid.Tbl.t = Oid.Tbl.create 1024 in
  let nodes = Hashtbl.create 16 in
  let stub_ics : (Proc_id.t * Oid.t, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (ns : node_state) ->
      let pid = Proc_id.of_int ns.rank in
      Hashtbl.replace nodes pid ns;
      List.iter (fun o -> Oid.Tbl.replace objects o.oid o) ns.objects;
      List.iter (fun s -> Hashtbl.replace stub_ics (pid, s.target) s.stub_ic) ns.stubs)
    states;
  let reclaimed =
    List.fold_left
      (fun acc (ns : node_state) ->
        List.fold_left (fun acc o -> Oid.Set.add o acc) acc ns.reclaimed)
      Oid.Set.empty states
  in
  (* Reachability closure from every surviving root, crossing remote
     references — the gathered-state ground truth (no in-flight
     messages: the coordinator only judges quiescent gathers). *)
  let live = ref Oid.Set.empty in
  let queue = Queue.create () in
  List.iter
    (fun (ns : node_state) ->
      List.iter (fun o -> if o.rooted then Queue.add o.oid queue) ns.objects)
    states;
  while not (Queue.is_empty queue) do
    let oid = Queue.pop queue in
    if not (Oid.Set.mem oid !live) && Oid.Tbl.mem objects oid then begin
      live := Oid.Set.add oid !live;
      List.iter (fun r -> Queue.add r queue) (Oid.Tbl.find objects oid).refs
    end
  done;
  let live = !live in
  (* Safety half of Live_reclaimed: the workload is static, so the
     pre-run expected live set is exact — anything reclaimed from it
     was reclaimed while globally reachable. *)
  let live_reclaimed =
    List.concat_map
      (fun (ns : node_state) ->
        List.filter_map
          (fun oid ->
            if Oid.Set.mem oid expected_live then
              Some (Invariant.Live_reclaimed { proc = Proc_id.of_int ns.rank; oid })
            else None)
          ns.reclaimed)
      states
  in
  let node pid = Hashtbl.find nodes pid in
  let structural =
    Invariant.structural
      {
        procs = List.map (fun (ns : node_state) -> Proc_id.of_int ns.rank) states;
        alive = (fun pid -> not (is_dead pid));
        is_live = (fun oid -> Oid.Set.mem oid live);
        mem = Oid.Tbl.mem objects;
        iter_refs =
          (fun pid f -> List.iter (fun o -> List.iter (f o.oid) o.refs) (node pid).objects);
        iter_scions = (fun pid f -> List.iter (fun s -> f s.key s.scion_ic) (node pid).scions);
        stub_ic = (fun holder target -> Hashtbl.find_opt stub_ics (holder, target));
      }
  in
  let unreclaimed =
    Oid.Set.filter (fun o -> not (is_dead (Oid.owner o))) (Oid.Set.diff expected_garbage reclaimed)
  in
  { violations = live_reclaimed @ structural; live; reclaimed; unreclaimed }

let pp_verdict ppf v =
  Format.fprintf ppf "@[<v>reclaimed %d, live %d, unreclaimed garbage %d, violations %d"
    (Oid.Set.cardinal v.reclaimed) (Oid.Set.cardinal v.live) (Oid.Set.cardinal v.unreclaimed)
    (List.length v.violations);
  List.iter (fun viol -> Format.fprintf ppf "@,  %a" Invariant.pp viol) v.violations;
  Format.fprintf ppf "@]"
