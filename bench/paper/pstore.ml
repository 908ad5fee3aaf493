open Adgc_algebra
open Adgc_rt

(* LRU via a generation counter per resident object: eviction scans
   for the minimum.  Capacities are small (that is the point of the
   model), so the O(capacity) eviction scan is fine. *)
type t = {
  capacity : int;
  residents : int Oid.Tbl.t; (* oid -> last access generation *)
  mutable clock : int;
  mutable loads : int;
  mutable hits : int;
  mutable evictions : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Pstore.create: capacity must be positive";
  { capacity; residents = Oid.Tbl.create 64; clock = 0; loads = 0; hits = 0; evictions = 0 }

let evict_one t =
  let victim = ref None in
  Oid.Tbl.iter
    (fun oid gen ->
      match !victim with
      | Some (_, best) when best <= gen -> ()
      | Some _ | None -> victim := Some (oid, gen))
    t.residents;
  match !victim with
  | Some (oid, _) ->
      Oid.Tbl.remove t.residents oid;
      t.evictions <- t.evictions + 1
  | None -> ()

let touch t oid =
  t.clock <- t.clock + 1;
  if Oid.Tbl.mem t.residents oid then begin
    t.hits <- t.hits + 1;
    Oid.Tbl.replace t.residents oid t.clock
  end
  else begin
    t.loads <- t.loads + 1;
    if Oid.Tbl.length t.residents >= t.capacity then evict_one t;
    Oid.Tbl.replace t.residents oid t.clock
  end

let forget t oid = Oid.Tbl.remove t.residents oid

let oids heap = Heap.fold heap ~init:[] ~f:(fun acc obj -> obj.Heap.oid :: acc)

let collect t rt (p : Process.t) =
  let heap = p.Process.heap in
  let before = oids heap in
  let report = Lgc.run rt p in
  List.iter (touch t) (List.sort Oid.compare (oids heap));
  List.iter (fun oid -> if not (Heap.mem heap oid) then forget t oid) before;
  report

let resident t oid = Oid.Tbl.mem t.residents oid

let resident_count t = Oid.Tbl.length t.residents

let loads t = t.loads

let hits t = t.hits

let evictions t = t.evictions

let reset_counters t =
  t.loads <- 0;
  t.hits <- 0;
  t.evictions <- 0
