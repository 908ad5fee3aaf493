open Adgc_algebra
open Adgc_rt
module Sim = Adgc.Sim
module Config = Adgc.Config
module Kernel = Adgc.Kernel
module Json = Adgc_util.Json
module Invariant = Adgc_check.Invariant

type t = {
  sim : Sim.t;
  kctx : Kernel.ctx;
  caps : Scenario.caps;
  inst : Scenario.instance;
  n_procs : int;
  mutable mut_cursor : int;
  mutable drops_used : int;
  snaps : int array;
  scans : int array;
  lgcs : int array;
  sends : int array;
  mutable swept : Invariant.violation list;  (** newest first *)
}

let create ?mutant ?caps (scenario : Scenario.t) =
  Adgc_util.Mc_mutate.set mutant;
  let caps = match caps with Some c -> c | None -> scenario.Scenario.caps in
  let config = Config.mc ~n_procs:scenario.Scenario.n_procs () in
  let sim = Sim.create ~config () in
  let inst = scenario.Scenario.setup sim in
  let n = scenario.Scenario.n_procs in
  let t =
    {
      sim;
      kctx = Sim.kernel_ctx sim;
      caps;
      inst;
      n_procs = n;
      mut_cursor = 0;
      drops_used = 0;
      snaps = Array.make n 0;
      scans = Array.make n 0;
      lgcs = Array.make n 0;
      sends = Array.make n 0;
      swept = [];
    }
  in
  (* The pre-sweep check every driver installs; [apply] renders what
     it records. *)
  Invariant.watch_sweeps (Sim.cluster sim) (fun v -> t.swept <- v :: t.swept);
  t

let sim t = t.sim

let goal_reached t = match t.inst.Scenario.goal with Some g -> g () | None -> false

(* Pending envelopes grouped into (kind, src, dst) classes; the [nth]
   rank within a class is its position in send order.  Descriptors
   survive trail surgery: removing an earlier send shifts ranks
   consistently or makes the action inapplicable, never silently
   retargets it to a different class. *)
let pending_classes t =
  List.map
    (fun (id, (m : Msg.t)) ->
      ( id,
        Msg.kind m.Msg.payload,
        Proc_id.to_int m.Msg.src,
        Proc_id.to_int m.Msg.dst ))
    (Network.pending (Sim.net t.sim))

let resolve t ~kind ~src ~dst ~nth =
  let matching =
    List.filter (fun (_, k, s, d) -> k = kind && s = src && d = dst) (pending_classes t)
  in
  match List.nth_opt matching nth with
  | Some (id, _, _, _) -> Some id
  | None -> None

let enabled t =
  let mutations =
    if t.mut_cursor < Array.length t.inst.Scenario.mutations then [ Action.Mutate t.mut_cursor ]
    else []
  in
  let per_proc cap counts mk =
    let rec go i acc = if i < 0 then acc else go (i - 1) (if counts.(i) < cap then mk i :: acc else acc) in
    go (t.n_procs - 1) []
  in
  (* A listing round by a process with nothing to advertise (and
     nobody owed a retraction) sends no message and clears no mark —
     offering it would only split states on the spent counter. *)
  let useful_send i =
    Reflist.would_advertise (Cluster.proc (Sim.cluster t.sim) i)
  in
  let duties =
    per_proc t.caps.Scenario.snapshots t.snaps (fun i -> Action.Snapshot i)
    @ per_proc t.caps.Scenario.scans t.scans (fun i -> Action.Scan i)
    @ (per_proc t.caps.Scenario.sends t.sends (fun i -> Action.Send_sets i)
      |> List.filter (function Action.Send_sets i -> useful_send i | _ -> true))
    @ per_proc t.caps.Scenario.lgcs t.lgcs (fun i -> Action.Lgc i)
  in
  (* One action per distinct (kind, src, dst) class and rank. *)
  let seen = Hashtbl.create 16 in
  let deliveries =
    List.map
      (fun (_, kind, src, dst) ->
        let key = (kind, src, dst) in
        let nth = match Hashtbl.find_opt seen key with Some n -> n | None -> 0 in
        Hashtbl.replace seen key (nth + 1);
        Action.Deliver { kind; src; dst; nth })
      (pending_classes t)
  in
  let drops =
    if t.drops_used >= t.caps.Scenario.drops then []
    else
      List.map
        (function
          | Action.Deliver { kind; src; dst; nth } -> Action.Drop { kind; src; dst; nth }
          | _ -> assert false)
        deliveries
  in
  mutations @ duties @ deliveries @ drops

let perform t (a : Action.t) =
  match a with
  | Action.Mutate i ->
      if i <> t.mut_cursor || i >= Array.length t.inst.Scenario.mutations then
        Error "mutation is not the next scripted one"
      else begin
        (snd t.inst.Scenario.mutations.(i)) ();
        t.mut_cursor <- i + 1;
        Ok ()
      end
  | Action.Snapshot p ->
      if p < 0 || p >= t.n_procs then Error "no such process"
      else if t.snaps.(p) >= t.caps.Scenario.snapshots then Error "snapshot cap reached"
      else begin
        Kernel.run_duty t.kctx (Kernel.Snapshot p);
        t.snaps.(p) <- t.snaps.(p) + 1;
        Ok ()
      end
  | Action.Scan p ->
      if p < 0 || p >= t.n_procs then Error "no such process"
      else if t.scans.(p) >= t.caps.Scenario.scans then Error "scan cap reached"
      else begin
        Kernel.run_duty t.kctx (Kernel.Scan p);
        t.scans.(p) <- t.scans.(p) + 1;
        Ok ()
      end
  | Action.Lgc p ->
      if p < 0 || p >= t.n_procs then Error "no such process"
      else if t.lgcs.(p) >= t.caps.Scenario.lgcs then Error "lgc cap reached"
      else begin
        Kernel.run_duty t.kctx (Kernel.Lgc p);
        t.lgcs.(p) <- t.lgcs.(p) + 1;
        Ok ()
      end
  | Action.Send_sets p ->
      if p < 0 || p >= t.n_procs then Error "no such process"
      else if t.sends.(p) >= t.caps.Scenario.sends then Error "send-sets cap reached"
      else begin
        Kernel.run_duty t.kctx (Kernel.Send_sets p);
        t.sends.(p) <- t.sends.(p) + 1;
        Ok ()
      end
  | Action.Deliver { kind; src; dst; nth } -> (
      match resolve t ~kind ~src ~dst ~nth with
      | None -> Error "no such pending envelope"
      | Some id ->
          Network.deliver_one (Sim.net t.sim) id;
          Ok ())
  | Action.Drop { kind; src; dst; nth } ->
      if t.drops_used >= t.caps.Scenario.drops then Error "drop budget exhausted"
      else (
        match resolve t ~kind ~src ~dst ~nth with
        | None -> Error "no such pending envelope"
        | Some id ->
            Network.drop_one (Sim.net t.sim) id;
            t.drops_used <- t.drops_used + 1;
            Ok ())

let apply t a =
  match perform t a with
  | Error _ as e -> e
  | Ok () ->
      let swept = List.rev t.swept in
      t.swept <- [];
      Ok
        (List.map
           (fun v -> Printf.sprintf "%s: %s" (Invariant.kind v) (Invariant.describe v))
           (swept @ Invariant.check (Sim.cluster t.sim)))

(* --------------------------------------------------------------- *)
(* Canonical state digest.                                          *)

let oid_str o = Format.asprintf "%a" Oid.pp o

let key_str k = Format.asprintf "%a" Ref_key.pp k

(* Wire bytes as text: the canonical rendering of a summary or a
   payload — injective, and it keeps every field (a rendering that
   dropped [last_invoked] would merge distinct states). *)
let hex bytes =
  let b = Buffer.create (2 * String.length bytes) in
  String.iter (fun c -> Printf.bprintf b "%02x" (Char.code c)) bytes;
  Buffer.contents b

let fingerprint t =
  let rt = Sim.rt t.sim in
  let procs =
    Array.to_list rt.Runtime.procs
    |> List.map (fun (p : Process.t) ->
           let heap =
             Heap.fold p.Process.heap ~init:[] ~f:(fun acc obj ->
                 let fields =
                   Array.to_list obj.Heap.fields
                   |> List.map (function None -> Json.Null | Some o -> Json.Str (oid_str o))
                 in
                 (oid_str obj.Heap.oid, Json.Arr fields) :: acc)
             |> List.sort compare
             |> List.map (fun (k, v) -> Json.Obj [ ("o", Json.Str k); ("f", v) ])
           in
           let roots =
             Heap.roots p.Process.heap |> List.map oid_str |> List.sort compare
             |> List.map (fun s -> Json.Str s)
           in
           let stubs =
             Stub_table.entries p.Process.stubs
             |> List.map (fun (e : Stub_table.entry) ->
                    ( oid_str e.Stub_table.target,
                      Json.Arr
                        [
                          Json.Int e.Stub_table.ic;
                          Json.Int e.Stub_table.pins;
                          Json.Bool e.Stub_table.live;
                          Json.Bool e.Stub_table.fresh;
                        ] ))
             |> List.sort compare
             |> List.map (fun (k, v) -> Json.Obj [ ("s", Json.Str k); ("e", v) ])
           in
           let scions =
             Scion_table.entries p.Process.scions
             |> List.map (fun (e : Scion_table.entry) ->
                    ( key_str e.Scion_table.key,
                      Json.Arr [ Json.Int e.Scion_table.ic; Json.Bool e.Scion_table.confirmed ]
                    ))
             |> List.sort compare
             |> List.map (fun (k, v) -> Json.Obj [ ("s", Json.Str k); ("e", v) ])
           in
           let detector = Sim.detector t.sim (Proc_id.to_int p.Process.id) in
           let summary =
             match Adgc_dcda.Detector.summary detector with
             | None -> Json.Null
             | Some s -> Json.Str (hex (Adgc_snapshot.Summary.bytes s))
           in
           (* Where the next scan resumes: two states that differ only
              here pick different candidates. *)
           let cursor =
             match Adgc_dcda.Detector.scan_cursor detector with
             | None -> Json.Null
             | Some key -> Json.Str (key_str key)
           in
           Json.obj_sorted
             [
               ("alive", Json.Bool p.Process.alive);
               ("heap", Json.Arr heap);
               ("roots", Json.Arr roots);
               ("stubs", Json.Arr stubs);
               ("scions", Json.Arr scions);
               ("summary", summary);
               ("cursor", cursor);
             ])
  in
  (* Parked envelopes, order-independent: identical payloads between
     the same endpoints are interchangeable, so sort on the canonical
     payload rendering (which excludes the envelope sequence
     number). *)
  let in_flight =
    Network.pending (Sim.net t.sim)
    |> List.map (fun (_, (m : Msg.t)) ->
           Printf.sprintf "%d>%d:%s"
             (Proc_id.to_int m.Msg.src)
             (Proc_id.to_int m.Msg.dst)
             (hex (Adgc_serial.Net_codec.encode_shape Msg.emit_payload m.Msg.payload)))
    |> List.sort compare
    |> List.map (fun s -> Json.Str s)
  in
  let ints a = Json.Arr (Array.to_list a |> List.map (fun i -> Json.Int i)) in
  let doc =
    Json.obj_sorted
      [
        ("procs", Json.Arr procs);
        ("net", Json.Arr in_flight);
        ("mut", Json.Int t.mut_cursor);
        ("drops", Json.Int t.drops_used);
        ("snaps", ints t.snaps);
        ("scans", ints t.scans);
        ("lgcs", ints t.lgcs);
        ("sends", ints t.sends);
      ]
  in
  Digest.to_hex (Digest.string (Json.to_string doc))
