module Detection_id = Adgc_algebra.Detection_id
module Proc_id = Adgc_algebra.Proc_id
module Ref_key = Adgc_algebra.Ref_key

type hop =
  | Initiated of { at : Proc_id.t; time : int; candidate : Ref_key.t }
  | Sent of {
      at : Proc_id.t;
      dst : Proc_id.t;
      time : int;
      sources : int;
      targets : int;
      hops : int;
    }
  | Received of { at : Proc_id.t; time : int; sources : int; targets : int; hops : int }
  | Guard of { at : Proc_id.t; time : int; reason : string }
  | Concluded of { at : Proc_id.t; time : int; proven : bool; hops : int; refs : int }

let hop_time = function
  | Initiated h -> h.time
  | Sent h -> h.time
  | Received h -> h.time
  | Guard h -> h.time
  | Concluded h -> h.time

type entry = { mutable hops_rev : hop list; mutable span : int; mutable n : int }

type t = {
  entries : (Detection_id.t, entry) Hashtbl.t;
  mutable enabled : bool;
  max_hops : int;  (* per detection; protects unbounded chains *)
}

(* Detections retained; later ones are not recorded. *)
let detections_kept = 4096

let create ?(max_hops = 1024) () = { entries = Hashtbl.create 64; enabled = false; max_hops }

let enabled t = t.enabled

let set_enabled t b = t.enabled <- b

let entry t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> Some e
  | None ->
      if Hashtbl.length t.entries >= detections_kept then None
      else begin
        let e = { hops_rev = []; span = -1; n = 0 } in
        Hashtbl.add t.entries id e;
        Some e
      end

let record t id hop =
  if t.enabled then
    match entry t id with
    | None -> ()
    | Some e ->
        if e.n < t.max_hops then begin
          e.hops_rev <- hop :: e.hops_rev;
          e.n <- e.n + 1
        end

let set_span t id span =
  if t.enabled then match entry t id with None -> () | Some e -> e.span <- span

let span t id =
  match Hashtbl.find_opt t.entries id with
  | Some e when e.span >= 0 -> Some e.span
  | Some _ | None -> None

(* Hops are recorded in causal order per process but a Sent and the
   matching Received are logged by different processes; sim time plus
   stable insertion order reconstructs the global chain. *)
let hops t id =
  match Hashtbl.find_opt t.entries id with
  | None -> []
  | Some e ->
      List.stable_sort
        (fun a b -> Int.compare (hop_time a) (hop_time b))
        (List.rev e.hops_rev)

let detections t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.entries [] |> List.sort Detection_id.compare

let pp_hop ppf = function
  | Initiated h ->
      Format.fprintf ppf "[%6d] %a initiated on %a" h.time Proc_id.pp h.at Ref_key.pp h.candidate
  | Sent h ->
      Format.fprintf ppf "[%6d] %a -> %a CDM src=%d tgt=%d hops=%d" h.time Proc_id.pp h.at
        Proc_id.pp h.dst h.sources h.targets h.hops
  | Received h ->
      Format.fprintf ppf "[%6d] %a received CDM src=%d tgt=%d hops=%d" h.time Proc_id.pp h.at
        h.sources h.targets h.hops
  | Guard h -> Format.fprintf ppf "[%6d] %a killed: %s" h.time Proc_id.pp h.at h.reason
  | Concluded h ->
      Format.fprintf ppf "[%6d] %a concluded %s (hops=%d, refs=%d)" h.time Proc_id.pp h.at
        (if h.proven then "CYCLE PROVEN" else "abandoned")
        h.hops h.refs

let pp_chain ppf (t, id) =
  Format.fprintf ppf "@[<v2>detection %a:" Detection_id.pp id;
  List.iter (fun h -> Format.fprintf ppf "@,%a" pp_hop h) (hops t id);
  Format.fprintf ppf "@]"
