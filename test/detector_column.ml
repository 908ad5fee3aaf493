(* The detector columns of the sim-level matrices: the DCDA, which
   [Sim] runs itself, and the back-tracing comparator, which attaches
   from outside to a sim configured without a detector. *)

module Sim = Adgc.Sim
module Config = Adgc.Config
module Backtrack = Adgc_baseline.Backtrack

type t = Dcda | Backtrack

let all = [ Dcda; Backtrack ]

let name = function Dcda -> "dcda" | Backtrack -> "backtrack"

let config t (c : Config.t) =
  { c with Config.detector = (match t with Dcda -> Config.Dcda | Backtrack -> Config.No_detector) }

(* How long a scion must sit uninvoked before back-tracing suspects
   it, at the quick configuration's periods. *)
let idle_threshold = 200

(* [Sim.start], and for back-tracing its instances (none for the
   DCDA), whose scan lane fires after the sim's duties on a shared
   tick. *)
let start t sim =
  Sim.start sim;
  match t with Dcda -> [||] | Backtrack -> Backtrack.install ~idle_threshold sim

(* One candidate scan on every process, in process order; detections
   or back-traces started. *)
let scan_all sim bts =
  Array.fold_left (fun acc bt -> acc + Backtrack.scan bt ~idle_threshold) (Sim.scan_all sim) bts
