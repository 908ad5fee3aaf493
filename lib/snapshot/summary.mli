(** Summarized graph description of one process snapshot.

    The paper's "Graph Summarization" (§3): everything the DCDA needs
    to know about a process, with strictly-internal references
    compiled away.  Per scion: the stubs transitively reachable from
    its target ([StubsFrom]) and whether the target is reachable from
    the local root.  Per stub: the scions that transitively lead to it
    ([ScionsTo]) and its local reachability flag ([Local.Reach]).
    Both carry the invocation counters observed at snapshot time —
    the race barrier of §3.2.

    A summary is an immutable value: once taken it never changes, even
    as the live tables move on.  Detections combine CDMs with whatever
    summary version a process currently publishes; staleness is
    handled by the paper's safety rules, not by freshness
    guarantees. *)

open Adgc_algebra

type scion_info = {
  key : Ref_key.t;
  scion_ic : int;
  stubs_from : Oid.Set.t;  (** targets of stubs reachable from the scion's target *)
  target_locally_reachable : bool;
  last_invoked : int;
}

type stub_info = {
  target : Oid.t;
  stub_ic : int;
  scions_to : Ref_key.Set.t;  (** scions leading to this stub *)
  local_reach : bool;  (** the paper's [Local.Reach] bit *)
}

type t = private {
  proc : Proc_id.t;
  taken_at : int;
  scions : scion_info array;  (** strictly ascending key; read-only *)
  stubs : stub_info array;  (** strictly ascending target; read-only *)
}

val make :
  proc:Proc_id.t ->
  taken_at:int ->
  scions:scion_info list ->
  stubs:stub_info list ->
  t
(** Sorts the entries unless they already ascend.  Of several entries
    with the same key (scions) or target (stubs) the last one given is
    kept. *)

val find_scion : t -> Ref_key.t -> scion_info option
(** Binary search. *)

val find_stub : t -> Oid.t -> stub_info option

val scion_list : t -> scion_info list
(** Ascending key order. *)

val stub_list : t -> stub_info list
(** Ascending target order. *)

val counts : t -> int * int
(** [(scions, stubs)], in constant time. *)

val equal : t -> t -> bool
(** Structural, ignoring [taken_at] — used to check the summarizer
    against an independent reference. *)

(** {1 Wire format} *)

val emit : t Adgc_serial.Net_codec.shape

val encode : t -> string
(** The compact ({!Adgc_serial.Net_codec}) bytes of {!emit}. *)

val decode : string -> t option
(** Read {!encode}'s bytes straight back, with no intermediate tree
    (repeated keys keep the last entry, as in {!make});
    [None] on any deviation from the format — a truncation, a wrong
    tag or field count, a negative id or trailing bytes. *)

val pp : Format.formatter -> t -> unit
