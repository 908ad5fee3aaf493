(** Message payloads of the distributed back-tracing baseline
    (Maheshwari & Liskov, PODC'97 style).

    They live here — next to the CDM payloads — so that the runtime's
    closed message type can carry either detector's traffic without
    depending on the detector implementations. *)

type trace_id = { initiator : Proc_id.t; seq : int }

val trace_id_compare : trace_id -> trace_id -> int

val pp_trace_id : Format.formatter -> trace_id -> unit

(** A query asks the process holding the stub [subject] (that is,
    [subject.src]) whether that stub is reachable from any local root,
    tracing {e backwards} through the scions that lead to it.
    [visited] carries the references already being back-traced on this
    path, to cut loops — the per-message analogue of the trace-id
    marking the paper's related-work section describes. *)
type query = { trace : trace_id; subject : Ref_key.t; visited : Ref_key.t list }

(** The answer to one query: is [subject] (transitively) reachable
    from some local root? [Cycle_back] means the back-trace returned
    to an already-visited reference without meeting a root. *)
type verdict = Rooted | Cycle_back

type reply = { trace : trace_id; subject : Ref_key.t; verdict : verdict }

type t = Query of query | Reply of reply

val pp : Format.formatter -> t -> unit

val emit : t Adgc_serial.Net_codec.shape
(** Wire representation, inside {!Adgc_rt.Msg.emit}. *)

val cases : (Adgc_serial.Net_codec.Name.t * int) array
(** The record headers {!emit} writes, for
    {!Adgc_serial.Net_codec.Read.variant}. *)

val read_case : Adgc_serial.Net_codec.Read.t -> int -> t
(** The rest of the record whose header [Read.variant r cases] read,
    as {!Cdm.read_case}; a negative id is malformed. *)
