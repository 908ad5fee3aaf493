(** Message payloads of the distributed back-tracing baseline
    (Maheshwari & Liskov, PODC'97 style).

    They travel as the bytes of an {!Adgc_rt.Msg.Ext} payload, written
    with {!emit}; the runtime never looks inside. *)

open Adgc_algebra

type trace_id = { initiator : Proc_id.t; seq : int }

val trace_id_compare : trace_id -> trace_id -> int

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

val emit : t Adgc_serial.Net_codec.shape
(** Wire representation, the body of an {!Adgc_rt.Msg.Ext}: one packed
    run, [[kind; initiator; seq; subject]] and then a query's visited
    references or a reply's verdict (1 rooted, 0 cycle back), each
    reference as {!Adgc_algebra.Ref_key.emit} writes it. *)

val read : Adgc_serial.Net_codec.Read.t -> t
(** Reads {!emit}'s bytes back.  Anything else — another
    comparator's body (whose runs have other lengths), an unknown
    kind or verdict, a part reference, a missing or extra field — is
    malformed. *)
