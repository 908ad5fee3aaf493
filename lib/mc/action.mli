(** One nondeterministic choice of the bounded model checker.

    Every step the explored system takes is one of these actions; a
    finished exploration path (a {e trail}) is just a list of them.
    Actions are {e descriptors}, not handles: a delivery names an
    envelope by its message kind, endpoints and rank among identical
    pending envelopes ([nth]), never by internal injection id.  That
    keeps a trail meaningful after delta-debugging removes some of its
    prefix — the [nth]-of-kind envelope is still well defined, or the
    action is cleanly inapplicable and the candidate subset is
    rejected. *)

type t =
  | Deliver of { kind : string; src : int; dst : int; nth : int }
      (** dispatch the [nth] (0-based, in send order) pending envelope
          with this {!Adgc_rt.Msg.kind} on the [src -> dst] link *)
  | Drop of { kind : string; src : int; dst : int; nth : int }
      (** discard that envelope instead (counts against the scope's
          drop budget) *)
  | Snapshot of int  (** take and publish a snapshot of process [i] *)
  | Scan of int  (** run one detector candidate scan at process [i] *)
  | Lgc of int  (** run the local collector at process [i] *)
  | Send_sets of int  (** run a [NewSetStubs] round at process [i] *)
  | Mutate of int
      (** fire scripted mutation [i] — only applicable when [i] is the
          next unfired mutation, so scripts stay well-formed *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Adgc_util.Json.t

val of_json : Adgc_util.Json.t -> (t, string) result
