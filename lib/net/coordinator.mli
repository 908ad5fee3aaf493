(** The driver's control process: spawn the nodes, gate the run, judge
    the outcome.

    The coordinator builds a throwaway replica of the scenario to
    compute the expected live/garbage sets, spawns one OS process per
    rank, waits for every node to report all peer links up, broadcasts
    [Start], then polls [Status] until the completion target (every
    expected-garbage object not excluded by a crash) has been
    reclaimed — or the deadline passes.  It then gathers each
    survivor's authoritative state and runs the {!Gather.check} oracle
    over the union.

    Failure handling is crash-stop: a node is declared dead on child
    exit ([waitpid]), connection EOF, or heartbeat silence; its rank's
    garbage stops being required (see {!Scenario.garbage_excluding})
    and the run continues with the survivors. *)

type fault =
  | Kill of { rank : int; after_s : float }  (** SIGKILL that node mid-run *)
  | Drop of { rank : int; peer : int; after_s : float }
      (** tell [rank] to sever its link to [peer] — reconnect + replay
          machinery takes over *)

type options = {
  scenario : Scenario.t;
  dir : string option;  (** sockets + logs; fresh temp dir when [None] *)
  tick_us : int;
  deadline_s : float;  (** wall-clock budget after [Start] *)
  faults : fault list;
  serve : string list;
      (** each node is [serve @ per-node flags], spawned via
          [Unix.create_process]; the command must implement the
          [serve] contract ([adgc_sim serve] does) *)
  keep_dir : bool;  (** keep the temp dir (logs) after a clean run *)
}

val options :
  ?dir:string ->
  ?tick_us:int ->
  ?deadline_s:float ->
  ?faults:fault list ->
  ?keep_dir:bool ->
  serve:string list ->
  Scenario.t ->
  options
(** Defaults: temp dir, 100 us/tick, 60 s deadline, no faults. *)

type result = {
  verdict : Gather.verdict;
  states : Gather.node_state list;  (** survivors only, rank order *)
  statuses : Envelope.status list;  (** last status per surviving rank *)
  dead : int list;
  required : Adgc_algebra.Oid.Set.t;  (** the completion target used *)
  wall_s : float;  (** [Start] to completion/deadline *)
  max_tick : int;
  timed_out : bool;
  stats : Adgc_util.Stats.t;  (** merged node counters + net.* *)
  obs : Adgc_obs.Span.t;  (** wall-clock phase spans, microseconds *)
  dir : string;
}

val ok : result -> bool
(** Oracle clean, nothing required left unreclaimed, no timeout. *)

val pp_result : Format.formatter -> result -> unit

val run : options -> result
(** Raises [Failure] on setup errors (nodes that never report in);
    protocol-level failures land in the {!result} instead. *)
