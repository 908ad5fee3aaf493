(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows from values of type {!t} so
    that every run is exactly replayable from a seed.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state, good
    statistical quality, and a cheap [split] operation that derives
    statistically independent child streams — convenient for giving
    each process or subsystem its own stream. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. O(n). *)
