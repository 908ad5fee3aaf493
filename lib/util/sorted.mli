(** Sorting through an array.

    Sorting a list with [List.sort] allocates a fresh list at every
    merge level; copying it into an array, sorting that, and reading
    it back allocates the array and one list.  The hot callers (stub
    and scion tables, graph summaries) sort a few thousand entries per
    event, so the difference shows in their allocation. *)

val last_of_each : ('a -> 'a -> int) -> 'a array -> 'a array
(** The elements in ascending order, keeping only the {e last} of
    several that compare equal — what folding [Map.add] over the array
    would keep.  An array that already strictly ascends is returned as
    it is, with no sort.  Otherwise [a] is stably sorted in place and
    the result is [a] itself when no two elements compare equal, or a
    fresh array. *)

val list : ('a -> 'a -> int) -> 'a list -> 'a list
(** {!last_of_each} on a list: [List.sort] where no two elements
    compare equal. *)

val prefix : ('a -> 'a -> int) -> 'a array -> int -> unit
(** [prefix compare a n] sorts [a.(0)] .. [a.(n - 1)] in place and
    leaves the rest of [a] alone, allocating no copy: how a reused
    scratch array is sorted up to its used length.  Not stable. *)
