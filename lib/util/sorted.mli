(** Sorting through an array.

    Sorting a list with [List.sort] allocates a fresh list at every
    merge level; copying it into an array, sorting that, and reading
    it back allocates the array and one list.  The scion table sorts
    its protected targets this way for every local collection, so the
    difference shows in its allocation. *)

val last_of_each : ('a -> 'a -> int) -> 'a array -> 'a array
(** The elements in ascending order, keeping only the {e last} of
    several that compare equal — what folding [Map.add] over the array
    would keep.  An array that already strictly ascends is returned as
    it is, with no sort.  Otherwise [a] is stably sorted in place and
    the result is [a] itself when no two elements compare equal, or a
    fresh array. *)
