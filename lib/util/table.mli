(** Plain-text table rendering for benchmark and example output.

    Produces aligned, boxed ASCII tables in the style of the paper's
    Table 1 so that [bench/main.exe]'s output can be compared with the
    published rows at a glance. *)

type align = Left | Right

val print :
  ?align:align list -> header:string list -> rows:string list list -> unit -> unit
(** Render the aligned, boxed table and print it on stdout. *)
