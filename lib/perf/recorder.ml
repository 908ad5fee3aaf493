type t = { mutable sections : (string * Sample.t list) list; smoke : bool }

let create ~smoke () = { sections = []; smoke }

let add t ~section sample =
  match List.assoc_opt section t.sections with
  | Some _ ->
      t.sections <-
        List.map
          (fun (name, ss) -> if name = section then (name, sample :: ss) else (name, ss))
          t.sections
  | None -> t.sections <- (section, [ sample ]) :: t.sections

let config_digest parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let document t ~rev ~host =
  Results.normalize { Results.rev; smoke = t.smoke; host; sections = t.sections }
