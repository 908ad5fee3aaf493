type outcome = {
  states : int;
  transitions : int;
  complete : bool;
  violation : (Action.t list * string list) option;
}

let run ?mutant ?caps scenario trail =
  let sys = System.create ?mutant ?caps scenario in
  let rec go acc = function
    | [] -> Ok (sys, List.rev acc)
    | a :: rest -> (
        match System.apply sys a with
        | Error e -> Error (Format.asprintf "%a: %s" Action.pp a e)
        | Ok viols -> go (List.rev_append viols acc) rest)
  in
  go [] trail

let explore ?mutant ?caps ?(max_depth = 64) scenario =
  (* fingerprint -> largest remaining budget it was expanded with *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 in
  let transitions = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  let exception Found in
  let rec dfs trail sys depth =
    let fp = System.fingerprint sys in
    let remaining = max_depth - depth in
    let expand =
      match Hashtbl.find_opt seen fp with
      | Some r when r >= remaining -> false
      | Some _ -> true
      | None ->
          incr states;
          true
    in
    if expand then begin
      Hashtbl.replace seen fp remaining;
      let acts = System.enabled sys in
      if acts <> [] && remaining <= 0 then truncated := true
      else
        List.iter
          (fun a ->
            let trail' = trail @ [ a ] in
            match run ?mutant ?caps scenario trail' with
            | Error _ ->
                (* enabled implies applicable; an error here would be a
                   nondeterminism bug, which the replay test suite
                   guards against *)
                ()
            | Ok (sys', viols) ->
                incr transitions;
                if viols <> [] then begin
                  violation := Some (trail', viols);
                  raise Found
                end
                else dfs trail' sys' (depth + 1))
          acts
    end
  in
  (try
     match run ?mutant ?caps scenario [] with
     | Error _ -> ()
     | Ok (sys0, viols) ->
         if viols <> [] then violation := Some ([], viols) else dfs [] sys0 0
   with Found -> ());
  {
    states = !states;
    transitions = !transitions;
    complete = (not !truncated) && !violation = None;
    violation = !violation;
  }

(* --------------------------------------------------------------- *)
(* Delta debugging (Zeller's ddmin) over the action trail.          *)

let split_chunks trail n =
  let len = List.length trail in
  let arr = Array.of_list trail in
  let base = len / n and extra = len mod n in
  let chunks = ref [] in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let size = base + if i < extra then 1 else 0 in
    if size > 0 then begin
      chunks := Array.to_list (Array.sub arr !pos size) :: !chunks;
      pos := !pos + size
    end
  done;
  List.rev !chunks

let ddmin ~test trail =
  let rec go trail n =
    let len = List.length trail in
    if len <= 1 then trail
    else begin
      let chunks = split_chunks trail n in
      let try_candidates candidates =
        List.find_opt test candidates
      in
      (* Reduce to a single chunk... *)
      match try_candidates chunks with
      | Some chunk -> go chunk 2
      | None -> (
          (* ...or to the complement of one. *)
          let complements =
            List.mapi (fun i _ -> List.concat (List.filteri (fun j _ -> j <> i) chunks)) chunks
          in
          match try_candidates complements with
          | Some rest -> go rest (max (n - 1) 2)
          | None -> if n >= len then trail else go trail (min len (2 * n)))
    end
  in
  if test trail then go trail 2 else trail

let swarm ?mutant ?caps ~seeds ~steps scenario =
  let walk seed =
    let rng = Adgc_util.Rng.create seed in
    let sys = System.create ?mutant ?caps scenario in
    let rec go trail k =
      if k >= steps then None
      else
        match System.enabled sys with
        | [] -> None
        | acts -> (
            let a = List.nth acts (Adgc_util.Rng.int rng (List.length acts)) in
            match System.apply sys a with
            | Error _ -> None
            | Ok viols ->
                let trail = trail @ [ a ] in
                if viols <> [] then Some (seed, trail, viols) else go trail (k + 1))
    in
    go [] 0
  in
  List.find_map walk seeds
