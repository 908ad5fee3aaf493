(* Reference summaries: a record form of a summary with its own
   encoder and reader of the wire format, and the paper's description
   transcribed directly, as an independent check on the condensed
   summarizer in lib/snapshot — one breadth-first trace from the roots
   and one per scion, assembled straight into records.  StubsFrom
   keeps only remote references that have a stub; ScionsTo is read
   back off the scions.  Shares no code with [Summarize], [Summary]
   or the codec: the run's tag, its varints and every structural rule
   are written out again here. *)

open Adgc_algebra
open Adgc_rt
module Summary = Adgc_snapshot.Summary

type scion_info = {
  key : Ref_key.t;
  scion_ic : int;
  stubs_from : Oid.Set.t;
  target_locally_reachable : bool;
  last_invoked : int;
}

type stub_info = {
  target : Oid.t;
  stub_ic : int;
  scions_to : Ref_key.Set.t;
  local_reach : bool;
}

type t = {
  proc : Proc_id.t;
  taken_at : int;
  scions : scion_info list; (* strictly ascending key *)
  stubs : stub_info list; (* strictly ascending target *)
}

(* Of several entries with one key, the last given is kept, as folding
   [Map.add] over them does. *)
let make ~proc ~taken_at ~scions ~stubs =
  let scions =
    List.fold_left (fun m s -> Ref_key.Map.add s.key s m) Ref_key.Map.empty scions
  and stubs = List.fold_left (fun m s -> Oid.Map.add s.target s m) Oid.Map.empty stubs in
  {
    proc;
    taken_at;
    scions = List.map snd (Ref_key.Map.bindings scions);
    stubs = List.map snd (Oid.Map.bindings stubs);
  }

(* ------------------------------------------------------------------ *)
(* The wire format, as [Summary] documents it: one packed run (tag 8,
   the item count, then the items as plain LEB128 varints), [[proc;
   taken_at; scions; scion...; stubs; stub...]].  A scion is [[src;
   owner; serial; ic; n; (owner, serial)...; last_invoked·2 + flag]],
   a stub [[owner; serial; ic·2 + flag; n; (src, owner, serial)...]]. *)

let tag_packed = 8

let oid_items (o : Oid.t) = [ Proc_id.to_int (Oid.owner o); o.Oid.serial ]

let key_items (k : Ref_key.t) = Proc_id.to_int k.Ref_key.src :: oid_items k.Ref_key.target

let flagged v flag = (2 * v) + if flag then 1 else 0

let scion_items si =
  key_items si.key
  @ [ si.scion_ic; Oid.Set.cardinal si.stubs_from ]
  @ List.concat_map oid_items (Oid.Set.elements si.stubs_from)
  @ [ flagged si.last_invoked si.target_locally_reachable ]

let stub_items st =
  oid_items st.target
  @ [ flagged st.stub_ic st.local_reach; Ref_key.Set.cardinal st.scions_to ]
  @ List.concat_map key_items (Ref_key.Set.elements st.scions_to)

let items ~proc ~taken_at scions stubs =
  [ Proc_id.to_int proc; taken_at; List.length scions ]
  @ List.concat_map scion_items scions
  @ (List.length stubs :: List.concat_map stub_items stubs)

(* Seven bits a byte, low first, the high bit set on every byte but
   the last. *)
let rec add_uvarint b v =
  if v < 0 then invalid_arg "Summary_reference: a negative int in a summary"
  else if v < 0x80 then Buffer.add_char b (Char.chr v)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
    add_uvarint b (v lsr 7)
  end

(* Bytes of entries in the order given, repeats included, so an
   unsorted list makes bytes the index pass must reject. *)
let encode_entries ~proc ~taken_at scions stubs =
  let run = items ~proc ~taken_at scions stubs in
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr tag_packed);
  add_uvarint b (List.length run);
  List.iter (add_uvarint b) run;
  Buffer.contents b

let encode t = encode_entries ~proc:t.proc ~taken_at:t.taken_at t.scions t.stubs

exception Malformed

(* The run's items, or [Malformed]: the tag, then a count and that
   many varints of at most nine bytes, none past [max_int] (the ninth
   byte carries six bits), a count no larger than the bytes left, and
   nothing after the last. *)
let read_run bytes =
  let len = String.length bytes in
  let pos = ref 0 in
  let byte () =
    if !pos >= len then raise Malformed;
    let c = Char.code bytes.[!pos] in
    incr pos;
    c
  in
  let uvarint () =
    let rec go i acc =
      let c = byte () in
      let bits = c land 0x7F in
      if i = 8 && (c >= 0x80 || bits >= 0x40) then raise Malformed;
      let acc = acc + (bits lsl (7 * i)) in
      if c < 0x80 then acc else go (i + 1) acc
    in
    go 0 0
  in
  if byte () <> tag_packed then raise Malformed;
  let n = uvarint () in
  if n > len - !pos then raise Malformed;
  let run = List.init n (fun _ -> uvarint ()) in
  if !pos <> len then raise Malformed;
  run

let rec ascending compare = function
  | a :: (b :: _ as rest) -> compare a b < 0 && ascending compare rest
  | [ _ ] | [] -> true

(* [k] things off the front of the items, each read by [one]. *)
let rec take k one items =
  if k = 0 then ([], items)
  else
    let x, items = one items in
    let xs, items = take (k - 1) one items in
    (x :: xs, items)

let read_oid = function
  | owner :: serial :: items -> (Oid.make ~owner:(Proc_id.of_int owner) ~serial, items)
  | _ -> raise Malformed

let read_key = function
  | src :: items ->
      let target, items = read_oid items in
      (Ref_key.make ~src:(Proc_id.of_int src) ~target, items)
  | [] -> raise Malformed

let read_scion items =
  let key, items = read_key items in
  match items with
  | scion_ic :: n :: items -> (
      let stubs, items = take n read_oid items in
      if not (ascending Oid.compare stubs) then raise Malformed;
      match items with
      | flag :: items ->
          ( {
              key;
              scion_ic;
              stubs_from = Oid.Set.of_list stubs;
              target_locally_reachable = flag land 1 = 1;
              last_invoked = flag lsr 1;
            },
            items )
      | [] -> raise Malformed)
  | _ -> raise Malformed

let read_stub items =
  let target, items = read_oid items in
  match items with
  | flag :: n :: items ->
      let keys, items = take n read_key items in
      if not (ascending Ref_key.compare keys) then raise Malformed;
      ( {
          target;
          stub_ic = flag lsr 1;
          scions_to = Ref_key.Set.of_list keys;
          local_reach = flag land 1 = 1;
        },
        items )
  | _ -> raise Malformed

(* The reference read-back: the record form of well-formed bytes, whose
   entries strictly ascend, or [None]. *)
let decode bytes =
  match read_run bytes with
  | exception Malformed -> None
  | run -> (
      let read () =
        match run with
        | proc :: taken_at :: n :: items -> (
            let scions, items = take n read_scion items in
            match items with
            | n :: items ->
                let stubs, items = take n read_stub items in
                if
                  items <> []
                  || (not (ascending (fun a b -> Ref_key.compare a.key b.key) scions))
                  || not (ascending (fun a b -> Oid.compare a.target b.target) stubs)
                then raise Malformed;
                { proc = Proc_id.of_int proc; taken_at; scions; stubs }
            | [] -> raise Malformed)
        | _ -> raise Malformed
      in
      match read () with t -> Some t | exception Malformed -> None)

(* A view's runs as sets, and the whole view read back through every
   accessor. *)
let stubs_from v i = Oid.Set.of_list (Summary.fold_stubs_from v i List.cons [])

let scions_to v j = Ref_key.Set.of_list (Summary.fold_scions_to v j List.cons [])

let of_view v =
  let scions, stubs = Summary.counts v in
  {
    proc = Summary.proc v;
    taken_at = Summary.taken_at v;
    scions =
      List.init scions (fun i ->
          {
            key = Summary.scion_key v i;
            scion_ic = Summary.scion_ic v i;
            stubs_from = stubs_from v i;
            target_locally_reachable = Summary.target_locally_reachable v i;
            last_invoked = Summary.last_invoked v i;
          });
    stubs =
      List.init stubs (fun j ->
          {
            target = Summary.stub_target v j;
            stub_ic = Summary.stub_ic v j;
            scions_to = scions_to v j;
            local_reach = Summary.local_reach v j;
          });
  }

(* A view, one line per scion and per stub (the property printers'
   rendering). *)
let pp ppf v =
  let set pp_elt ppf elts =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_elt ppf (List.rev elts)
  in
  let scions, stubs = Summary.counts v in
  Format.fprintf ppf "@[<v>summary of %a at %d@," Proc_id.pp (Summary.proc v) (Summary.taken_at v);
  for i = 0 to scions - 1 do
    Format.fprintf ppf "  scion %a ic=%d root=%b StubsFrom={%a}@," Ref_key.pp
      (Summary.scion_key v i) (Summary.scion_ic v i)
      (Summary.target_locally_reachable v i)
      (set Oid.pp)
      (Summary.fold_stubs_from v i List.cons [])
  done;
  for j = 0 to stubs - 1 do
    Format.fprintf ppf "  stub  %a ic=%d local=%b ScionsTo={%a}@," Oid.pp (Summary.stub_target v j)
      (Summary.stub_ic v j) (Summary.local_reach v j) (set Ref_key.pp)
      (Summary.fold_scions_to v j List.cons [])
  done;
  Format.fprintf ppf "@]"

let scion_equal a b =
  Ref_key.equal a.key b.key && a.scion_ic = b.scion_ic
  && Oid.Set.equal a.stubs_from b.stubs_from
  && a.target_locally_reachable = b.target_locally_reachable
  && a.last_invoked = b.last_invoked

let stub_equal a b =
  Oid.equal a.target b.target && a.stub_ic = b.stub_ic
  && Ref_key.Set.equal a.scions_to b.scions_to
  && a.local_reach = b.local_reach

let equal a b =
  Proc_id.equal a.proc b.proc && a.taken_at = b.taken_at
  && List.equal scion_equal a.scions b.scions
  && List.equal stub_equal a.stubs b.stubs

let summary ~now (p : Process.t) =
  let heap = p.Process.heap in
  let from_roots = Heap.trace heap ~from:(Heap.roots heap) in
  let stub_entries = Stub_table.entries p.Process.stubs in
  let stubbed =
    Oid.Set.of_list (List.map (fun (e : Stub_table.entry) -> e.Stub_table.target) stub_entries)
  in
  let scions =
    List.map
      (fun (e : Scion_table.entry) ->
        let target = e.Scion_table.key.Ref_key.target in
        {
          key = e.Scion_table.key;
          scion_ic = e.Scion_table.ic;
          stubs_from = Oid.Set.inter stubbed (Heap.trace heap ~from:[ target ]).Heap.remote;
          target_locally_reachable = Oid.Set.mem target from_roots.Heap.local;
          last_invoked = e.Scion_table.last_invoked;
        })
      (Scion_table.entries p.Process.scions)
  in
  let stubs =
    List.map
      (fun (e : Stub_table.entry) ->
        let target = e.Stub_table.target in
        {
          target;
          stub_ic = e.Stub_table.ic;
          scions_to =
            List.fold_left
              (fun acc si ->
                if Oid.Set.mem target si.stubs_from then Ref_key.Set.add si.key acc else acc)
              Ref_key.Set.empty scions;
          local_reach = Oid.Set.mem target from_roots.Heap.remote;
        })
      stub_entries
  in
  make ~proc:p.Process.id ~taken_at:now ~scions ~stubs
