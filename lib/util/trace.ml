type event = { time : int; topic : string; text : string }

let capacity = 65536

type t = {
  mutable buf : event option array;  (* allocated by the first [add] *)
  mutable head : int; (* next write slot *)
  mutable count : int;
  mutable enabled : bool;
}

let create () =
  { buf = [||]; head = 0; count = 0; enabled = true }

let set_enabled t b = t.enabled <- b

let add t ~time ~topic text =
  if t.enabled then begin
    if Array.length t.buf = 0 then t.buf <- Array.make capacity None;
    if t.count < capacity then t.count <- t.count + 1;
    t.buf.(t.head) <- Some { time; topic; text };
    t.head <- (t.head + 1) mod capacity
  end

let addf t ~time ~topic fmt =
  if t.enabled then
    Format.kasprintf (fun text -> add t ~time ~topic text) fmt
  else Format.ikfprintf (fun _ -> ()) Format.err_formatter fmt

let events t =
  let start = (t.head - t.count + capacity * 2) mod capacity in
  let rec collect i n acc =
    if n = 0 then List.rev acc
    else
      let acc =
        match t.buf.(i) with None -> acc | Some e -> e :: acc
      in
      collect ((i + 1) mod capacity) (n - 1) acc
  in
  collect start t.count []

let by_topic t topic = List.filter (fun e -> e.topic = topic) (events t)

let pp_event ppf e = Format.fprintf ppf "[%6d] %-10s %s" e.time e.topic e.text
