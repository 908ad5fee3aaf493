type ('k, 'v) entry = { key : 'k; seq : int; value : 'v }

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  mutable data : ('k, 'v) entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~compare = { compare; data = [||]; size = 0; next_seq = 0 }

(* Order by key, then by insertion sequence so equal keys are FIFO. *)
let lt t a b =
  let c = t.compare a.key b.key in
  c < 0 || (c = 0 && a.seq < b.seq)

(* Grow the backing array, using [fill] (the entry about to be pushed)
   as the filler for fresh slots so no dummy value is needed. *)
let grow t fill =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let new_cap = if cap = 0 then 16 else cap * 2 in
    let data = Array.make new_cap fill in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let length t = t.size

let push t key value =
  let entry = { key; seq = t.next_seq; value } in
  grow t entry;
  t.next_seq <- t.next_seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.data.(!i) <- entry;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if lt t t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := parent
    end else continue := false
  done

let peek t =
  if t.size = 0 then None
  else
    let e = t.data.(0) in
    Some (e.key, e.value)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && lt t t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.size && lt t t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end else continue := false
      done
    end;
    Some (top.key, top.value)
  end
