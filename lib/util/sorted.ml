let ascending compare a =
  let rec go i = i >= Array.length a || (compare a.(i - 1) a.(i) < 0 && go (i + 1)) in
  go 1

let last_of_each compare a =
  if ascending compare a then a
  else begin
    Array.stable_sort compare a;
    let n = Array.length a in
    (* A stable sort keeps equal elements in input order, so the last
       of each run is the last given. *)
    let last i = i = n - 1 || compare a.(i) a.(i + 1) <> 0 in
    let kept = ref 0 in
    for i = 0 to n - 1 do
      if last i then incr kept
    done;
    if !kept = n then a
    else begin
      let out = Array.make !kept a.(0) in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if last i then begin
          out.(!j) <- a.(i);
          incr j
        end
      done;
      out
    end
  end
