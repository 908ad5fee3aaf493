module Mark = struct
  type t = { mutable epoch : int; mutable epochs : int array }

  (* A slot is marked iff it holds the current epoch; epoch 0 is never
     current, so fresh (and freshly grown) slots are unmarked. *)
  let create ?(capacity = 64) () = { epoch = 1; epochs = Array.make (Int.max 1 capacity) 0 }

  let clear t = t.epoch <- t.epoch + 1

  let grow t i =
    let cap = ref (Array.length t.epochs) in
    while i >= !cap do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap 0 in
    Array.blit t.epochs 0 bigger 0 (Array.length t.epochs);
    t.epochs <- bigger

  let mark t i =
    if i < 0 then invalid_arg "Dense.Mark.mark: negative id";
    if i >= Array.length t.epochs then grow t i;
    if t.epochs.(i) = t.epoch then false
    else begin
      t.epochs.(i) <- t.epoch;
      true
    end

  let is_marked t i = i >= 0 && i < Array.length t.epochs && t.epochs.(i) = t.epoch

  let capacity t = Array.length t.epochs
end

(* Growable int-packed adjacency: each row is a chain of fixed-size
   blocks inside one flat int array, so a graph with millions of edges
   is a handful of arrays — no per-row boxes, no per-edge options.
   Freed blocks go on a free list and are recycled by later [add]s,
   which keeps a churning graph's footprint proportional to its live
   edge count rather than its historical peak. *)
module Csr = struct
  (* Block layout inside [store]: slot 0 is the next-block link (-1 =
     none), slots 1..block_values hold values.  A row tracks its head
     block, tail block and how many slots of the tail are used; all
     non-tail blocks are full. *)
  let block_values = 7

  let block_size = block_values + 1

  type t = {
    mutable store : int array;
    mutable blocks : int; (* blocks ever carved out of [store] *)
    mutable free_block : int; (* head of the freed-block list, -1 = empty *)
    mutable head : int array; (* row -> first block, -1 = empty row *)
    mutable tail : int array; (* row -> last block *)
    mutable used : int array; (* row -> values used in the tail block *)
    mutable len : int array; (* row -> total values *)
    mutable rows : int; (* rows touched so far (array growth hint) *)
  }

  let create ?(capacity = 64) () =
    let capacity = Int.max 1 capacity in
    {
      store = Array.make (block_size * 8) (-1);
      blocks = 0;
      free_block = -1;
      head = Array.make capacity (-1);
      tail = Array.make capacity (-1);
      used = Array.make capacity 0;
      len = Array.make capacity 0;
      rows = 0;
    }

  let grow_rows t r =
    let cap = ref (Array.length t.head) in
    while r >= !cap do
      cap := 2 * !cap
    done;
    let grow a fill =
      let bigger = Array.make !cap fill in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.head <- grow t.head (-1);
    t.tail <- grow t.tail (-1);
    t.used <- grow t.used 0;
    t.len <- grow t.len 0

  let ensure_row t r =
    if r < 0 then invalid_arg "Dense.Csr: negative row";
    if r >= Array.length t.head then grow_rows t r;
    if r >= t.rows then t.rows <- r + 1

  let alloc_block t =
    match t.free_block with
    | b when b >= 0 ->
        t.free_block <- t.store.(b * block_size);
        t.store.(b * block_size) <- -1;
        b
    | _ ->
        let b = t.blocks in
        t.blocks <- b + 1;
        if (b + 1) * block_size > Array.length t.store then begin
          let bigger = Array.make (2 * Array.length t.store) (-1) in
          Array.blit t.store 0 bigger 0 (Array.length t.store);
          t.store <- bigger
        end;
        t.store.(b * block_size) <- -1;
        b

  let free_block_ t b =
    t.store.(b * block_size) <- t.free_block;
    t.free_block <- b

  let add t r v =
    ensure_row t r;
    (if t.head.(r) < 0 then begin
       let b = alloc_block t in
       t.head.(r) <- b;
       t.tail.(r) <- b;
       t.used.(r) <- 0
     end
     else if t.used.(r) >= block_values then begin
       let b = alloc_block t in
       t.store.((t.tail.(r) * block_size)) <- b;
       t.tail.(r) <- b;
       t.used.(r) <- 0
     end);
    t.store.((t.tail.(r) * block_size) + 1 + t.used.(r)) <- v;
    t.used.(r) <- t.used.(r) + 1;
    t.len.(r) <- t.len.(r) + 1

  let iter t r f =
    if r >= 0 && r < Array.length t.head then begin
      let b = ref t.head.(r) in
      while !b >= 0 do
        let base = !b * block_size in
        let n = if !b = t.tail.(r) then t.used.(r) else block_values in
        for i = 1 to n do
          f t.store.(base + i)
        done;
        b := t.store.(base)
      done
    end

  (* Drop the tail's last value (swapping it into the vacated slot is
     the caller's job); recycles the tail block when it empties. *)
  let shrink t r =
    t.used.(r) <- t.used.(r) - 1;
    t.len.(r) <- t.len.(r) - 1;
    if t.used.(r) = 0 then begin
      let dead = t.tail.(r) in
      if t.head.(r) = dead then begin
        t.head.(r) <- -1;
        t.tail.(r) <- -1
      end
      else begin
        (* Walk to the block linking to the tail.  Rows are short
           chains (a block per 7 edges), so this stays cheap. *)
        let b = ref t.head.(r) in
        while t.store.(!b * block_size) <> dead do
          b := t.store.(!b * block_size)
        done;
        t.store.(!b * block_size) <- -1;
        t.tail.(r) <- !b;
        t.used.(r) <- block_values
      end;
      free_block_ t dead
    end

  (* Remove one occurrence of [v] by overwriting it with the row's
     last value and shrinking — order inside a row is not preserved,
     which is fine for adjacency multisets. *)
  let remove t r v =
    if r < 0 || r >= Array.length t.head || t.head.(r) < 0 then false
    else begin
      let found = ref (-1) in
      let b = ref t.head.(r) in
      while !found < 0 && !b >= 0 do
        let base = !b * block_size in
        let n = if !b = t.tail.(r) then t.used.(r) else block_values in
        let i = ref 1 in
        while !found < 0 && !i <= n do
          if t.store.(base + !i) = v then found := base + !i;
          incr i
        done;
        b := t.store.(base)
      done;
      if !found < 0 then false
      else begin
        let last = (t.tail.(r) * block_size) + t.used.(r) in
        t.store.(!found) <- t.store.(last);
        shrink t r;
        true
      end
    end

  let clear_row t r =
    if r >= 0 && r < Array.length t.head && t.head.(r) >= 0 then begin
      let b = ref t.head.(r) in
      while !b >= 0 do
        let next = t.store.(!b * block_size) in
        free_block_ t !b;
        b := next
      done;
      t.head.(r) <- -1;
      t.tail.(r) <- -1;
      t.used.(r) <- 0;
      t.len.(r) <- 0
    end

  let reset t =
    Array.fill t.head 0 (Array.length t.head) (-1);
    Array.fill t.tail 0 (Array.length t.tail) (-1);
    Array.fill t.used 0 (Array.length t.used) 0;
    Array.fill t.len 0 (Array.length t.len) 0;
    t.blocks <- 0;
    t.free_block <- -1;
    t.rows <- 0

  let words t = Array.length t.store + (4 * Array.length t.head)
end

module Interner (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type t = {
    ids : int Tbl.t;
    mutable keys : H.t array; (* keys.(i) is the key of id i, for i < n *)
    mutable n : int;
  }

  let create ?(capacity = 64) () = { ids = Tbl.create (Int.max 1 capacity); keys = [||]; n = 0 }

  let size t = t.n

  let intern t k =
    match Tbl.find_opt t.ids k with
    | Some id -> id
    | None ->
        let id = t.n in
        let cap = Array.length t.keys in
        if id >= cap then begin
          (* Seed the fresh slots with [k]: H.t has no default value. *)
          let bigger = Array.make (Int.max 8 (2 * cap)) k in
          Array.blit t.keys 0 bigger 0 cap;
          t.keys <- bigger
        end;
        t.keys.(id) <- k;
        t.n <- id + 1;
        Tbl.add t.ids k id;
        id

  let find t k = Tbl.find_opt t.ids k

  let key t i =
    if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Dense.Interner.key: id %d unassigned" i);
    t.keys.(i)
end
