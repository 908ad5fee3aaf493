open Adgc_algebra
open Adgc_rt
module Mark = Adgc_util.Dense.Mark
module N = Adgc_serial.Net_codec

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan SCC + DAG dynamic program over the heap's dense
   index.  The heap's packed adjacency is read once into two flat runs
   per node: its live local successors (dense ids) and the stubs its
   remote targets have (stub ranks, through a per-snapshot array
   indexed by remote id and filled from the key-ordered stub table).
   Every per-node attribute is a plain int array indexed by dense id,
   and the whole scratch is one module-level pool reused across runs
   (the arrays are fully re-initialized for [0, n) each run).  What a
   run allocates is its data: each component's reachable-stub ranks,
   the summary's bytes and its entry offsets. *)

type scratch = {
  mutable index : int array; (* Tarjan discovery index; -1 = unvisited, -2 = dead id *)
  mutable lowlink : int array;
  mutable on_stack : Bytes.t;
  mutable scc : int array; (* node -> scc id, -1 = dead id *)
  mutable off : int array; (* node -> start in succ_flat, length n+1 *)
  mutable succ_flat : int array; (* live local successors, by node *)
  mutable edges : int; (* used prefix of succ_flat *)
  mutable rank_off : int array; (* node -> start in rank_flat, length n+1 *)
  mutable rank_flat : int array; (* stub ranks of its remote targets, by node *)
  mutable ranked : int; (* used prefix of rank_flat *)
  mutable rank : int array; (* remote id -> stub rank, -1 = no stub *)
  mutable stack : int array; (* Tarjan SCC stack; then the root walk's queue *)
  mutable work_id : int array; (* explicit DFS stack: node... *)
  mutable work_child : int array; (* ...and its next-child cursor *)
  mutable scc_off : int array; (* scc -> start in member_flat *)
  mutable member_flat : int array; (* members bucketed by scc id *)
  mutable cursor : int array; (* bucket fill cursors: scc_off's, then to_off's *)
  mutable reach : int array array; (* scc -> stub ranks it reaches, ascending *)
  mutable own : int array; (* one component's own stub ranks *)
  mutable merged : int array; (* a union being built *)
  root_marks : Mark.t; (* objects reached from the roots *)
  stub_marks : Mark.t; (* stub ranks reached from the roots *)
  (* Assembly: the tables' entries in key order, each scion's target
     node, StubsFrom as stub ranks, each stub's ScionsTo as scion
     ranks. *)
  mutable scions : Scion_table.entry array;
  mutable nscions : int;
  mutable stubs : Stub_table.entry array;
  mutable nstubs : int;
  mutable target : int array; (* scion -> dense id of its target, -1 = dead *)
  mutable from_off : int array; (* scion -> start in from_flat *)
  mutable from_flat : int array;
  mutable to_off : int array; (* stub -> start in to_flat *)
  mutable to_flat : int array;
}

let scratch =
  {
    index = [||];
    lowlink = [||];
    on_stack = Bytes.empty;
    scc = [||];
    off = [||];
    succ_flat = [||];
    edges = 0;
    rank_off = [||];
    rank_flat = [||];
    ranked = 0;
    rank = [||];
    stack = [||];
    work_id = [||];
    work_child = [||];
    scc_off = [||];
    member_flat = [||];
    cursor = [||];
    reach = [||];
    own = [||];
    merged = [||];
    root_marks = Mark.create ();
    stub_marks = Mark.create ();
    scions = [||];
    nscions = 0;
    stubs = [||];
    nstubs = 0;
    target = [||];
    from_off = [||];
    from_flat = [||];
    to_off = [||];
    to_flat = [||];
  }

let ensure_int_array get set n =
  if Array.length (get ()) < n then set (Array.make (Int.max 64 n) 0)

(* [a] with room for index [i], keeping its contents. *)
let grown a i fill =
  if i < Array.length a then a
  else begin
    let bigger = Array.make (Int.max 256 (2 * Array.length a)) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

(* The table walks and the adjacency read are top-level functions over
   the one scratch, so a run builds no closure for them. *)
let add_stub e =
  let s = scratch in
  s.stubs <- grown s.stubs s.nstubs e;
  s.stubs.(s.nstubs) <- e;
  s.nstubs <- s.nstubs + 1

let add_scion e =
  let s = scratch in
  s.scions <- grown s.scions s.nscions e;
  s.scions.(s.nscions) <- e;
  s.nscions <- s.nscions + 1

(* One packed adjacency value of the node being read: a live local
   target joins its successors, a remote target with a stub its
   ranks; a dangling local reference and a stubless remote one are
   dropped. *)
let add_edge v =
  let s = scratch in
  if v >= 0 then begin
    if s.index.(v) = -1 then begin
      s.succ_flat <- grown s.succ_flat s.edges 0;
      s.succ_flat.(s.edges) <- v;
      s.edges <- s.edges + 1
    end
  end
  else begin
    let r = s.rank.(-v - 1) in
    if r >= 0 then begin
      s.rank_flat <- grown s.rank_flat s.ranked 0;
      s.rank_flat.(s.ranked) <- r;
      s.ranked <- s.ranked + 1
    end
  end

(* The union of the ascending arrays [a] and the first [bn] items of
   [b], ascending without repeats: [a] itself when it already holds
   them all, and [b] when [shared] and it holds [a].  Only a union
   that adds to both is a new array, so a chain of nodes that reach
   the same stubs shares one. *)
let union a b bn ~shared =
  let an = Array.length a in
  if bn = 0 then a
  else if an = 0 && shared then b
  else begin
    let s = scratch in
    if Array.length s.merged < an + bn then s.merged <- Array.make (2 * (an + bn)) 0;
    let m = s.merged in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < an || !j < bn do
      let v =
        if !j >= bn || (!i < an && a.(!i) < b.(!j)) then begin
          let v = a.(!i) in
          incr i;
          v
        end
        else begin
          let v = b.(!j) in
          if !i < an && a.(!i) = v then incr i;
          incr j;
          v
        end
      in
      m.(!k) <- v;
      incr k
    done;
    if !k = an then a else if shared && !k = bn then b else Array.sub m 0 !k
  end

(* Sort the first [n] items of [a] ascending and drop repeats; the
   count kept. *)
let sort_unique a n =
  if n <= 32 then
    for i = 1 to n - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let sorted = Array.sub a 0 n in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 a 0 n
  end;
  let k = ref (Int.min n 1) in
  for i = 1 to n - 1 do
    if a.(i) <> a.(!k - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  !k

let run ~now (p : Process.t) =
  let heap = p.Process.heap in
  let me = p.Process.id in
  let n = Heap.dense_sync heap in
  let s = scratch in
  (* Both tables are walked in place, in key order, into the reused
     arrays; each stub's remote id then names its rank. *)
  s.nstubs <- 0;
  Stub_table.iter p.Process.stubs add_stub;
  s.nscions <- 0;
  Scion_table.iter p.Process.scions add_scion;
  let nstubs = s.nstubs and nscions = s.nscions in
  let stubs = s.stubs and scions = s.scions in
  let nremote = Heap.remote_ids heap in
  ensure_int_array (fun () -> s.rank) (fun a -> s.rank <- a) nremote;
  Array.fill s.rank 0 nremote (-1);
  for j = 0 to nstubs - 1 do
    match Heap.remote_id heap stubs.(j).Stub_table.target with
    | Some rid -> s.rank.(rid) <- j
    | None -> ()
  done;
  ensure_int_array (fun () -> s.index) (fun a -> s.index <- a) n;
  ensure_int_array (fun () -> s.lowlink) (fun a -> s.lowlink <- a) n;
  ensure_int_array (fun () -> s.scc) (fun a -> s.scc <- a) n;
  ensure_int_array (fun () -> s.off) (fun a -> s.off <- a) (n + 1);
  ensure_int_array (fun () -> s.rank_off) (fun a -> s.rank_off <- a) (n + 1);
  ensure_int_array (fun () -> s.stack) (fun a -> s.stack <- a) n;
  ensure_int_array (fun () -> s.work_id) (fun a -> s.work_id <- a) (n + 1);
  ensure_int_array (fun () -> s.work_child) (fun a -> s.work_child <- a) (n + 1);
  ensure_int_array (fun () -> s.scc_off) (fun a -> s.scc_off <- a) (n + 2);
  ensure_int_array (fun () -> s.member_flat) (fun a -> s.member_flat <- a) n;
  ensure_int_array (fun () -> s.cursor) (fun a -> s.cursor <- a) (n + 1);
  if Bytes.length s.on_stack < n then s.on_stack <- Bytes.make (Int.max 64 n) '\000';
  Array.fill s.index 0 n (-2);
  Heap.iter_dense heap (fun id _ -> s.index.(id) <- -1);
  Array.fill s.scc 0 n (-1);
  Bytes.fill s.on_stack 0 n '\000';
  (* The two runs of every node, in id order. *)
  s.edges <- 0;
  s.ranked <- 0;
  for id = 0 to n - 1 do
    s.off.(id) <- s.edges;
    s.rank_off.(id) <- s.ranked;
    if s.index.(id) = -1 then Heap.iter_edges heap id add_edge
  done;
  s.off.(n) <- s.edges;
  s.rank_off.(n) <- s.ranked;
  (* Iterative Tarjan: an explicit work stack of (node, next-child).
     SCCs are numbered in emission order, i.e. reverse topological
     order of the condensation (every successor SCC of [c] has a
     number smaller than [c]). *)
  let counter = ref 0 in
  let scc_count = ref 0 in
  let sp = ref 0 in
  (* Tarjan stack pointer *)
  let wp = ref 0 in
  (* work stack pointer; the helpers are built once per run, not per
     DFS root *)
  let push_work id child =
    s.work_id.(!wp) <- id;
    s.work_child.(!wp) <- child;
    incr wp
  in
  let discover id =
    s.index.(id) <- !counter;
    s.lowlink.(id) <- !counter;
    incr counter;
    Bytes.unsafe_set s.on_stack id '\001';
    s.stack.(!sp) <- id;
    incr sp
  in
  let visit start =
    wp := 0;
    discover start;
    push_work start 0;
    while !wp > 0 do
      decr wp;
      let id = s.work_id.(!wp) and child = s.work_child.(!wp) in
      if s.off.(id) + child < s.off.(id + 1) then begin
        push_work id (child + 1);
        let succ = s.succ_flat.(s.off.(id) + child) in
        if s.index.(succ) = -1 then begin
          discover succ;
          push_work succ 0
        end
        else if Bytes.unsafe_get s.on_stack succ = '\001' then
          s.lowlink.(id) <- Int.min s.lowlink.(id) s.index.(succ)
      end
      else begin
        (* All children done: propagate lowlink to the parent and
           emit an SCC when this node is its root. *)
        (if !wp > 0 then
           let parent = s.work_id.(!wp - 1) in
           s.lowlink.(parent) <- Int.min s.lowlink.(parent) s.lowlink.(id));
        if s.lowlink.(id) = s.index.(id) then begin
          let cid = !scc_count in
          incr scc_count;
          let continue = ref true in
          while !continue do
            decr sp;
            let member = s.stack.(!sp) in
            Bytes.unsafe_set s.on_stack member '\000';
            s.scc.(member) <- cid;
            if member = id then continue := false
          done
        end
      end
    done
  in
  for id = 0 to n - 1 do
    if s.index.(id) = -1 then visit id
  done;
  let nscc = !scc_count in
  (* Bucket members by SCC id (counting sort), then run the DP over
     the condensation: reachable stub ranks per SCC.  Successor SCCs
     always carry smaller ids, so ascending order works. *)
  Array.fill s.scc_off 0 (nscc + 1) 0;
  for id = 0 to n - 1 do
    let c = s.scc.(id) in
    if c >= 0 then s.scc_off.(c + 1) <- s.scc_off.(c + 1) + 1
  done;
  for c = 1 to nscc do
    s.scc_off.(c) <- s.scc_off.(c) + s.scc_off.(c - 1)
  done;
  (* scc_off now holds start offsets; fill by shifting a cursor copy. *)
  Array.blit s.scc_off 0 s.cursor 0 (nscc + 1);
  for id = 0 to n - 1 do
    let c = s.scc.(id) in
    if c >= 0 then begin
      s.member_flat.(s.cursor.(c)) <- id;
      s.cursor.(c) <- s.cursor.(c) + 1
    end
  done;
  if Array.length s.reach < nscc then s.reach <- Array.make (Int.max 64 nscc) [||];
  let reach = s.reach in
  for c = 0 to nscc - 1 do
    let acc = ref [||] and own = ref 0 in
    for m = s.scc_off.(c) to s.scc_off.(c + 1) - 1 do
      let id = s.member_flat.(m) in
      for e = s.rank_off.(id) to s.rank_off.(id + 1) - 1 do
        s.own <- grown s.own !own 0;
        s.own.(!own) <- s.rank_flat.(e);
        incr own
      done;
      for e = s.off.(id) to s.off.(id + 1) - 1 do
        let succ_scc = s.scc.(s.succ_flat.(e)) in
        if succ_scc <> c && reach.(succ_scc) != !acc then
          acc := union !acc reach.(succ_scc) (Array.length reach.(succ_scc)) ~shared:true
      done
    done;
    reach.(c) <- union !acc s.own (sort_unique s.own !own) ~shared:false
  done;
  (* StubsFrom of each scion, as stub ranks in ascending target order:
     the stubs its target's component reaches. *)
  ensure_int_array (fun () -> s.target) (fun a -> s.target <- a) nscions;
  ensure_int_array (fun () -> s.from_off) (fun a -> s.from_off <- a) (nscions + 1);
  ensure_int_array (fun () -> s.to_off) (fun a -> s.to_off <- a) (nstubs + 1);
  ensure_int_array (fun () -> s.cursor) (fun a -> s.cursor <- a) (nstubs + 1);
  let len = ref 0 in
  for i = 0 to nscions - 1 do
    s.from_off.(i) <- !len;
    match Heap.dense_id heap scions.(i).Scion_table.key.Ref_key.target with
    | Some id ->
        s.target.(i) <- id;
        let ranks = reach.(s.scc.(id)) in
        for k = 0 to Array.length ranks - 1 do
          s.from_flat <- grown s.from_flat !len 0;
          s.from_flat.(!len) <- ranks.(k);
          incr len
        done
    | None -> s.target.(i) <- -1
  done;
  s.from_off.(nscions) <- !len;
  Array.fill reach 0 nscc [||];
  (* The root trace, over the same runs, kept as marks: objects by
     dense id, stubs by rank. *)
  Mark.clear s.root_marks;
  Mark.clear s.stub_marks;
  let tail = ref 0 in
  let reached id =
    if Mark.mark s.root_marks id then begin
      s.stack.(!tail) <- id;
      incr tail
    end
  in
  List.iter
    (fun oid -> match Heap.dense_id heap oid with Some id -> reached id | None -> ())
    (Heap.roots heap);
  let head = ref 0 in
  while !head < !tail do
    let id = s.stack.(!head) in
    incr head;
    for e = s.rank_off.(id) to s.rank_off.(id + 1) - 1 do
      ignore (Mark.mark s.stub_marks s.rank_flat.(e) : bool)
    done;
    for e = s.off.(id) to s.off.(id + 1) - 1 do
      reached s.succ_flat.(e)
    done
  done;
  let root_reached i = s.target.(i) >= 0 && Mark.is_marked s.root_marks s.target.(i) in
  (* ScionsTo of each stub, as scion ranks: bucketed by stub in scion
     order, so each bucket ascends. *)
  Array.fill s.to_off 0 (nstubs + 1) 0;
  for m = 0 to !len - 1 do
    let j = s.from_flat.(m) in
    s.to_off.(j + 1) <- s.to_off.(j + 1) + 1
  done;
  for j = 1 to nstubs do
    s.to_off.(j) <- s.to_off.(j) + s.to_off.(j - 1)
  done;
  ensure_int_array (fun () -> s.to_flat) (fun a -> s.to_flat <- a) !len;
  Array.blit s.to_off 0 s.cursor 0 (nstubs + 1);
  for i = 0 to nscions - 1 do
    for m = s.from_off.(i) to s.from_off.(i + 1) - 1 do
      let j = s.from_flat.(m) in
      s.to_flat.(s.cursor.(j)) <- i;
      s.cursor.(j) <- s.cursor.(j) + 1
    done
  done;
  (* The bytes, in {!Summary}'s layout, indexed as they are written. *)
  let scion_at = Array.make nscions 0 and scion_flag = Array.make nscions 0 in
  let stub_at = Array.make nstubs 0 in
  let items = 4 + (6 * nscions) + (4 * nstubs) + (5 * !len) in
  let bytes =
    N.encode_shape
      (fun snk () ->
        N.packed snk items;
        N.raw snk (Proc_id.to_int me);
        N.raw snk now;
        N.raw snk nscions;
        for i = 0 to nscions - 1 do
          let e = scions.(i) in
          scion_at.(i) <- N.offset snk;
          Ref_key.emit snk e.Scion_table.key;
          N.raw snk e.Scion_table.ic;
          N.raw snk (s.from_off.(i + 1) - s.from_off.(i));
          for m = s.from_off.(i) to s.from_off.(i + 1) - 1 do
            Oid.emit snk stubs.(s.from_flat.(m)).Stub_table.target
          done;
          scion_flag.(i) <- N.offset snk;
          N.raw snk ((2 * e.Scion_table.last_invoked) + Bool.to_int (root_reached i))
        done;
        N.raw snk nstubs;
        for j = 0 to nstubs - 1 do
          let e = stubs.(j) in
          stub_at.(j) <- N.offset snk;
          Oid.emit snk e.Stub_table.target;
          N.raw snk ((2 * e.Stub_table.ic) + Bool.to_int (Mark.is_marked s.stub_marks j));
          N.raw snk (s.to_off.(j + 1) - s.to_off.(j));
          for m = s.to_off.(j) to s.to_off.(j + 1) - 1 do
            Ref_key.emit snk scions.(s.to_flat.(m)).Scion_table.key
          done
        done)
      ()
  in
  Summary.indexed ~proc:me ~taken_at:now ~scion_at ~scion_flag ~stub_at bytes
