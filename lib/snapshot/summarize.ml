open Adgc_algebra
open Adgc_rt
module Mark = Adgc_util.Dense.Mark
module N = Adgc_serial.Net_codec

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan SCC + DAG dynamic program over the heap's dense
   index.  The local graph is laid out in CSR form (one flat successor
   array + offsets), every per-node attribute is a plain int array
   indexed by dense id, and the whole scratch is one module-level pool
   reused across runs (the arrays are fully re-initialized for [0, n)
   each run).  What a run allocates is its data: each node's remote
   references and each component's reachable-stub set, the two
   tables' entries in key order, and the summary's bytes. *)

type scratch = {
  mutable index : int array; (* Tarjan discovery index, -1 = unvisited *)
  mutable lowlink : int array;
  mutable on_stack : Bytes.t;
  mutable scc : int array; (* node -> scc id, -1 = unassigned *)
  mutable off : int array; (* CSR: node -> start in succ_flat, length n+1 *)
  mutable succ_flat : int array; (* CSR: concatenated local successor ids *)
  mutable remote : Oid.t list array; (* node -> direct remote refs *)
  mutable stack : int array; (* Tarjan SCC stack *)
  mutable work_id : int array; (* explicit DFS stack: node... *)
  mutable work_child : int array; (* ...and its next-child cursor *)
  mutable scc_off : int array; (* scc -> start in member_flat *)
  mutable member_flat : int array; (* members bucketed by scc id *)
  mutable cursor : int array; (* bucket fill cursors: scc_off's, then to_off's *)
  mutable reach : Oid.Set.t array; (* scc -> remote references it reaches *)
  root_marks : Mark.t; (* objects reached from the roots *)
  (* Assembly: the tables' entries in key order, each scion's StubsFrom
     as stub ranks, each stub's ScionsTo as scion ranks. *)
  mutable scions : Scion_table.entry array;
  mutable stubs : Stub_table.entry array;
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
    remote = [||];
    stack = [||];
    work_id = [||];
    work_child = [||];
    scc_off = [||];
    member_flat = [||];
    cursor = [||];
    reach = [||];
    root_marks = Mark.create ();
    scions = [||];
    stubs = [||];
    from_off = [||];
    from_flat = [||];
    to_off = [||];
    to_flat = [||];
  }

let rec add_all set = function [] -> set | r :: rest -> add_all (Oid.Set.add r set) rest

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

(* The rank of [o] among [stubs.(lo)] .. [stubs.(hi - 1)], or -1. *)
let rec stub_rank (stubs : Stub_table.entry array) o lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = Oid.compare o stubs.(mid).Stub_table.target in
    if c = 0 then mid
    else if c < 0 then stub_rank stubs o lo mid
    else stub_rank stubs o (mid + 1) hi

let encode ~now (p : Process.t) =
  let heap = p.Process.heap in
  let me = p.Process.id in
  let n = Heap.dense_sync heap in
  let s = scratch in
  ensure_int_array (fun () -> s.index) (fun a -> s.index <- a) n;
  ensure_int_array (fun () -> s.lowlink) (fun a -> s.lowlink <- a) n;
  ensure_int_array (fun () -> s.scc) (fun a -> s.scc <- a) n;
  ensure_int_array (fun () -> s.off) (fun a -> s.off <- a) (n + 1);
  ensure_int_array (fun () -> s.stack) (fun a -> s.stack <- a) n;
  ensure_int_array (fun () -> s.work_id) (fun a -> s.work_id <- a) (n + 1);
  ensure_int_array (fun () -> s.work_child) (fun a -> s.work_child <- a) (n + 1);
  ensure_int_array (fun () -> s.scc_off) (fun a -> s.scc_off <- a) (n + 2);
  ensure_int_array (fun () -> s.member_flat) (fun a -> s.member_flat <- a) n;
  ensure_int_array (fun () -> s.cursor) (fun a -> s.cursor <- a) (n + 1);
  if Bytes.length s.on_stack < n then s.on_stack <- Bytes.make (Int.max 64 n) '\000';
  if Array.length s.remote < n then s.remote <- Array.make (Int.max 64 n) [];
  Array.fill s.index 0 n (-1);
  Array.fill s.scc 0 n (-1);
  Bytes.fill s.on_stack 0 n '\000';
  Array.fill s.remote 0 n [];
  (* CSR layout in one pass: iter_dense walks ids in ascending order,
     so successor runs land contiguously in [succ_flat]. *)
  let edge = ref 0 in
  let push_succ id =
    s.succ_flat <- grown s.succ_flat !edge 0;
    s.succ_flat.(!edge) <- id;
    incr edge
  in
  let last = ref 0 in
  Heap.iter_dense heap (fun id obj ->
      (* Dead ids between [last] and [id] keep empty successor runs. *)
      for i = !last to id do
        s.off.(i) <- !edge
      done;
      last := id + 1;
      Array.iter
        (function
          | None -> ()
          | Some target ->
              if Proc_id.equal (Oid.owner target) me then begin
                match Heap.dense_id heap target with
                | Some sid -> push_succ sid
                | None -> () (* dangling local reference *)
              end
              else s.remote.(id) <- target :: s.remote.(id))
        obj.Heap.fields);
  for i = !last to n do
    s.off.(i) <- !edge
  done;
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
    if s.index.(start) = -1 then begin
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
    end
  in
  Heap.iter_dense heap (fun id _ -> visit id);
  let nscc = !scc_count in
  (* Bucket members by SCC id (counting sort), then run the DP over
     the condensation: reachable remote references per SCC.  Successor
     SCCs always carry smaller ids, so ascending order works. *)
  Array.fill s.scc_off 0 (nscc + 1) 0;
  Heap.iter_dense heap (fun id _ -> s.scc_off.(s.scc.(id) + 1) <- s.scc_off.(s.scc.(id) + 1) + 1);
  for c = 1 to nscc do
    s.scc_off.(c) <- s.scc_off.(c) + s.scc_off.(c - 1)
  done;
  (* scc_off now holds start offsets; fill by shifting a cursor copy. *)
  Array.blit s.scc_off 0 s.cursor 0 (nscc + 1);
  Heap.iter_dense heap (fun id _ ->
      let c = s.scc.(id) in
      s.member_flat.(s.cursor.(c)) <- id;
      s.cursor.(c) <- s.cursor.(c) + 1);
  if Array.length s.reach < nscc then s.reach <- Array.make (Int.max 64 nscc) Oid.Set.empty;
  let reach = s.reach in
  for c = 0 to nscc - 1 do
    let acc = ref Oid.Set.empty in
    for m = s.scc_off.(c) to s.scc_off.(c + 1) - 1 do
      let id = s.member_flat.(m) in
      acc := add_all !acc s.remote.(id);
      for e = s.off.(id) to s.off.(id + 1) - 1 do
        let succ_scc = s.scc.(s.succ_flat.(e)) in
        if succ_scc <> c then acc := Oid.Set.union !acc reach.(succ_scc)
      done
    done;
    reach.(c) <- !acc
  done;
  (* The root trace, kept as marks over dense ids. *)
  Mark.clear s.root_marks;
  let root_remote = ref Oid.Set.empty in
  Heap.trace_dense heap ~from:(Heap.roots heap)
    ~visit_local:(fun id -> ignore (Mark.mark s.root_marks id : bool))
    ~visit_remote:(fun oid -> root_remote := Oid.Set.add oid !root_remote);
  let root_remote = !root_remote in
  let root_reached target =
    match Heap.dense_id heap target with
    | Some id -> Mark.is_marked s.root_marks id
    | None -> false
  in
  (* Both tables are walked in place, in key order, into the reused
     arrays. *)
  let nstubs = ref 0 in
  Stub_table.iter p.Process.stubs (fun e ->
      s.stubs <- grown s.stubs !nstubs e;
      s.stubs.(!nstubs) <- e;
      incr nstubs);
  let nstubs = !nstubs in
  let nscions = ref 0 in
  Scion_table.iter p.Process.scions (fun e ->
      s.scions <- grown s.scions !nscions e;
      s.scions.(!nscions) <- e;
      incr nscions);
  let nscions = !nscions in
  let stubs = s.stubs and scions = s.scions in
  ensure_int_array (fun () -> s.from_off) (fun a -> s.from_off <- a) (nscions + 1);
  ensure_int_array (fun () -> s.to_off) (fun a -> s.to_off <- a) (nstubs + 1);
  ensure_int_array (fun () -> s.cursor) (fun a -> s.cursor <- a) (nstubs + 1);
  (* StubsFrom of each scion, as stub ranks in ascending target order:
     the remote references its target's component reaches that have a
     stub. *)
  let len = ref 0 in
  let add_stub o =
    let j = stub_rank stubs o 0 nstubs in
    if j >= 0 then begin
      s.from_flat <- grown s.from_flat !len 0;
      s.from_flat.(!len) <- j;
      incr len
    end
  in
  for i = 0 to nscions - 1 do
    s.from_off.(i) <- !len;
    match Heap.dense_id heap scions.(i).Scion_table.key.Ref_key.target with
    | Some id -> Oid.Set.iter add_stub reach.(s.scc.(id))
    | None -> ()
  done;
  s.from_off.(nscions) <- !len;
  Array.fill reach 0 nscc Oid.Set.empty;
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
  (* The bytes, in {!Summary}'s layout. *)
  let write_scion snk i =
    let e = scions.(i) in
    N.record snk 5;
    Ref_key.emit snk e.Scion_table.key;
    N.int snk e.Scion_table.ic;
    N.list snk (s.from_off.(i + 1) - s.from_off.(i));
    for m = s.from_off.(i) to s.from_off.(i + 1) - 1 do
      Oid.emit snk stubs.(s.from_flat.(m)).Stub_table.target
    done;
    N.bool snk (root_reached e.Scion_table.key.Ref_key.target);
    N.int snk e.Scion_table.last_invoked
  in
  let write_stub snk j =
    let e = stubs.(j) in
    N.record snk 4;
    Oid.emit snk e.Stub_table.target;
    N.int snk e.Stub_table.ic;
    N.list snk (s.to_off.(j + 1) - s.to_off.(j));
    for m = s.to_off.(j) to s.to_off.(j + 1) - 1 do
      Ref_key.emit snk scions.(s.to_flat.(m)).Scion_table.key
    done;
    N.bool snk (Oid.Set.mem e.Stub_table.target root_remote)
  in
  N.encode_shape
    (fun snk () ->
      N.record snk 4;
      N.int snk (Proc_id.to_int me);
      N.int snk now;
      N.list snk nscions;
      for i = 0 to nscions - 1 do
        write_scion snk i
      done;
      N.list snk nstubs;
      for j = 0 to nstubs - 1 do
        write_stub snk j
      done)
    ()

let run ~now p =
  match Summary.of_bytes (encode ~now p) with
  | Some summary -> summary
  | None -> invalid_arg "Summarize.run: the summary's bytes do not index"
