open Adgc_algebra
open Adgc_rt
module Mark = Adgc_util.Dense.Mark

(* Given [stubs_from] per scion target and the root trace, assemble
   the summary.  StubsFrom keeps only remote references that have a
   stub ([Oid.Set.filter] returns its argument when it drops nothing),
   and each stub's ScionsTo is built once, from the scions that list
   it. *)
let assemble ~now (p : Process.t) ~root_reached ~root_remote ~stubs_from_of_target =
  let stub_table = p.Process.stubs in
  let scions =
    List.map
      (fun (e : Scion_table.entry) ->
        let target = e.Scion_table.key.Ref_key.target in
        {
          Summary.key = e.Scion_table.key;
          scion_ic = e.Scion_table.ic;
          stubs_from = Oid.Set.filter (Stub_table.mem stub_table) (stubs_from_of_target target);
          target_locally_reachable = root_reached target;
          last_invoked = e.Scion_table.last_invoked;
        })
      (Scion_table.entries p.Process.scions)
  in
  let scions_to = Oid.Tbl.create 16 in
  List.iter
    (fun (s : Summary.scion_info) ->
      Oid.Set.iter
        (fun stub_target ->
          let prev = Option.value ~default:[] (Oid.Tbl.find_opt scions_to stub_target) in
          Oid.Tbl.replace scions_to stub_target (s.Summary.key :: prev))
        s.Summary.stubs_from)
    scions;
  let stubs =
    List.map
      (fun (e : Stub_table.entry) ->
        let target = e.Stub_table.target in
        {
          Summary.target;
          stub_ic = e.Stub_table.ic;
          scions_to =
            (match Oid.Tbl.find_opt scions_to target with
            | Some keys -> Ref_key.Set.of_list keys
            | None -> Ref_key.Set.empty);
          local_reach = Oid.Set.mem target root_remote;
        })
      (Stub_table.entries stub_table)
  in
  Summary.make ~proc:p.Process.id ~taken_at:now ~scions ~stubs

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan SCC + DAG dynamic program over the heap's dense
   index.  The local graph is laid out in CSR form (one flat successor
   array + offsets), every per-node attribute is a plain int array
   indexed by dense id, and the whole scratch is one module-level pool
   reused across runs (the arrays are fully re-initialized for [0, n)
   each run), so steady-state summarization allocates only at the
   Summary boundary. *)

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
  root_marks : Mark.t; (* objects reached from the roots *)
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
    root_marks = Mark.create ();
  }

let rec add_all set = function [] -> set | r :: rest -> add_all (Oid.Set.add r set) rest

let ensure_int_array get set n =
  if Array.length (get ()) < n then set (Array.make (Int.max 64 n) 0)

let run ~now (p : Process.t) =
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
    if !edge >= Array.length s.succ_flat then begin
      let bigger = Array.make (Int.max 256 (2 * Array.length s.succ_flat)) 0 in
      Array.blit s.succ_flat 0 bigger 0 (Array.length s.succ_flat);
      s.succ_flat <- bigger
    end;
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
  (* scc_off now holds start offsets; fill and restore in one pass by
     shifting a cursor copy. *)
  let cursor = Array.sub s.scc_off 0 (nscc + 1) in
  Heap.iter_dense heap (fun id _ ->
      let c = s.scc.(id) in
      s.member_flat.(cursor.(c)) <- id;
      cursor.(c) <- cursor.(c) + 1);
  let reach = Array.make (Int.max nscc 1) Oid.Set.empty in
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
  let root_reached target =
    match Heap.dense_id heap target with
    | Some id -> Mark.is_marked s.root_marks id
    | None -> false
  in
  let stubs_from_of_target target =
    match Heap.dense_id heap target with
    | Some id -> reach.(s.scc.(id))
    | None -> Oid.Set.empty
  in
  assemble ~now p ~root_reached ~root_remote:!root_remote ~stubs_from_of_target
