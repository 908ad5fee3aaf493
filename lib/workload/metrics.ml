open Adgc_rt

type sample = { time : int; objects : int; live : int; garbage : int }

let sample cluster =
  let objects = Cluster.total_objects cluster in
  let garbage = Cluster.garbage_count cluster in
  { time = Cluster.now cluster; objects; live = objects - garbage; garbage }

let pp_sample ppf s =
  Format.fprintf ppf "t=%d objects=%d live=%d garbage=%d" s.time s.objects s.live s.garbage

type sampler = { mutable acc : sample list; mutable handle : Scheduler.recurring option }

let stop_sampling t =
  match t.handle with
  | Some h ->
      Scheduler.cancel h;
      t.handle <- None
  | None -> ()

let sample_every cluster ~period =
  let t = { acc = []; handle = None } in
  let handle =
    Scheduler.every (Cluster.sched cluster) ~period (fun () -> t.acc <- sample cluster :: t.acc)
  in
  t.handle <- Some handle;
  (* Auto-detach at run end: the omniscient sample walks every heap,
     and a sampler leaked past teardown keeps doing that for the rest
     of a long bench process. *)
  Cluster.at_teardown cluster (fun () -> stop_sampling t);
  t

let samples t = List.rev t.acc
