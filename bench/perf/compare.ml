type verdict = Improved | Unchanged | Regressed | Missing | New

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Missing -> "missing"
  | New -> "new"

(* The noise band is the widest of 10% of the baseline median, three
   sigmas of the noisier side, and a one-unit absolute floor so
   sub-unit wobble on tiny values never flags.  Only the relax factor
   varies between callers: it widens the Timing-class band, while
   deterministic series (ticks, messages, bytes) mean the same thing on
   every host. *)
let rel = 0.10
let stddev_mult = 3.0
let min_effect = 1.0

type finding = {
  name : string;
  verdict : verdict;
  base : Sample.t option;
  current : Sample.t option;
  ratio : float option;  (** current/baseline median *)
  slo_violated : bool;
  detail : string;
}

let finite f = Float.is_finite f

let band ~relax (base : Sample.t) (cur : Sample.t) =
  let noise = stddev_mult *. Float.max base.Sample.stddev cur.Sample.stddev in
  let raw = Float.max (rel *. Float.abs base.Sample.median) (Float.max noise min_effect) in
  match cur.Sample.klass with
  | Sample.Timing -> raw *. Float.max 1.0 relax
  | Sample.Deterministic -> raw

(* Positive effect = worse, whatever the sample's direction. *)
let effect_of (base : Sample.t) (cur : Sample.t) =
  let delta = cur.Sample.median -. base.Sample.median in
  match cur.Sample.direction with
  | Sample.Lower_better -> delta
  | Sample.Higher_better -> -.delta

let slo_of (cur : Sample.t) (base : Sample.t option) =
  match cur.Sample.slo with
  | Some _ as s -> s
  | None -> Option.bind base (fun (b : Sample.t) -> b.Sample.slo)

(* An SLO is an absolute ceiling in [Lower_better] terms: the sample
   breaches it on its own, baseline or not.  A non-finite median (a
   latency histogram ranked into its overflow bucket, or a detector
   that never concluded) is past every ceiling. *)
let slo_breach (cur : Sample.t) (base : Sample.t option) =
  match slo_of cur base with
  | Some ceiling when (not (finite cur.Sample.median)) || cur.Sample.median > ceiling ->
      Some (Printf.sprintf "SLO breach: %g %s > ceiling %g" cur.Sample.median cur.Sample.unit_ ceiling)
  | Some _ | None -> None

let judge_pair ~relax (base : Sample.t) (cur : Sample.t) =
  let slo = slo_breach cur (Some base) in
  let ratio =
    if finite base.Sample.median && Float.abs base.Sample.median > 0.0 then
      Some (cur.Sample.median /. base.Sample.median)
    else None
  in
  if not (finite base.Sample.median && finite cur.Sample.median) then
    (* A series that lost its value is broken, not noisy; one that
       never had one is left for the SLO alone to judge. *)
    let verdict, detail =
      match slo with
      | Some msg -> (Regressed, msg)
      | None when finite base.Sample.median ->
          (Regressed, "non-finite median against a finite baseline")
      | None -> (Unchanged, "non-finite baseline median; not compared")
    in
    {
      name = cur.Sample.name;
      verdict;
      base = Some base;
      current = Some cur;
      ratio = None;
      slo_violated = slo <> None;
      detail;
    }
  else
    let eff = effect_of base cur in
    let tol_band = band ~relax base cur in
    let verdict =
      if slo <> None then Regressed
      else if eff > tol_band then Regressed
      else if eff < -.tol_band then Improved
      else Unchanged
    in
    let detail =
      match slo with
      | Some msg -> msg
      | None ->
          Printf.sprintf "%+.3g %s vs tolerance %.3g" eff cur.Sample.unit_ tol_band
    in
    {
      name = cur.Sample.name;
      verdict;
      base = Some base;
      current = Some cur;
      ratio;
      slo_violated = slo <> None;
      detail;
    }

let compare_docs ?(relax = 1.0) ~(baseline : Results.t) ~(current : Results.t) () =
  let base_samples = Results.samples baseline in
  let cur_samples = Results.samples current in
  let base_by_name = List.map (fun (s : Sample.t) -> (s.Sample.name, s)) base_samples in
  let cur_names = List.map (fun (s : Sample.t) -> s.Sample.name) cur_samples in
  let paired =
    List.map
      (fun (cur : Sample.t) ->
        match List.assoc_opt cur.Sample.name base_by_name with
        | Some base -> judge_pair ~relax base cur
        | None ->
            let slo = slo_breach cur None in
            {
              name = cur.Sample.name;
              verdict = (if slo = None then New else Regressed);
              base = None;
              current = Some cur;
              ratio = None;
              slo_violated = slo <> None;
              detail = Option.value slo ~default:"no baseline entry";
            })
      cur_samples
  in
  let missing =
    List.filter_map
      (fun (s : Sample.t) ->
        if List.mem s.Sample.name cur_names then None
        else
          Some
            {
              name = s.Sample.name;
              verdict = Missing;
              base = Some s;
              current = None;
              ratio = None;
              slo_violated = false;
              detail = "present in baseline, absent from current run";
            })
      base_samples
  in
  List.sort (fun a b -> String.compare a.name b.name) (paired @ missing)

let regressions findings =
  List.filter (fun f -> f.verdict = Regressed || f.slo_violated) findings

let tally findings =
  List.map
    (fun v -> (v, List.length (List.filter (fun f -> f.verdict = v) findings)))
    [ Improved; Unchanged; Regressed; Missing; New ]

(* 0 clean, 1 gated failure; 2 (IO/usage) is the caller's to raise. *)
let exit_code findings = if regressions findings = [] then 0 else 1

let promote ~baseline_path (current : Results.t) = Results.save baseline_path current
