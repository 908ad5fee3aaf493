(** The statistics-hardened baseline comparator.

    Series are paired by sample name across the whole document; each
    pair gets a verdict from a noise band, the widest of 10% of the
    baseline median, three stddevs of the noisier side and a one-unit
    floor, plus hard SLO ceilings for latency series that must never
    drift past an absolute bound regardless of the baseline.  A
    non-finite median is a broken series: it regresses against a
    finite baseline and breaches any SLO. *)

type verdict =
  | Improved  (** better than baseline beyond the noise band *)
  | Unchanged  (** within the noise band *)
  | Regressed  (** worse beyond the noise band, or an SLO breach *)
  | Missing  (** in the baseline, absent from the current run *)
  | New  (** in the current run, absent from the baseline *)

val verdict_to_string : verdict -> string

type finding = {
  name : string;
  verdict : verdict;
  base : Sample.t option;
  current : Sample.t option;
  ratio : float option;  (** current/baseline median when defined *)
  slo_violated : bool;
  detail : string;
}

val compare_docs :
  ?relax:float -> baseline:Results.t -> current:Results.t -> unit -> finding list
(** One finding per sample name seen on either side, sorted by name.
    [relax] (default 1) multiplies the band of [Timing] series only,
    for slow or 1-core runners; [Deterministic] series are never
    relaxed.
    [Missing]/[New] are informational (exit-clean); an SLO breach is
    [Regressed] even when the sample is [New]. *)

val regressions : finding list -> finding list
(** The findings that gate: [Regressed] verdicts and SLO breaches. *)

val tally : finding list -> (verdict * int) list

val exit_code : finding list -> int
(** 0 when {!regressions} is empty, 1 otherwise (2 — usage/IO — is
    the CLI's to raise). *)

val promote : baseline_path:string -> Results.t -> unit
(** Overwrite the checked-in baseline with the current document
    (canonical rendering, so [promote] then [check] is clean). *)
