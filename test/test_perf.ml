(* The perf harness: comparator verdicts pinned case by case, the
   noise model's properties under random jitter, the JSON codec
   roundtrip, and the histogram percentile API the detection section
   gates on. *)

module Sample = Adgc_perf.Sample
module Results = Adgc_perf.Results
module Compare = Adgc_perf.Compare
module Bench_detection = Adgc_bench.Bench_detection
module Stats = Adgc_util.Stats
module Json = Adgc_util.Json

let check = Alcotest.check

let sample ?(name = "s.series") ?(unit_ = "ms") ?(direction = Sample.Lower_better)
    ?(klass = Sample.Timing) ?slo ?(stddev = 0.0) median =
  {
    Sample.name;
    unit_;
    reps = 5;
    median;
    mean = median;
    stddev;
    min = median;
    p99 = median;
    direction;
    klass;
    slo;
    config_digest = "cfg";
  }

let doc ?(rev = "test") ?(smoke = true) samples =
  {
    Results.rev;
    smoke;
    host = { Results.cores = 1 };
    sections = [ ("t", samples) ];
  }

let verdict_t = Alcotest.testable (Fmt.of_to_string Compare.verdict_to_string) ( = )

let one_verdict ?relax ~baseline ~current () =
  match Compare.compare_docs ?relax ~baseline ~current () with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let judge ?relax base cur =
  (one_verdict ?relax ~baseline:(doc [ base ]) ~current:(doc [ cur ]) ()).Compare.verdict

(* --- pinned verdict classes ------------------------------------- *)

let test_verdicts () =
  check verdict_t "equal is unchanged" Compare.Unchanged (judge (sample 100.0) (sample 100.0));
  check verdict_t "within the relative band" Compare.Unchanged
    (judge (sample 100.0) (sample 105.0));
  check verdict_t "beyond the band regresses" Compare.Regressed
    (judge (sample 100.0) (sample 120.0));
  check verdict_t "beyond the band the other way improves" Compare.Improved
    (judge (sample 100.0) (sample 80.0));
  check verdict_t "higher-better flips the sign" Compare.Regressed
    (judge
       (sample ~direction:Sample.Higher_better 100.0)
       (sample ~direction:Sample.Higher_better 80.0));
  check verdict_t "higher-better improvement" Compare.Improved
    (judge
       (sample ~direction:Sample.Higher_better 100.0)
       (sample ~direction:Sample.Higher_better 120.0))

let test_min_effect_floor () =
  (* A 0.8-unit drift on a 1-unit series is an 80% regression by
     ratio, but below the absolute floor: tiny series never flag. *)
  check verdict_t "sub-floor drift is unchanged" Compare.Unchanged
    (judge (sample 1.0) (sample 1.8));
  check verdict_t "the floor is crossed at > 1 unit" Compare.Regressed
    (judge (sample 1.0) (sample 2.1))

let test_stddev_widens_band () =
  (* 3 x stddev 10 = 30 > the 20-unit drift that flagged at stddev 0. *)
  check verdict_t "noisy series tolerate more" Compare.Unchanged
    (judge (sample ~stddev:10.0 100.0) (sample 120.0));
  check verdict_t "noise on the current side counts too" Compare.Unchanged
    (judge (sample 100.0) (sample ~stddev:10.0 120.0))

let test_relax_timing_only () =
  check verdict_t "relax widens a timing series" Compare.Unchanged
    (judge ~relax:3.0 (sample 100.0) (sample 125.0));
  check verdict_t "deterministic series are never relaxed" Compare.Regressed
    (judge ~relax:3.0
       (sample ~klass:Sample.Deterministic 100.0)
       (sample ~klass:Sample.Deterministic 125.0))

let test_missing_and_new () =
  let base = doc [ sample ~name:"a" 1.0; sample ~name:"b" 2.0 ] in
  let cur = doc [ sample ~name:"b" 2.0; sample ~name:"c" 3.0 ] in
  let findings = Compare.compare_docs ~baseline:base ~current:cur () in
  let by_name n = List.find (fun f -> f.Compare.name = n) findings in
  check verdict_t "absent from current is missing" Compare.Missing (by_name "a").Compare.verdict;
  check verdict_t "paired is judged" Compare.Unchanged (by_name "b").Compare.verdict;
  check verdict_t "absent from baseline is new" Compare.New (by_name "c").Compare.verdict;
  check Alcotest.int "missing/new are informational" 0 (Compare.exit_code findings)

let test_slo_ceiling () =
  (* A breach gates even when the baseline agrees (both sides slow). *)
  check verdict_t "slo breach regresses" Compare.Regressed
    (judge (sample ~slo:50.0 60.0) (sample ~slo:50.0 60.0));
  (* ... and even when the series is new. *)
  let f =
    one_verdict ~baseline:(doc []) ~current:(doc [ sample ~slo:50.0 60.0 ]) ()
  in
  check verdict_t "new series with a breach regresses" Compare.Regressed f.Compare.verdict;
  check Alcotest.bool "flagged as slo" true f.Compare.slo_violated;
  (* The baseline's slo protects a current sample that lost its own. *)
  let base = sample ~slo:50.0 10.0 in
  let cur = { (sample 60.0) with Sample.slo = None } in
  let f = one_verdict ~baseline:(doc [ base ]) ~current:(doc [ cur ]) () in
  check Alcotest.bool "baseline slo inherited" true f.Compare.slo_violated;
  check verdict_t "under the ceiling is judged normally" Compare.Unchanged
    (judge (sample ~slo:50.0 40.0) (sample ~slo:50.0 42.0))

(* A latency percentile ranked into the histogram's overflow bucket is
   infinite, which the document writes as null and reads back as nan;
   a detection scenario that never concluded records nan directly.
   Either way the series lost its value, and the gate must say so. *)
let test_non_finite_median () =
  let det = sample ~klass:Sample.Deterministic ~unit_:"ticks" in
  check verdict_t "nan against a finite baseline regresses" Compare.Regressed
    (judge (det 64.0) (det Float.nan));
  check verdict_t "infinity against a finite baseline regresses" Compare.Regressed
    (judge (det 64.0) (det Float.infinity));
  check verdict_t "relax does not forgive a lost timing value" Compare.Regressed
    (judge ~relax:100.0 (sample 10.0) (sample Float.nan));
  check verdict_t "a baseline without a value is not compared" Compare.Unchanged
    (judge (det Float.nan) (det 64.0));
  match Scaffold.results_of_string (Scaffold.results_to_string (doc [ det Float.infinity ])) with
  | Error e -> Alcotest.failf "document does not roundtrip: %s" e
  | Ok current ->
      check verdict_t "an overflowed percentile regresses after the document roundtrip"
        Compare.Regressed
        (one_verdict ~baseline:(doc [ det 64.0 ]) ~current ()).Compare.verdict

let test_non_finite_breaches_slo () =
  let p99 = sample ~klass:Sample.Deterministic ~unit_:"ticks" ~slo:2048.0 in
  let f = one_verdict ~baseline:(doc [ p99 64.0 ]) ~current:(doc [ p99 Float.nan ]) () in
  check Alcotest.bool "a paired nan breaches the ceiling" true f.Compare.slo_violated;
  let f = one_verdict ~baseline:(doc []) ~current:(doc [ p99 Float.nan ]) () in
  check verdict_t "a new nan series regresses" Compare.Regressed f.Compare.verdict;
  check Alcotest.bool "on its ceiling" true f.Compare.slo_violated;
  (* A baseline that lost its own value fails its self-check. *)
  let lost = doc [ p99 Float.nan ] in
  check Alcotest.int "nan baseline self-check exits 1" 1
    (Compare.exit_code (Compare.compare_docs ~baseline:lost ~current:lost ()))

let test_exit_codes () =
  let clean =
    Compare.compare_docs ~baseline:(doc [ sample 100.0 ]) ~current:(doc [ sample 100.0 ]) ()
  in
  check Alcotest.int "clean run exits 0" 0 (Compare.exit_code clean);
  let bad =
    Compare.compare_docs ~baseline:(doc [ sample 100.0 ]) ~current:(doc [ sample 200.0 ]) ()
  in
  check Alcotest.int "regression exits 1" 1 (Compare.exit_code bad);
  check Alcotest.int "one gating finding" 1 (List.length (Compare.regressions bad))

(* --- JSON codec -------------------------------------------------- *)

let test_sample_roundtrip () =
  let s = sample ~name:"x.y" ~unit_:"ticks" ~klass:Sample.Deterministic ~slo:2048.0 64.0 in
  (match Sample.of_json (Sample.to_json s) with
  | Ok s' -> check Alcotest.bool "sample roundtrips" true (s = s')
  | Error e -> Alcotest.failf "sample does not roundtrip: %s" e);
  let no_slo = sample 1.5 in
  match Sample.of_json (Sample.to_json no_slo) with
  | Ok s' -> check Alcotest.bool "absent slo roundtrips" true (no_slo = s')
  | Error e -> Alcotest.failf "slo-less sample does not roundtrip: %s" e

let test_doc_roundtrip_and_determinism () =
  let d =
    doc
      [
        sample ~name:"b" 2.0;
        sample ~name:"a" ~klass:Sample.Deterministic 1.0;
        sample ~name:"c" ~slo:10.0 3.0;
      ]
  in
  match Scaffold.results_of_string (Scaffold.results_to_string d) with
  | Error e -> Alcotest.failf "document does not roundtrip: %s" e
  | Ok d' ->
      check Alcotest.bool "roundtrip normalizes to the same document" true
        (Results.normalize d = d');
      check Alcotest.string "rendering is canonical" (Scaffold.results_to_string d)
        (Scaffold.results_to_string d')

let test_fingerprint_blanks_timing () =
  let d1 = doc [ sample ~name:"t" 10.0; sample ~name:"d" ~klass:Sample.Deterministic 5.0 ] in
  let d2 = doc [ sample ~name:"t" 99.0; sample ~name:"d" ~klass:Sample.Deterministic 5.0 ] in
  let d3 = doc [ sample ~name:"t" 10.0; sample ~name:"d" ~klass:Sample.Deterministic 6.0 ] in
  check Alcotest.bool "timing values are blanked" true
    (Scaffold.fingerprint d1 = Scaffold.fingerprint d2);
  check Alcotest.bool "deterministic values are pinned" false
    (Scaffold.fingerprint d1 = Scaffold.fingerprint d3)

(* --- QCheck properties ------------------------------------------- *)

let pos_median = QCheck2.Gen.float_range 1.0 1000.0

(* Jitter within half the relative band never flags, either way. *)
let prop_jitter_stable =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"jitter within the band is unchanged" ~count:500
       QCheck2.Gen.(triple pos_median (float_range (-0.05) 0.05) bool)
       (fun (m, j, higher) ->
         let direction = if higher then Sample.Higher_better else Sample.Lower_better in
         let base = sample ~direction m in
         let cur = sample ~direction (m *. (1.0 +. j)) in
         judge base cur = Compare.Unchanged))

(* If a drift flags, every larger drift in the same direction flags. *)
let prop_effect_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"worse drift never un-flags" ~count:500
       QCheck2.Gen.(triple pos_median (float_range 0.0 1.0) (float_range 0.0 1.0))
       (fun (m, d1, extra) ->
         let base = sample m in
         let c1 = sample (m *. (1.0 +. d1)) in
         let c2 = sample (m *. (1.0 +. d1 +. extra)) in
         judge base c1 <> Compare.Regressed || judge base c2 = Compare.Regressed))

let gen_sample =
  let open QCheck2.Gen in
  let* i = int_range 0 9 in
  let* median = pos_median in
  let* stddev = float_range 0.0 10.0 in
  let* det = bool in
  let* higher = bool in
  let* with_slo = bool in
  let slo = if with_slo then Some (median +. 1.0) else None in
  return
    (sample
       ~name:(Printf.sprintf "series.%d" i)
       ~direction:(if higher then Sample.Higher_better else Sample.Lower_better)
       ~klass:(if det then Sample.Deterministic else Sample.Timing)
       ?slo ~stddev median)

let gen_doc =
  let open QCheck2.Gen in
  let* samples = list_size (int_range 0 8) gen_sample in
  (* Dedup by name: two samples with one name is not a well-formed
     document (the recorder keys by name). *)
  let dedup =
    List.fold_left
      (fun acc (s : Sample.t) ->
        if List.exists (fun (x : Sample.t) -> x.Sample.name = s.Sample.name) acc then acc
        else s :: acc)
      [] samples
  in
  return (doc dedup)

(* promote >> check is clean: the canonical rendering written by
   promote reloads into a document that self-compares Unchanged on
   every series (the acceptance contract for refreshing a baseline). *)
let prop_promote_then_check_clean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"promote then check is clean" ~count:100 gen_doc (fun d ->
         let path = Filename.temp_file "adgc_baseline" ".json" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             Compare.promote ~baseline_path:path d;
             match Results.load path with
             | Error e -> QCheck2.Test.fail_reportf "promoted baseline does not load: %s" e
             | Ok baseline ->
                 let findings = Compare.compare_docs ~baseline ~current:d () in
                 Compare.exit_code findings = 0
                 && List.for_all
                      (fun f -> f.Compare.verdict = Compare.Unchanged)
                      findings)))

(* --- histogram percentiles --------------------------------------- *)

(* Histograms are registered by their first observation, with the
   power-of-two buckets from 1 to 2^19. *)
let test_histogram_empty () =
  let stats = Stats.create () in
  check Alcotest.bool "unobserved name has no histogram" true
    (Stats.histogram_opt stats "nope" = None);
  check Alcotest.bool "and no percentiles" true
    (Bench_detection.percentiles ~ps:[ 50.0 ] stats "nope" = None)

let test_histogram_single_bucket () =
  let stats = Stats.create () in
  List.iter (fun v -> Stats.observe stats "h" v) [ 5.0; 6.0; 7.0; 8.0 ];
  let h = Option.get (Stats.histogram_opt stats "h") in
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%g is the bucket bound" p)
        8.0
        (Bench_detection.histogram_percentile h p))
    [ 1.0; 50.0; 99.0; 100.0 ]

let test_histogram_exact_ranks () =
  let stats = Stats.create () in
  (* One sample in bucket 1, two in bucket 2, one in bucket 4:
     nearest-rank percentiles land on known bucket bounds. *)
  List.iter (fun v -> Stats.observe stats "h" v) [ 0.5; 1.5; 2.0; 3.0 ];
  let h = Option.get (Stats.histogram_opt stats "h") in
  let p v = Bench_detection.histogram_percentile h v in
  check (Alcotest.float 0.0) "p25 -> first bucket" 1.0 (p 25.0);
  check (Alcotest.float 0.0) "p50 -> second bucket" 2.0 (p 50.0);
  check (Alcotest.float 0.0) "p75 -> second bucket" 2.0 (p 75.0);
  check (Alcotest.float 0.0) "p100 -> third bucket" 4.0 (p 100.0)

let test_histogram_overflow_saturates () =
  let stats = Stats.create () in
  Stats.observe stats "h" 0.5;
  Stats.observe stats "h" 1e9;
  Stats.observe stats "h" 1e9;
  let h = Option.get (Stats.histogram_opt stats "h") in
  check (Alcotest.float 0.0) "low rank still binned" 1.0
    (Bench_detection.histogram_percentile h 25.0);
  check Alcotest.bool "overflow rank is infinite" true
    (Bench_detection.histogram_percentile h 99.0 = Float.infinity);
  (* All-overflow: every percentile saturates. *)
  let stats2 = Stats.create () in
  Stats.observe stats2 "h" 1e9;
  let h2 = Option.get (Stats.histogram_opt stats2 "h") in
  check Alcotest.bool "saturated histogram pins to infinity" true
    (Bench_detection.histogram_percentile h2 1.0 = Float.infinity)

let test_export_percentiles () =
  let stats = Stats.create () in
  (* default power-of-two buckets: 3 -> bound 4, 100 -> bound 128 *)
  Stats.observe stats "dcda.detection_latency" 3.0;
  Stats.observe stats "dcda.detection_latency" 100.0;
  (match Bench_detection.percentiles ~ps:[ 50.0; 99.0 ] stats "dcda.detection_latency" with
  | Some [ (50.0, p50); (99.0, p99) ] ->
      check (Alcotest.float 0.0) "p50 snaps to a power of two" 4.0 p50;
      check (Alcotest.float 0.0) "p99 snaps to a power of two" 128.0 p99
  | Some l -> Alcotest.failf "unexpected percentile list of length %d" (List.length l)
  | None -> Alcotest.fail "histogram not found");
  check Alcotest.bool "unknown histogram is None" true
    (Bench_detection.percentiles ~ps:[ 50.0 ] stats "nope" = None)

let suite =
  ( "perf",
    [
      Alcotest.test_case "verdict classes" `Quick test_verdicts;
      Alcotest.test_case "min-effect floor" `Quick test_min_effect_floor;
      Alcotest.test_case "stddev widens the band" `Quick test_stddev_widens_band;
      Alcotest.test_case "relax is timing-only" `Quick test_relax_timing_only;
      Alcotest.test_case "missing and new are informational" `Quick test_missing_and_new;
      Alcotest.test_case "slo ceilings gate" `Quick test_slo_ceiling;
      Alcotest.test_case "non-finite median regresses" `Quick test_non_finite_median;
      Alcotest.test_case "non-finite median breaches the slo" `Quick
        test_non_finite_breaches_slo;
      Alcotest.test_case "exit codes" `Quick test_exit_codes;
      Alcotest.test_case "sample json roundtrip" `Quick test_sample_roundtrip;
      Alcotest.test_case "document roundtrip is canonical" `Quick
        test_doc_roundtrip_and_determinism;
      Alcotest.test_case "fingerprint blanks timing values" `Quick
        test_fingerprint_blanks_timing;
      prop_jitter_stable;
      prop_effect_monotone;
      prop_promote_then_check_clean;
      Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
      Alcotest.test_case "histogram: single bucket" `Quick test_histogram_single_bucket;
      Alcotest.test_case "histogram: exact ranks" `Quick test_histogram_exact_ranks;
      Alcotest.test_case "histogram: overflow saturates" `Quick
        test_histogram_overflow_saturates;
      Alcotest.test_case "export percentiles" `Quick test_export_percentiles;
    ] )
