(* The benchmark's own arithmetic: percentiles under the ten-beyond
   rule, geometric mean, hit/miss classification, failure counting, the
   fastest-half selection, the host factor and span self time. *)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))
let some_float = Alcotest.(option (pair (float 0.0) int))

let percentile_rule () =
  (* p50 of 1..20 is the 10th sample with exactly ten above it *)
  Alcotest.check some_float "p50 n=20" (Some (10.0, 20)) (Pbstats.percentile ~pct:50 (ramp 20));
  Alcotest.check some_float "p50 n=19" None (Pbstats.percentile ~pct:50 (ramp 19));
  Alcotest.check some_float "p99 n=1000" (Some (990.0, 1000))
    (Pbstats.percentile ~pct:99 (ramp 1000));
  Alcotest.check some_float "p99 n=999" None (Pbstats.percentile ~pct:99 (ramp 999));
  Alcotest.check some_float "empty" None (Pbstats.percentile ~pct:50 [||]);
  (* order of the input does not matter, and the input is left alone *)
  let xs = Array.of_list (List.rev (Array.to_list (ramp 40))) in
  Alcotest.check some_float "unsorted" (Some (20.0, 40)) (Pbstats.percentile ~pct:50 xs);
  Alcotest.(check (float 0.0)) "input untouched" 40.0 xs.(0);
  (* p90 of 1..100 has exactly ten above it; of 1..99, nine *)
  Alcotest.check some_float "p90 n=100" (Some (90.0, 100)) (Pbstats.percentile ~pct:90 (ramp 100));
  Alcotest.check some_float "p90 n=99" None (Pbstats.percentile ~pct:90 (ramp 99))

let median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Pbstats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Pbstats.median [| 4.0; 1.0; 3.0; 2.0 |])

let geomean () =
  Alcotest.(check (float 1e-12)) "1,100" 10.0 (Pbstats.geomean [| 1.0; 100.0 |]);
  Alcotest.(check (float 1e-12)) "constant" 3.0 (Pbstats.geomean [| 3.0; 3.0; 3.0 |]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive sample")
    (fun () -> ignore (Pbstats.geomean [| 1.0; 0.0 |]))

let classify () =
  let c b a = Pbstats.classify ~compiles_before:b ~compiles_after:a in
  Alcotest.(check bool) "unchanged is a hit" true (c 3 3 = Pbstats.Hit);
  Alcotest.(check bool) "moved is a miss" true (c 3 4 = Pbstats.Miss)

let failures () =
  let f ok fb q = Pbstats.op_failed ~output_ok:ok ~fallbacks:fb ~quarantined:q in
  Alcotest.(check bool) "clean" false (f true 0 0);
  Alcotest.(check bool) "bad output" true (f false 0 0);
  Alcotest.(check bool) "fallback" true (f true 1 0);
  Alcotest.(check bool) "quarantined" true (f true 0 2);
  let ops = [ f true 0 0; f false 0 0; f true 1 0; f true 0 0 ] in
  let failed = List.length (List.filter Fun.id ops) in
  Alcotest.(check (float 0.0)) "ratio" 0.5
    (Pbstats.fail_ratio ~failed ~attempted:(List.length ops))

let fastest_half () =
  let a = List.init 9 (fun i -> (0, float_of_int (9 - i), Printf.sprintf "a%d" (9 - i))) in
  let runs = a @ [ (1, 9.0, "b9"); (1, 5.0, "b5"); (1, 6.0, "b6"); (2, 7.0, "c7") ] in
  (* a: 4 of 9 (half, rounded down), b: at least two, c: its only run;
     grouped by id, fastest first *)
  Alcotest.(check (list string)) "kept" [ "a1"; "a2"; "a3"; "a4"; "b5"; "b6"; "c7" ]
    (Pbstats.fastest_half runs)

let host_factor () =
  let f before after = Pbstats.host_factor ~reference_s:2.0 ~before ~after in
  Alcotest.(check (float 1e-12)) "at reference speed" 1.0 (f 2.0 2.0);
  Alcotest.(check (float 1e-12)) "mean of both probes" 1.5 (f 2.0 4.0);
  Alcotest.(check (float 1e-12)) "faster than reference" 0.75 (f 1.5 1.5)

let self_time () =
  let st children = Pbstats.self_time ~start:0L ~stop:100L children in
  Alcotest.(check int64) "no children" 100L (st []);
  Alcotest.(check int64) "one child" 75L (st [ (0L, 25L) ]);
  Alcotest.(check int64) "in sequence" 70L (st [ (10L, 20L); (50L, 70L) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "percentile ten-beyond rule" `Quick percentile_rule;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "geomean" `Quick geomean;
          Alcotest.test_case "hit/miss from compile counts" `Quick classify;
          Alcotest.test_case "failed ops and fail ratio" `Quick failures;
          Alcotest.test_case "fastest half of each unit" `Quick fastest_half;
          Alcotest.test_case "host factor from probes" `Quick host_factor;
          Alcotest.test_case "span self time" `Quick self_time;
        ] );
    ]
