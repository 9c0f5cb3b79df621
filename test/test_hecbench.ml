(* HeCBench suite integration tests: every app runs correctly under AOT
   and under the Proteus JIT on both simulated vendors, with the same
   output; the pressure/spill structure that drives the paper's
   per-benchmark stories is asserted explicitly. *)

open Proteus_gpu
open Proteus_hecbench

let check = Alcotest.check

let find = Suite.find

let test_suite_composition () =
  check Alcotest.int "six benchmarks" 6 (List.length Suite.apps);
  check Alcotest.(list string) "Table 1 order"
    [ "ADAM"; "RSBENCH"; "WSM5"; "FEY-KAC"; "LULESH"; "SW4CK" ]
    (List.map (fun (a : App.t) -> a.App.name) Suite.apps)

(* each app: AOT output is valid, and Proteus produces the same output *)
let agreement_test (a : App.t) vendor () =
  let aot = Harness.run a vendor Harness.AOT in
  Alcotest.(check bool) "AOT run valid" true aot.Harness.ok;
  let jit = Harness.run a vendor Harness.Proteus_cold in
  Alcotest.(check bool) "Proteus run valid" true jit.Harness.ok;
  check Alcotest.string "identical program output" aot.Harness.output jit.Harness.output;
  Alcotest.(check bool) "JIT overhead recorded" true (jit.Harness.jit_overhead_s > 0.0)

let test_lulesh_jitify_na () =
  let m = Harness.run (find "lulesh") Device.Nvidia Harness.Jitify_m in
  Alcotest.(check bool) "LULESH N/A under Jitify" true m.Harness.na

let test_jitify_amd_na () =
  let m = Harness.run (find "adam") Device.Amd Harness.Jitify_m in
  Alcotest.(check bool) "Jitify N/A on AMD" true m.Harness.na

let test_jitify_agrees_on_nvidia () =
  let a = find "adam" in
  let aot = Harness.run a Device.Nvidia Harness.AOT in
  let jf = Harness.run a Device.Nvidia Harness.Jitify_m in
  Alcotest.(check bool) "jitify ok" true jf.Harness.ok;
  check Alcotest.string "output agrees" aot.Harness.output jf.Harness.output

(* the per-benchmark register-pressure mechanics from the paper *)
let spills_of app vendor mode ksym =
  let profs = Harness.analyze (find app) vendor mode in
  (List.find (fun (p : Harness.kernel_profile) -> p.Harness.ksym = ksym) profs)
    .Harness.spill_slots

let test_rsbench_spill_story () =
  (* spills at AOT on BOTH vendors; gone with LB (Fig. 10) *)
  Alcotest.(check bool) "AMD AOT spills" true (spills_of "rsbench" Device.Amd Harness.M_aot "rs_xs" > 0);
  Alcotest.(check bool) "NVIDIA AOT spills" true
    (spills_of "rsbench" Device.Nvidia Harness.M_aot "rs_xs" > 0);
  check Alcotest.int "AMD LB clean" 0 (spills_of "rsbench" Device.Amd Harness.M_lb "rs_xs");
  check Alcotest.int "NVIDIA LB clean" 0 (spills_of "rsbench" Device.Nvidia Harness.M_lb "rs_xs")

let test_wsm5_spill_story () =
  (* AMD spills at AOT, LB fixes it; NVIDIA never spills (Fig. 9) *)
  Alcotest.(check bool) "AMD AOT spills" true
    (spills_of "wsm5" Device.Amd Harness.M_aot "wsm5" > 0);
  check Alcotest.int "AMD LB clean" 0 (spills_of "wsm5" Device.Amd Harness.M_lb "wsm5");
  check Alcotest.int "NVIDIA AOT clean" 0 (spills_of "wsm5" Device.Nvidia Harness.M_aot "wsm5")

let test_sw4ck_vendor_asymmetry () =
  (* all five kernels spill on AMD at AOT and are clean with LB; NVIDIA
     is (essentially) clean at AOT - the paper's Sec. 4.5 asymmetry *)
  List.iteri
    (fun i ksym ->
      Alcotest.(check bool) (Printf.sprintf "AMD k%d spills" (i + 1)) true
        (spills_of "sw4ck" Device.Amd Harness.M_aot ksym > 0);
      check Alcotest.int (Printf.sprintf "AMD k%d LB clean" (i + 1)) 0
        (spills_of "sw4ck" Device.Amd Harness.M_lb ksym);
      Alcotest.(check bool) (Printf.sprintf "NVIDIA k%d near-clean" (i + 1)) true
        (spills_of "sw4ck" Device.Nvidia Harness.M_aot ksym <= 4))
    (find "sw4ck").App.kernels

let test_adam_rcf_story () =
  (* RCF shrinks ADAM's per-item instruction count; LB does nothing *)
  let prof mode =
    List.hd (Harness.analyze (find "adam") Device.Nvidia mode)
  in
  let aot = prof Harness.M_aot and rcf = prof Harness.M_rcf and lb = prof Harness.M_lb in
  Alcotest.(check bool) "RCF reduces instructions" true
    (Counters.inst_per_warp rcf.Harness.counters
     < Counters.inst_per_warp aot.Harness.counters);
  check (Alcotest.float 0.01) "LB is a no-op for ADAM"
    (Counters.inst_per_warp aot.Harness.counters)
    (Counters.inst_per_warp lb.Harness.counters)

let test_lulesh_insensitive () =
  (* LULESH durations are essentially identical across all modes *)
  let dur mode =
    List.fold_left
      (fun acc (p : Harness.kernel_profile) -> acc +. p.Harness.duration_s)
      0.0
      (Harness.analyze (find "lulesh") Device.Amd mode)
  in
  let aot = dur Harness.M_aot and full = dur Harness.M_lb_rcf in
  Alcotest.(check bool)
    (Printf.sprintf "within 10%% (%.3g vs %.3g)" aot full)
    true
    (Float.abs (aot -. full) /. aot < 0.10)

(* Allocation gate for a cold Proteus run. Arenas are sized by use
   (they start at 64 KB and double), so one FEY-KAC run on AMD, with
   the executor on one domain, allocates fewer than [cold_major_words_max]
   words directly on the major heap; the two zero-filled 16 MB arenas
   (device and host) every run used to start from were 4M words alone.
   The first run compiles the executable, which [Harness] then caches;
   the second, measured, run starts from a fresh persistent cache.
   Direct major words are major minus promoted words, with a full major
   collection and minor collections around the run as in the serve
   gate (test_serve). *)
let cold_major_words_max = 1_000_000.0

let test_cold_run_allocation () =
  let config = { Proteus_core.Config.default with Proteus_core.Config.exec_domains = 1 } in
  let run () = Harness.run ~config (find "fey-kac") Device.Amd Harness.Proteus_cold in
  ignore (run ());
  Gc.full_major ();
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let m = run () in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  Alcotest.(check bool) "run valid" true m.Harness.ok;
  let direct (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
  let major = direct g1 -. direct g0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f direct major words < %.0f" major cold_major_words_max)
    true (major < cold_major_words_max)

let agreement_cases =
  List.concat_map
    (fun (a : App.t) ->
      List.map
        (fun vendor ->
          let vn = match vendor with Device.Amd -> "amd" | Device.Nvidia -> "nvidia" in
          Alcotest.test_case
            (Printf.sprintf "%s/%s AOT vs Proteus" a.App.name vn)
            `Slow (agreement_test a vendor))
        [ Device.Amd; Device.Nvidia ])
    Suite.apps

let () =
  Alcotest.run "hecbench"
    [
      ("suite", [ Alcotest.test_case "composition" `Quick test_suite_composition ]);
      ( "allocation",
        [ Alcotest.test_case "cold FEY-KAC run under 1M direct major words" `Quick
            test_cold_run_allocation ] );
      ("agreement", agreement_cases);
      ( "jitify",
        [
          Alcotest.test_case "LULESH N/A" `Quick test_lulesh_jitify_na;
          Alcotest.test_case "AMD N/A" `Quick test_jitify_amd_na;
          Alcotest.test_case "agrees on NVIDIA" `Quick test_jitify_agrees_on_nvidia;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "RSBENCH spills (both vendors)" `Slow test_rsbench_spill_story;
          Alcotest.test_case "WSM5 spills (AMD only)" `Slow test_wsm5_spill_story;
          Alcotest.test_case "SW4CK vendor asymmetry" `Slow test_sw4ck_vendor_asymmetry;
          Alcotest.test_case "ADAM is an RCF story" `Slow test_adam_rcf_story;
          Alcotest.test_case "LULESH is insensitive" `Slow test_lulesh_insensitive;
        ] );
    ]
