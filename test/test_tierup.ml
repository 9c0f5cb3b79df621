(* Tiered-compilation tests: the PROTEUS_TIER_THRESHOLD launch-count
   gate, cold-launch latency (never block a launch on O3), hot-swap
   publication (generation bump + decoded-code invalidation), exact
   containment parity for failed background compiles, and the adaptive
   SpecAdvisor threshold that specializes statically-declined arguments
   once measured reuse exceeds break-even. *)

open Proteus_support
open Proteus_backend
open Proteus_gpu
open Proteus_core
open Proteus_driver
open Proteus_runtime

let check = Alcotest.check

let daxpy_src nlaunch =
  Printf.sprintf
    {|
__global__ __attribute__((annotate("jit", 1, 4)))
void daxpy(double a, double* x, double* y, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { y[i] = a * x[i] + y[i]; }
}
int main() {
  int n = 256;
  long bytes = n * 8;
  double* hx = (double*)malloc(bytes);
  double* hy = (double*)malloc(bytes);
  for (int i = 0; i < n; i++) { hx[i] = (double)i; hy[i] = 1.0; }
  double* dx = (double*)cudaMalloc(bytes);
  double* dy = (double*)cudaMalloc(bytes);
  cudaMemcpyHtoD(dx, hx, bytes);
  cudaMemcpyHtoD(dy, hy, bytes);
  for (int r = 0; r < %d; r++) { daxpy<<<(n + 63) / 64, 64>>>(3.0, dx, dy, n); }
  cudaDeviceSynchronize();
  cudaMemcpyDtoH(hy, dy, bytes);
  double s = 0.0;
  for (int i = 0; i < n; i++) s += hy[i];
  printf("sum=%%g\n", s);
  return 0;
}
|}
    nlaunch

let run_daxpy ?(vendor = Device.Amd) ?(nlaunch = 6) config =
  let exe =
    Driver.compile ~name:"daxpy-tier" ~vendor ~mode:Driver.Proteus
      (daxpy_src nlaunch)
  in
  Driver.run ~config exe

let jit_stats r =
  match r.Driver.jit with Some s -> s | None -> Alcotest.fail "no jit stats"

let failure_count s stage =
  Option.value (Hashtbl.find_opt s.Stats.failures_by_stage stage) ~default:0

let tier_config = { Config.default with Config.tier = true; tier_threshold = 2 }

(* ---- threshold gate + steady-state convergence ---- *)

(* With threshold 2 over 6 launches: launches 1-2 are served tier-0
   (the second one arms the background compile), the drain at launch 3
   publishes, launches 3-6 hit the swapped O3 entry in memory. *)
let test_threshold_gate () =
  let r_off = run_daxpy Config.default in
  let r_on = run_daxpy tier_config in
  check Alcotest.string "output unchanged by tiering" r_off.Driver.output
    r_on.Driver.output;
  let s = jit_stats r_on in
  check Alcotest.int "two launches served tier-0" 2 s.Stats.tier_launches;
  check Alcotest.int "one background compile published" 1 s.Stats.tierups;
  check Alcotest.int "exactly one compile total" 1 s.Stats.compiles;
  check Alcotest.int "launches 3-6 hit the swapped entry" 4 s.Stats.mem_hits;
  check Alcotest.int "no sync flight compile ran" 0 s.Stats.flight_leads;
  check Alcotest.int "no failures" 0 s.Stats.tierup_failures;
  Alcotest.(check bool) "swap latency recorded" true (Hist.count s.Stats.swap_hist = 1);
  Alcotest.(check bool) "background compile time recorded" true
    (s.Stats.tier_compile_s > 0.0)

(* A threshold the run never reaches compiles nothing at all, and the
   program still runs correctly on the tier-0 artifact. *)
let test_threshold_never_reached () =
  let config = { tier_config with Config.tier_threshold = 100 } in
  let r = run_daxpy config in
  check Alcotest.string "output" (run_daxpy Config.default).Driver.output
    r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "all launches tier-0" 6 s.Stats.tier_launches;
  check Alcotest.int "no compiles" 0 s.Stats.compiles;
  check Alcotest.int "no tierups" 0 s.Stats.tierups

(* ---- the headline property: a cold launch never pays for O3 ---- *)

let test_cold_launch_latency () =
  let s_off = jit_stats (run_daxpy Config.default) in
  let s_on = jit_stats (run_daxpy tier_config) in
  Alcotest.(check bool) "non-tiered first launch pays the compile" true
    (s_off.Stats.first_launch_s > 0.0);
  Alcotest.(check bool) "tiered first launch is near-AOT" true
    (s_on.Stats.first_launch_s < s_off.Stats.first_launch_s /. 10.0);
  Alcotest.(check bool) "total overhead drops off the critical path" true
    (s_on.Stats.jit_overhead_s < s_off.Stats.jit_overhead_s);
  (* the compile still happened - its cost just moved off-path *)
  check Alcotest.int "compile count unchanged" s_off.Stats.compiles
    s_on.Stats.compiles;
  Alcotest.(check bool) "steady-state overhead matches non-tiered" true
    (s_on.Stats.steady_launch_s <= s_off.Stats.steady_launch_s *. 1.5 +. 1e-9)

(* ---- hot-swap publication: generation bump + tier tag ---- *)

let tmpdir () =
  let d = Filename.temp_file "proteus-tier" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

let spec_key k =
  Speckey.compute ~mid:"tier" ~sym:(Printf.sprintf "k%d" k) ~spec_values:[]
    ~launch_bounds:None

let dummy_obj k =
  {
    Mach.okind = Mach.VGcn;
    kernels = [];
    oglobals = [];
    sections = [ ("s", Printf.sprintf "payload-%d-%s" k (String.make 64 'x')) ];
  }

let test_swap_generation_and_tier () =
  let dir = tmpdir () in
  let c = Cachestore.create ~persistent_dir:dir () in
  let e1 = Cachestore.insert ~tier:0 c (spec_key 1) (dummy_obj 1) in
  check Alcotest.int "placeholder tier recorded" 0 e1.Cachestore.tier;
  check Alcotest.int "first generation" 1 e1.Cachestore.generation;
  let e2 = Cachestore.swap ~tier:1 c (spec_key 1) (dummy_obj 2) in
  check Alcotest.int "swap publishes tier 1" 1 e2.Cachestore.tier;
  check Alcotest.int "swap bumps the generation" 2 e2.Cachestore.generation;
  (* the tier tag survives the disk frame (v3) across a restart *)
  let c2 = Cachestore.create ~persistent_dir:dir () in
  (match Cachestore.lookup c2 (spec_key 1) with
  | Cachestore.Disk_hit e ->
      check Alcotest.int "persisted tier" 1 e.Cachestore.tier;
      check Alcotest.int "persisted generation" 2 e.Cachestore.generation
  | _ -> Alcotest.fail "expected a disk hit");
  rm_rf dir

(* A published swap drops the per-symbol decoded program, so the next
   launch decodes the swapped-in code instead of running stale tcode. *)
let test_tcode_invalidation () =
  let rt = Gpurt.create Device.mi250x in
  let k =
    {
      Mach.sym = "swapped";
      blocks = [];
      params = [];
      arg_tys = [];
      vregs = 0;
      sregs = 0;
      frame = 0;
      spill_slots = 0;
      launch_bounds = None;
      max_pressure_v = 0;
      max_pressure_s = 0;
    }
  in
  (* populate the decoded-code cache directly, then invalidate *)
  let prog =
    {
      Tcode.tf = k;
      entry = 0;
      blocks = [||];
      ipdom = [||];
      sites = [||];
      has_atomics = false;
      iconsts = [||];
      fconsts = [||];
      syms = [||];
      states = Atomic.make [];
    }
  in
  Hashtbl.replace rt.Gpurt.tcodes "swapped" prog;
  Alcotest.(check bool) "decoded program present" true
    (Hashtbl.mem rt.Gpurt.tcodes "swapped");
  Gpurt.invalidate_tcode rt "swapped";
  Alcotest.(check bool) "decoded program dropped" false
    (Hashtbl.mem rt.Gpurt.tcodes "swapped");
  (* invalidating an absent symbol is a no-op *)
  Gpurt.invalidate_tcode rt "never-decoded"

(* ---- async-failure containment parity ---- *)

(* A background compile that fails must be contained exactly like a
   synchronous one - per-stage failure accounting, quarantine streak -
   except that no AOT fallback is counted: every launch it would have
   served already ran correctly on the tier-0 artifact. *)
let test_async_failure_quarantine_parity () =
  let config =
    {
      tier_config with
      Config.fault_plan = [ (Fault.Optimize, Fault.Always) ];
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output still correct" (run_daxpy Config.default).Driver.output
    r.Driver.output;
  let s = jit_stats r in
  Alcotest.(check bool) "background failures recorded" true
    (s.Stats.tierup_failures >= 1);
  check Alcotest.int "failures attributed to the optimize stage"
    s.Stats.tierup_failures (failure_count s "optimize");
  check Alcotest.int "no client-visible fallback" 0 s.Stats.fallbacks;
  check Alcotest.int "never published" 0 s.Stats.tierups;
  (* three consecutive background failures engage quarantine just like
     three synchronous ones (default threshold 3) *)
  check Alcotest.int "quarantine engaged" 1 s.Stats.quarantine_events;
  Alcotest.(check bool) "later launches served from quarantine" true
    (s.Stats.quarantined_launches >= 1)

(* A successful tier-up clears the failure streak: with the optimize
   fault firing only once, the retried background compile publishes
   and the kernel never reaches quarantine. *)
let test_async_failure_then_recovery () =
  let config =
    {
      tier_config with
      Config.fault_plan = [ (Fault.Optimize, Fault.Nth 1) ];
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output" (run_daxpy Config.default).Driver.output
    r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "one background failure" 1 s.Stats.tierup_failures;
  check Alcotest.int "second attempt published" 1 s.Stats.tierups;
  check Alcotest.int "no quarantine" 0 s.Stats.quarantine_events;
  check Alcotest.int "no fallback" 0 s.Stats.fallbacks

(* ---- adaptive SpecAdvisor threshold ---- *)

(* Find the static score of daxpy's trip-count argument (#4), then set
   the threshold just above it: the static model declines every
   argument. Without tiering that decision is final; with tiering the
   measured launch count drives the effective threshold below the
   score (at base * nominal / L for L launches), so the hot kernel's
   arguments get specialized after all. *)
let test_adaptive_threshold () =
  let m =
    Proteus_frontend.Compile.compile_device_only ~name:"daxpy-adapt" ~debug:true
      (daxpy_src 40)
  in
  let ki =
    match Proteus_analysis.Specadvisor.advise_kernel m "daxpy" with
    | Some ki -> ki
    | None -> Alcotest.fail "advisor returned nothing for daxpy"
  in
  let top_score =
    List.fold_left
      (fun acc (a : Proteus_analysis.Specadvisor.arg_impact) ->
        if a.Proteus_analysis.Specadvisor.index > 0
           && not a.Proteus_analysis.Specadvisor.is_ptr
        then max acc a.Proteus_analysis.Specadvisor.score
        else acc)
      0.0 ki.Proteus_analysis.Specadvisor.ranked
  in
  Alcotest.(check bool) "daxpy has a scorable argument" true (top_score > 0.0);
  (* statically declined: threshold 1.5x the best score *)
  let threshold = top_score *. 1.5 in
  let base =
    {
      Config.default with
      Config.spec_policy = Config.Spec_advise;
      spec_threshold = threshold;
    }
  in
  (* 40 launches: the effective threshold crosses below top_score at
     L > 15 (base * 10 / L < score), well inside the run *)
  let s_static = jit_stats (run_daxpy ~nlaunch:40 base) in
  let s_adapt =
    jit_stats
      (run_daxpy ~nlaunch:40
         { base with Config.tier = true; tier_threshold = 2 })
  in
  (* static: every annotated value skipped on every launch *)
  check Alcotest.int "static model skips everything" (40 * 2)
    s_static.Stats.spec_skipped_args;
  check Alcotest.int "static model compiles once" 1 s_static.Stats.compiles;
  (* adaptive: once reuse exceeds break-even the declined argument
     re-enters the key - fewer skips, a second (richer) spec key *)
  Alcotest.(check bool) "adaptive model specializes declined args" true
    (s_adapt.Stats.spec_skipped_args < 40 * 2);
  Alcotest.(check bool) "a second spec key appears" true
    (Stats.profiled_keys s_adapt >= 2)

let () =
  Alcotest.run "tierup"
    [
      ( "gate",
        [
          Alcotest.test_case "threshold gate + steady state" `Quick
            test_threshold_gate;
          Alcotest.test_case "unreached threshold stays tier-0" `Quick
            test_threshold_never_reached;
          Alcotest.test_case "cold launch never pays for O3" `Quick
            test_cold_launch_latency;
        ] );
      ( "swap",
        [
          Alcotest.test_case "generation bump + tier tag" `Quick
            test_swap_generation_and_tier;
          Alcotest.test_case "tcode invalidation" `Quick test_tcode_invalidation;
        ] );
      ( "containment",
        [
          Alcotest.test_case "async failure quarantine parity" `Quick
            test_async_failure_quarantine_parity;
          Alcotest.test_case "failure then recovery" `Quick
            test_async_failure_then_recovery;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "measured reuse lowers the threshold" `Quick
            test_adaptive_threshold;
        ] );
    ]
