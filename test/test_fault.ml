(* Fault-containment tests: deterministic fault injection at every JIT
   pipeline stage, AOT fallback correctness, kernel quarantine engage /
   backoff / lift, host-hook error containment, and persistent-cache
   integrity (truncation, garbage, bit flips, wrong versions, atomic
   writes, self-healing). *)

open Proteus_ir
open Proteus_backend
open Proteus_gpu
open Proteus_runtime
open Proteus_core
open Proteus_driver

let check = Alcotest.check

let daxpy_src =
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
  for (int r = 0; r < 6; r++) { daxpy<<<(n + 63) / 64, 64>>>(3.0, dx, dy, n); }
  cudaDeviceSynchronize();
  cudaMemcpyDtoH(hy, dy, bytes);
  double s = 0.0;
  for (int i = 0; i < n; i++) s += hy[i];
  printf("sum=%g\n", s);
  return 0;
}
|}

let aot_output = "sum=587776\n"

let tmpdir () =
  let d = Filename.temp_file "proteus-fault" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* entry files only: lock files ride along with every locked store *)
let cache_entries dir =
  List.filter
    (fun f ->
      (not (Filename.check_suffix f ".lock"))
      && not (Filename.check_suffix f ".tmp"))
    (Array.to_list (Sys.readdir dir))

let run_daxpy ?(vendor = Device.Amd) config =
  let exe = Driver.compile ~name:"daxpy-fault" ~vendor ~mode:Driver.Proteus daxpy_src in
  Driver.run ~config exe

let jit_stats r =
  match r.Driver.jit with Some s -> s | None -> Alcotest.fail "no jit stats"

let failure_count s stage =
  Option.value (Hashtbl.find_opt s.Stats.failures_by_stage stage) ~default:0

(* ---- Fault module unit semantics ---- *)

let test_trigger_parsing () =
  check Alcotest.bool "always" true (Fault.trigger_of_string "always" = Ok Fault.Always);
  check Alcotest.bool "off" true (Fault.trigger_of_string "off" = Ok Fault.Off);
  check Alcotest.bool "nth" true (Fault.trigger_of_string "nth:3" = Ok (Fault.Nth 3));
  check Alcotest.bool "every" true (Fault.trigger_of_string "every:2" = Ok (Fault.Every 2));
  check Alcotest.bool "case/space" true
    (Fault.trigger_of_string " ALWAYS " = Ok Fault.Always);
  (match Fault.trigger_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus trigger accepted");
  match Fault.trigger_of_string "nth:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nth:0 accepted"

let test_point_names_roundtrip () =
  List.iter
    (fun p ->
      check Alcotest.bool (Fault.point_name p) true
        (Fault.point_of_name (Fault.point_name p) = Some p))
    Fault.all_points;
  (* underscore form also accepted *)
  check Alcotest.bool "underscores" true
    (Fault.point_of_name "cache_read" = Some Fault.Cache_read);
  check Alcotest.bool "unknown" true (Fault.point_of_name "nonsense" = None)

let count_raises f n =
  let hits = ref 0 in
  for _ = 1 to n do
    try f () with Fault.Injected _ -> incr hits
  done;
  !hits

let test_trigger_semantics () =
  let always = Fault.of_plan [ (Fault.Decode, Fault.Always) ] in
  check Alcotest.int "always fires every call" 5
    (count_raises (fun () -> Fault.hit always Fault.Decode) 5);
  let nth = Fault.of_plan [ (Fault.Decode, Fault.Nth 2) ] in
  check Alcotest.int "nth fires exactly once" 1
    (count_raises (fun () -> Fault.hit nth Fault.Decode) 5);
  check Alcotest.int "nth fired on call 2" 1 (Fault.injected nth Fault.Decode);
  let every = Fault.of_plan [ (Fault.Optimize, Fault.Every 2) ] in
  check Alcotest.int "every:2 fires on 2,4,6" 3
    (count_raises (fun () -> Fault.hit every Fault.Optimize) 6);
  (* an unarmed point never fires, but calls are counted *)
  check Alcotest.int "unarmed silent" 0
    (count_raises (fun () -> Fault.hit every Fault.Decode) 4);
  check Alcotest.int "calls counted" 4 (Fault.calls every Fault.Decode)

(* Every point has a slot of its own: a call to one point counts on
   that point alone, whatever its place in [all_points], and an armed
   point fires only where it is armed. *)
let test_slots_per_point () =
  List.iteri
    (fun i p ->
      let t = Fault.of_plan [ (p, Fault.Always) ] in
      for _ = 1 to i + 1 do
        ignore (Fault.fires t p)
      done;
      List.iter
        (fun q ->
          let calls = if q == p then i + 1 else 0 in
          check Alcotest.int (Fault.point_name q ^ " calls") calls (Fault.calls t q);
          check Alcotest.int (Fault.point_name q ^ " injected") calls (Fault.injected t q))
        Fault.all_points;
      check Alcotest.int "total injected" (i + 1) (Fault.total_injected t);
      check Alcotest.string "armed plan" (Fault.point_name p ^ "=always") (Fault.to_string t))
    Fault.all_points

let test_plan_of_string () =
  (match Fault.plan_of_string "decode=always, cache-read=nth:2" with
  | Ok [ (Fault.Decode, Fault.Always); (Fault.Cache_read, Fault.Nth 2) ] -> ()
  | Ok _ -> Alcotest.fail "wrong plan"
  | Error e -> Alcotest.fail e);
  (match Fault.plan_of_string "bogus=always" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown point accepted");
  match Fault.plan_of_string "decode" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing trigger accepted"

let test_env_plan () =
  let before = Proteus_support.Knob.rejections () in
  Unix.putenv "PROTEUS_FAULT_DECODE" "every:2";
  Unix.putenv "PROTEUS_FAULT_CACHE_WRITE" "garbage-value";
  let f = Fault.of_env ~base:[ (Fault.Codegen, Fault.Always) ] () in
  Unix.putenv "PROTEUS_FAULT_DECODE" "off";
  Unix.putenv "PROTEUS_FAULT_CACHE_WRITE" "off";
  check Alcotest.int "env decode armed (every:2 fires 1 of 2)" 1
    (count_raises (fun () -> Fault.hit f Fault.Decode) 2);
  (* malformed env value falls back to off and is counted, runtime keeps going *)
  check Alcotest.int "malformed env ignored" 0
    (count_raises (fun () -> Fault.hit f Fault.Cache_write) 3);
  check Alcotest.int "malformed env counted" 1 (Proteus_support.Knob.rejections () - before);
  check Alcotest.int "programmatic base retained" 2
    (count_raises (fun () -> Fault.hit f Fault.Codegen) 2)

(* ---- per-stage containment: every injection point falls back to the
   AOT kernel with identical output ---- *)

(* The verify point only exists when the JIT verify gate is on, and
   specialize-corrupt is a silent IR corruption that the gate (not the
   injection site) detects - so its failures land on the verify stage. *)
let fault_config point =
  let base = { Config.default with Config.fault_plan = [ (point, Fault.Always) ] } in
  match point with
  | Fault.Verify | Fault.Specialize_corrupt -> { base with Config.verify_jit = true }
  | _ -> base

let failure_stage_of_point = function
  | Fault.Specialize_corrupt -> "verify"
  (* cache-lock fires inside the cache lookup, so it surfaces as a
     cache-read failure *)
  | Fault.Cache_lock -> "cache-read"
  | p -> Fault.point_name p

(* disk-full is absorbed by dropping the persistent tier, not by the
   AOT fallback path; it gets a dedicated test below *)
let fallback_points = List.filter (fun p -> p <> Fault.Disk_full) Fault.all_points

let containment_test point () =
  let r = run_daxpy (fault_config point) in
  check Alcotest.int "exit code" 0 r.Driver.exit_code;
  check Alcotest.string "AOT-identical output" aot_output r.Driver.output;
  let s = jit_stats r in
  Alcotest.(check bool) "fallbacks recorded" true (s.Stats.fallbacks >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "failure counted at stage %s" (failure_stage_of_point point))
    true
    (failure_count s (failure_stage_of_point point) >= 1);
  (match point with
  | Fault.Verify | Fault.Specialize_corrupt ->
      Alcotest.(check bool) "verify rejections counted" true
        (s.Stats.verify_rejections >= 1)
  | _ -> ());
  (* every launch completed without JIT code: fallback or quarantine *)
  check Alcotest.int "all launches contained" s.Stats.jit_launches
    (s.Stats.fallbacks + s.Stats.quarantined_launches)

let containment_nvidia_test () =
  let config =
    { Config.default with Config.fault_plan = [ (Fault.Fetch_bitcode, Fault.Always) ] }
  in
  let r = run_daxpy ~vendor:Device.Nvidia config in
  check Alcotest.string "NVIDIA AOT-identical output" aot_output r.Driver.output;
  Alcotest.(check bool) "fallbacks" true ((jit_stats r).Stats.fallbacks >= 1)

(* ---- quarantine policy ---- *)

let test_quarantine_engages () =
  let config =
    {
      Config.default with
      Config.fault_plan = [ (Fault.Decode, Fault.Always) ];
      quarantine_threshold = 2;
      quarantine_backoff = 3;
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output" aot_output r.Driver.output;
  let s = jit_stats r in
  (* L1, L2 fail -> quarantine; L3-L5 quarantined; L6 retries and fails *)
  check Alcotest.int "fallbacks" 3 s.Stats.fallbacks;
  check Alcotest.int "quarantined launches" 3 s.Stats.quarantined_launches;
  check Alcotest.int "quarantine events" 2 s.Stats.quarantine_events;
  check Alcotest.int "decode failures" 3 (failure_count s "decode");
  check Alcotest.int "retries allowed" 1 s.Stats.quarantine_retries

let test_quarantine_lifts_and_recovers () =
  (* fail only the first decode: quarantine engages, backoff expires,
     the retry succeeds and the kernel returns to full JIT service *)
  let config =
    {
      Config.default with
      Config.fault_plan = [ (Fault.Decode, Fault.Nth 1) ];
      quarantine_threshold = 1;
      quarantine_backoff = 2;
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "one contained failure" 1 s.Stats.fallbacks;
  check Alcotest.int "quarantine engaged once" 1 s.Stats.quarantine_events;
  check Alcotest.int "two launches served AOT under quarantine" 2
    s.Stats.quarantined_launches;
  check Alcotest.int "one retry" 1 s.Stats.quarantine_retries;
  check Alcotest.int "JIT recovered and compiled" 1 s.Stats.compiles;
  check Alcotest.int "later launches hit the memory cache" 2 s.Stats.mem_hits

let test_quarantine_permanent () =
  (* backoff 0 = never retry: one failure, all later launches AOT *)
  let config =
    {
      Config.default with
      Config.fault_plan = [ (Fault.Decode, Fault.Always) ];
      quarantine_threshold = 1;
      quarantine_backoff = 0;
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "single failure" 1 s.Stats.fallbacks;
  check Alcotest.int "rest quarantined" 5 s.Stats.quarantined_launches;
  check Alcotest.int "no retries" 0 s.Stats.quarantine_retries

let test_quarantine_disabled () =
  (* threshold 0: every launch keeps trying (and falling back) *)
  let config =
    {
      Config.default with
      Config.fault_plan = [ (Fault.Decode, Fault.Always) ];
      quarantine_threshold = 0;
    }
  in
  let r = run_daxpy config in
  let s = jit_stats r in
  check Alcotest.int "all launches fell back" 6 s.Stats.fallbacks;
  check Alcotest.int "never quarantined" 0 s.Stats.quarantined_launches

(* ---- disk-full degrade, transient retry ---- *)

let test_disk_full_degrades () =
  let dir = tmpdir () in
  let config =
    {
      Config.default with
      Config.persistent_dir = Some dir;
      Config.fault_plan = [ (Fault.Disk_full, Fault.Always) ];
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output with disk full" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "disk tier dropped once" 1 s.Stats.disk_degrades;
  check Alcotest.int "compile still succeeded" 1 s.Stats.compiles;
  check Alcotest.int "no fallbacks" 0 s.Stats.fallbacks;
  check Alcotest.int "nothing persisted" 0 (List.length (cache_entries dir));
  rm_rf dir

let test_transient_lock_retry_succeeds () =
  let config =
    { Config.default with Config.fault_plan = [ (Fault.Cache_lock, Fault.Nth 1) ] }
  in
  let r = run_daxpy config in
  check Alcotest.string "output" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "one retry" 1 s.Stats.retries;
  check Alcotest.int "retry recovered" 1 s.Stats.retry_successes;
  check Alcotest.int "no fallback" 0 s.Stats.fallbacks;
  check Alcotest.int "compiled once" 1 s.Stats.compiles

let test_transient_exhausts_to_fallback () =
  (* a persistent transient fault exhausts the retry budget, then the
     launch falls back like any other contained failure *)
  let config =
    {
      Config.default with
      Config.fault_plan = [ (Fault.Cache_lock, Fault.Always) ];
      quarantine_threshold = 0;
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "all launches fell back" 6 s.Stats.fallbacks;
  (* retry_max (default 2) retries per launch, none recovered *)
  check Alcotest.int "retries exhausted each launch" 12 s.Stats.retries;
  check Alcotest.int "no retry recovered" 0 s.Stats.retry_successes

(* A retried launch is still one launch: the kernel and key profiles
   that feed the tier-up gate and the adaptive SpecAdvisor threshold
   count it once. The first cache lookup fails transiently and the one
   launch of this program recovers on its retry. *)
let test_retry_counts_once () =
  let src = Str.global_replace (Str.regexp_string "r < 6") "r < 1" daxpy_src in
  let exe = Driver.compile ~name:"retry-once" ~vendor:Device.Amd ~mode:Driver.Proteus src in
  let config =
    { Config.default with Config.fault_plan = [ (Fault.Cache_lock, Fault.Nth 1) ] }
  in
  let s = jit_stats (Driver.run ~config exe) in
  check Alcotest.int "one launch" 1 s.Stats.jit_launches;
  check Alcotest.int "recovered on a retry" 1 s.Stats.retry_successes;
  let counts tbl = Hashtbl.fold (fun _ n acc -> !n :: acc) tbl [] in
  check Alcotest.(list int) "key launches" [ 1 ] (counts s.Stats.profiles);
  check Alcotest.(list int) "kernel launches" [ 1 ] (counts s.Stats.kernel_launches)

(* The same recovery under tiering: a cold key arms its tier-up only
   after tier_threshold real launches, so launches 1 and 2 are served
   tier-0, as without the fault. *)
let test_retry_keeps_tier_gate () =
  let config =
    {
      Config.default with
      Config.tier = true;
      tier_threshold = 2;
      fault_plan = [ (Fault.Cache_lock, Fault.Nth 1) ];
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "output" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "recovered on a retry" 1 s.Stats.retry_successes;
  check Alcotest.int "two launches served tier-0" 2 s.Stats.tier_launches;
  check Alcotest.int "one tier-up" 1 s.Stats.tierups

let test_env_fault_injection_end_to_end () =
  Unix.putenv "PROTEUS_FAULT_OPTIMIZE" "always";
  let r = run_daxpy Config.default in
  Unix.putenv "PROTEUS_FAULT_OPTIMIZE" "off";
  check Alcotest.string "output under env fault" aot_output r.Driver.output;
  Alcotest.(check bool) "optimize failures counted" true
    (failure_count (jit_stats r) "optimize" >= 1)

(* ---- stage budgets on the simulated clock ---- *)

let budget_config ms = { Config.default with Config.stage_deadline_ms = ms }

(* A budget no charging stage fits in: each compile overruns at the
   bitcode fetch, the same way every time, so every launch runs the AOT
   kernel, nothing retries, and quarantine engages after the default
   three strikes. *)
let test_tiny_budget_falls_back vendor () =
  let r = run_daxpy ~vendor (budget_config 1e-9) in
  check Alcotest.string "AOT-identical output" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "all launches contained" s.Stats.jit_launches
    (s.Stats.fallbacks + s.Stats.quarantined_launches);
  check Alcotest.int "no retries" 0 s.Stats.retries;
  check Alcotest.int "quarantine engaged" 1 s.Stats.quarantine_events;
  check Alcotest.int "three strikes" 3 s.Stats.fallbacks;
  check Alcotest.int "one overrun per fallback" 3 s.Stats.deadline_overruns;
  check Alcotest.int "overruns at the bitcode fetch" 3 (failure_count s "fetch-bitcode");
  check Alcotest.int "nothing compiled" 0 s.Stats.compiles

(* The run's simulated time and every printed counter but the
   wall-clock ones and the process-wide ones *)
let simulated_ledger (r : Driver.run_result) =
  let skip =
    [ "real-compile"; "advise-time"; "tv-p50"; "tv-p99"; "normalize-hits";
      "normalize-misses"; "env-rejections" ]
  in
  ( r.Driver.end_to_end_s,
    List.filter (fun (k, _) -> not (List.mem k skip)) (Stats.to_pairs (jit_stats r)) )

(* A budget of 0 is off, and one far above any stage's cost never
   trips: both runs read the default run's ledger. *)
let test_budget_off_or_ample vendor () =
  let ledger = Alcotest.(pair (float 0.0) (list (pair string string))) in
  let default = simulated_ledger (run_daxpy ~vendor Config.default) in
  check ledger "budget 0" default (simulated_ledger (run_daxpy ~vendor (budget_config 0.0)));
  check ledger "ample budget" default
    (simulated_ledger (run_daxpy ~vendor (budget_config 1e12)))

(* ---- host hook containment ---- *)

let host_hook_fixture () =
  let exe = Driver.compile ~name:"hook" ~vendor:Device.Amd ~mode:Driver.Proteus daxpy_src in
  let rt = Gpurt.create (Device.by_vendor Device.Amd) in
  let _lm = Gpurt.load_module rt exe.Driver.fatbin in
  let jt = Jit.create rt Device.Amd in
  let h = Hostexec.build_host_ctx rt exe.Driver.host in
  (jt, h)

let write_cstring (h : Hostexec.host_ctx) s =
  let addr = Gmem.alloc h.Hostexec.host_mem (String.length s + 1) in
  String.iteri
    (fun i c ->
      Gmem.write_u8 h.Hostexec.host_mem (Int64.add addr (Int64.of_int i)) (Char.code c))
    s;
  Gmem.write_u8 h.Hostexec.host_mem
    (Int64.add addr (Int64.of_int (String.length s)))
    0;
  addr

let test_host_hook_malformed_launch () =
  let jt, h = host_hook_fixture () in
  (* far too few arguments for __jit_launch_kernel *)
  let r = Jit.host_hook jt h Plugin.entry_point [ Konst.ki32 1 ] in
  check Alcotest.bool "handled, not raised" true (r = Some None);
  check Alcotest.int "counted" 1 jt.Jit.stats.Stats.host_hook_errors

let test_host_hook_unregistered_stub () =
  let jt, h = host_hook_fixture () in
  let mid = write_cstring h "some-module" in
  let args =
    [
      Konst.kint ~bits:64 mid;
      Konst.kint ~bits:64 0xDEAD_BEEFL (* stub never registered *);
      Konst.ki32 1 (* grid *);
      Konst.ki32 64 (* block *);
      Konst.ki32 0 (* shmem *);
      Konst.kf64 3.0 (* kernel arg *);
      Konst.kint ~bits:64 1L (* spec mask *);
    ]
  in
  let r = Jit.host_hook jt h Plugin.entry_point args in
  check Alcotest.bool "handled, not raised" true (r = Some None);
  check Alcotest.int "counted" 1 jt.Jit.stats.Stats.host_hook_errors;
  check Alcotest.int "no launch attempted" 0 jt.Jit.stats.Stats.fallbacks

(* ---- persistent cache integrity ---- *)

let dummy_obj () =
  { Mach.okind = Mach.VGcn; kernels = []; oglobals = []; sections = [ ("s", "payload") ] }

let spec_key i =
  Speckey.compute ~mid:"m" ~sym:(Printf.sprintf "k%d" i) ~spec_values:[]
    ~launch_bounds:None

let test_create_missing_parents () =
  let base = tmpdir () in
  let nested = Filename.concat (Filename.concat base "a") "b" in
  let c = Cachestore.create ~persistent_dir:nested () in
  Alcotest.(check bool) "nested dir created" true (Sys.is_directory nested);
  (* creating again over the existing chain is a no-op, not a crash *)
  let _c2 = Cachestore.create ~persistent_dir:nested () in
  ignore (Cachestore.insert c (spec_key 1) (dummy_obj ()));
  Alcotest.(check bool) "usable" true (Cachestore.persistent_size c > 0);
  Cachestore.clear_persistent c;
  Unix.rmdir nested;
  Unix.rmdir (Filename.concat base "a");
  Unix.rmdir base

let single_cache_file dir =
  match cache_entries dir with
  | [ f ] -> Filename.concat dir f
  | l -> Alcotest.fail (Printf.sprintf "expected one cache file, got %d" (List.length l))

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

(* corrupt the on-disk entry with [mangle], then check a fresh store
   reports a counted miss, deletes the file, and can re-insert *)
let corruption_case name mangle () =
  let dir = tmpdir () in
  let c1 = Cachestore.create ~persistent_dir:dir () in
  ignore (Cachestore.insert c1 (spec_key 1) (dummy_obj ()));
  let path = single_cache_file dir in
  write_file path (mangle (read_file path));
  let c2 = Cachestore.create ~persistent_dir:dir () in
  (match Cachestore.lookup c2 (spec_key 1) with
  | Cachestore.Miss -> ()
  | _ -> Alcotest.fail (name ^ ": corrupt entry must be a miss"));
  check Alcotest.int (name ^ ": corruption counted") 1 c2.Cachestore.corruptions;
  Alcotest.(check bool) (name ^ ": bad file deleted") false (Sys.file_exists path);
  (* the cache heals on the next insert *)
  ignore (Cachestore.insert c2 (spec_key 1) (dummy_obj ()));
  let c3 = Cachestore.create ~persistent_dir:dir () in
  (match Cachestore.lookup c3 (spec_key 1) with
  | Cachestore.Disk_hit _ -> ()
  | _ -> Alcotest.fail (name ^ ": healed entry must disk-hit"));
  rm_rf dir

let truncate_half s = String.sub s 0 (String.length s / 2)
let truncate_tail s = String.sub s 0 (String.length s - 3)
let garbage _ = "this is not a proteus cache entry"
let empty _ = ""

let flip_payload_byte s =
  let b = Bytes.of_string s in
  let i = String.length s - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let wrong_version s =
  let b = Bytes.of_string s in
  (* little-endian u32 version lives at offset 4 *)
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
  Bytes.to_string b

let test_unreadable_file () =
  if Unix.getuid () = 0 then () (* root ignores permission bits; nothing to test *)
  else begin
    let dir = tmpdir () in
    let c1 = Cachestore.create ~persistent_dir:dir () in
    ignore (Cachestore.insert c1 (spec_key 1) (dummy_obj ()));
    let path = single_cache_file dir in
    Unix.chmod path 0o000;
    let c2 = Cachestore.create ~persistent_dir:dir () in
    (match Cachestore.lookup c2 (spec_key 1) with
    | Cachestore.Miss -> ()
    | _ -> Alcotest.fail "unreadable entry must be a miss");
    check Alcotest.int "counted" 1 c2.Cachestore.corruptions;
    (try Unix.chmod path 0o644 with _ -> ());
    rm_rf dir
  end

let test_insert_atomicity () =
  let dir = tmpdir () in
  let c = Cachestore.create ~persistent_dir:dir () in
  for i = 1 to 5 do
    ignore (Cachestore.insert c (spec_key i) (dummy_obj ()))
  done;
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "no tmp residue (%s)" f)
        false
        (Filename.check_suffix f ".tmp"))
    (Sys.readdir dir);
  check Alcotest.int "five entries" 5 (List.length (cache_entries dir));
  rm_rf dir

let test_jit_self_heals_corrupt_cache () =
  (* end to end: corrupt the persistent entry between runs; the JIT
     recompiles (counted corruption), output stays correct, and the
     third run disk-hits the healed entry *)
  let dir = tmpdir () in
  let config = { Config.default with Config.persistent_dir = Some dir } in
  let exe = Driver.compile ~name:"heal" ~vendor:Device.Amd ~mode:Driver.Proteus daxpy_src in
  let r1 = Driver.run ~config exe in
  check Alcotest.int "cold compile" 1 (jit_stats r1).Stats.compiles;
  let path = single_cache_file dir in
  write_file path (truncate_half (read_file path));
  let r2 = Driver.run ~config exe in
  check Alcotest.string "output survives corruption" aot_output r2.Driver.output;
  let s2 = jit_stats r2 in
  check Alcotest.int "recompiled" 1 s2.Stats.compiles;
  check Alcotest.int "no disk hit" 0 s2.Stats.disk_hits;
  check Alcotest.int "corruption reported" 1 s2.Stats.cache_corruptions;
  check Alcotest.int "no fallback needed" 0 s2.Stats.fallbacks;
  let r3 = Driver.run ~config exe in
  let s3 = jit_stats r3 in
  check Alcotest.int "healed: warm disk hit" 1 s3.Stats.disk_hits;
  check Alcotest.int "healed: no compile" 0 s3.Stats.compiles;
  rm_rf dir

(* ---- acceptance: the whole HeCBench suite survives a fault at every
   stage with AOT-identical results ---- *)

let hecbench_fault_sweep () =
  let open Proteus_hecbench in
  List.iter
    (fun (a : App.t) ->
      let aot = Harness.run a Device.Amd Harness.AOT in
      List.iter
        (fun point ->
          let config = fault_config point in
          let m = Harness.run ~config a Device.Amd Harness.Proteus_cold in
          let tag = Printf.sprintf "%s/%s" a.App.name (Fault.point_name point) in
          Alcotest.(check bool) (tag ^ " completes") true m.Harness.ok;
          check Alcotest.string (tag ^ " AOT-identical") aot.Harness.output
            m.Harness.output;
          match m.Harness.stats with
          | Some s ->
              if point = Fault.Disk_full then
                (* a full disk is absorbed by the store, not failure *)
                Alcotest.(check bool) (tag ^ " degraded") true (s.Stats.disk_degrades >= 1)
              else begin
                Alcotest.(check bool) (tag ^ " contained") true
                  (Stats.failures_total s >= 1);
                match point with
                | Fault.Verify | Fault.Specialize_corrupt ->
                    Alcotest.(check bool) (tag ^ " verify-rejected") true
                      (s.Stats.verify_rejections >= 1)
                | _ -> ()
              end
          | None -> Alcotest.fail (tag ^ " missing stats"))
        Fault.all_points)
    Suite.apps

let () =
  Alcotest.run "fault"
    [
      ( "fault-unit",
        [
          Alcotest.test_case "trigger parsing" `Quick test_trigger_parsing;
          Alcotest.test_case "point names roundtrip" `Quick test_point_names_roundtrip;
          Alcotest.test_case "trigger semantics" `Quick test_trigger_semantics;
          Alcotest.test_case "one slot per point" `Quick test_slots_per_point;
          Alcotest.test_case "schedule parsing" `Quick test_plan_of_string;
          Alcotest.test_case "env plan layering" `Quick test_env_plan;
        ] );
      ( "containment",
        List.map
          (fun p ->
            Alcotest.test_case
              (Printf.sprintf "AOT fallback on %s failure" (Fault.point_name p))
              `Quick (containment_test p))
          fallback_points
        @ [ Alcotest.test_case "NVIDIA path too" `Quick containment_nvidia_test ] );
      ( "degrade-retry",
        [
          Alcotest.test_case "disk-full drops the persistent tier" `Quick
            test_disk_full_degrades;
          Alcotest.test_case "transient lock failure retries and recovers" `Quick
            test_transient_lock_retry_succeeds;
          Alcotest.test_case "exhausted retries fall back" `Quick
            test_transient_exhausts_to_fallback;
          Alcotest.test_case "a retried launch counts once" `Quick test_retry_counts_once;
          Alcotest.test_case "a retry does not arm the tier-up early" `Quick
            test_retry_keeps_tier_gate;
        ] );
      ( "budget",
        [
          Alcotest.test_case "tiny budget falls back, no retry (AMD)" `Quick
            (test_tiny_budget_falls_back Device.Amd);
          Alcotest.test_case "tiny budget falls back, no retry (NVIDIA)" `Quick
            (test_tiny_budget_falls_back Device.Nvidia);
          Alcotest.test_case "budget 0 or ample leaves the ledger alone (AMD)" `Quick
            (test_budget_off_or_ample Device.Amd);
          Alcotest.test_case "budget 0 or ample leaves the ledger alone (NVIDIA)" `Quick
            (test_budget_off_or_ample Device.Nvidia);
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "engages after N consecutive failures" `Quick
            test_quarantine_engages;
          Alcotest.test_case "lifts after backoff and recovers" `Quick
            test_quarantine_lifts_and_recovers;
          Alcotest.test_case "permanent when backoff=0" `Quick test_quarantine_permanent;
          Alcotest.test_case "disabled when threshold=0" `Quick test_quarantine_disabled;
          Alcotest.test_case "PROTEUS_FAULT_* env end to end" `Quick
            test_env_fault_injection_end_to_end;
        ] );
      ( "host-hook",
        [
          Alcotest.test_case "malformed launch contained" `Quick
            test_host_hook_malformed_launch;
          Alcotest.test_case "unregistered stub contained" `Quick
            test_host_hook_unregistered_stub;
        ] );
      ( "cache-integrity",
        [
          Alcotest.test_case "create with missing parents" `Quick
            test_create_missing_parents;
          Alcotest.test_case "truncated (half)" `Quick (corruption_case "half" truncate_half);
          Alcotest.test_case "truncated (tail)" `Quick (corruption_case "tail" truncate_tail);
          Alcotest.test_case "garbage bytes" `Quick (corruption_case "garbage" garbage);
          Alcotest.test_case "empty file" `Quick (corruption_case "empty" empty);
          Alcotest.test_case "payload bit flip" `Quick
            (corruption_case "bitflip" flip_payload_byte);
          Alcotest.test_case "wrong format version" `Quick
            (corruption_case "version" wrong_version);
          Alcotest.test_case "unreadable file" `Quick test_unreadable_file;
          Alcotest.test_case "atomic insert (no .tmp residue)" `Quick
            test_insert_atomicity;
          Alcotest.test_case "JIT self-heals corrupt entries" `Quick
            test_jit_self_heals_corrupt_cache;
        ] );
      ( "hecbench",
        [
          Alcotest.test_case "suite survives faults at every stage" `Quick
            hecbench_fault_sweep;
        ] );
    ]
