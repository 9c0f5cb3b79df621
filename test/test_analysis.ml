(* KernelSan tests: the bundled programs analyze clean; broken fixtures
   produce exactly the expected findings with source locations; the
   hardened IR verifier rejects corrupted modules; O3 on clean code stays clean
   (property); and the JIT verify gate turns injected IR corruption
   into counted AOT fallbacks. *)

open Proteus_ir
open Proteus_gpu
open Proteus_core
open Proteus_driver
open Proteus_analysis

let check = Alcotest.check

let compile name src =
  Proteus_frontend.Compile.compile_device_only ~name ~debug:true src

let bundled : (string * string) list =
  List.map
    (fun (a : Proteus_hecbench.App.t) ->
      (a.Proteus_hecbench.App.name, a.Proteus_hecbench.App.source))
    Proteus_hecbench.Suite.apps
  @ List.map
      (fun (e : Proteus_examples.Sources.t) ->
        (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
      Proteus_examples.Sources.all

(* ---- clean suite: no reportable findings on any bundled program ---- *)

let test_bundled_clean () =
  List.iter
    (fun (name, src) ->
      let findings = Kernelsan.reportable (Kernelsan.analyze_module (compile name src)) in
      check Alcotest.int
        (Printf.sprintf "%s reportable findings" name)
        0 (List.length findings))
    bundled

(* ---- broken fixtures: exact expected findings with locations ---- *)

let divergent_barrier_src =
  {|
__global__ void k(float *out) {
  int tid = threadIdx.x;
  if (tid < 16) {
    __syncthreads();
  }
  out[tid] = 1.0f;
}
|}

let race_src =
  {|
__shared__ int buf[256];
__global__ void k(int *out) {
  int tid = threadIdx.x;
  buf[tid] = tid;
  out[tid] = buf[tid + 1];
}
|}

let race_fixed_src =
  {|
__shared__ int buf[256];
__global__ void k(int *out) {
  int tid = threadIdx.x;
  buf[tid] = tid;
  __syncthreads();
  out[tid] = buf[tid + 1];
}
|}

let oob_src =
  {|
__shared__ float s[64];
__global__ void __launch_bounds__(64) k(float *out) {
  int tid = threadIdx.x;
  s[tid + 64] = 1.0f;
  __syncthreads();
  out[tid] = s[tid];
}
|}

let errors_of src = Kernelsan.errors (Kernelsan.analyze_module (compile "fixture" src))

let expect_single_error src kind loc msg_frag =
  match errors_of src with
  | [ fd ] ->
      check Alcotest.string "kind" (Finding.kind_to_string kind)
        (Finding.kind_to_string fd.Finding.kind);
      check Alcotest.(pair int int) "location" loc
        (match fd.Finding.loc with Some l -> l | None -> (0, 0));
      Alcotest.(check bool)
        (Printf.sprintf "message mentions %S (got %S)" msg_frag fd.Finding.message)
        true
        (let re = Str.regexp_string msg_frag in
         try
           ignore (Str.search_forward re fd.Finding.message 0);
           true
         with Not_found -> false)
  | l -> Alcotest.fail (Printf.sprintf "expected exactly 1 error, got %d" (List.length l))

let test_divergent_barrier () =
  expect_single_error divergent_barrier_src Finding.Barrier_divergence (5, 5)
    "barrier under thread-divergent control flow"

let test_race () =
  expect_single_error race_src Finding.Shared_race (5, 12)
    "read-write race between lanes of the same block on @buf"

let test_race_fixed_by_barrier () =
  check Alcotest.int "barrier fixes the race" 0 (List.length (errors_of race_fixed_src))

let test_out_of_bounds () =
  expect_single_error oob_src Finding.Out_of_bounds (5, 15)
    "index tid.0 + 64 is always out of bounds for @s (64 elements)"

(* conservative "maybe" verdicts are demoted to info, not hidden *)
let test_info_findings_under_all () =
  let findings = Kernelsan.analyze_module (compile "fixture" race_fixed_src) in
  check Alcotest.int "hidden by default" 0
    (List.length (Kernelsan.reportable findings));
  Alcotest.(check bool) "visible under --all" true
    (Kernelsan.reportable ~all:true findings <> [])

(* ---- hardened IR verifier: corrupted modules are rejected ---- *)

let assert_invalid what m =
  match Verify.verify_module m with
  | () -> Alcotest.fail (what ^ ": verifier accepted a corrupt module")
  | exception Verify.Invalid _ -> ()

let test_verify_rejects_undef_use () =
  (* unoptimized module has no phis, so corrupt_ir injects a use of an
     undefined register into the entry block *)
  let m = compile "corrupt" race_fixed_src in
  Verify.verify_module m;
  Jit.corrupt_ir m ~sym:"k";
  assert_invalid "undef use" m

let test_verify_rejects_phi_arity () =
  (* normalized module has phis (mem2reg); corrupt_ir drops an incoming
     edge, which the phi-arity check must catch *)
  let m = Kernelsan.normalize (compile "heat" (List.assoc "heat_stencil" bundled)) in
  Verify.verify_module m;
  let sym =
    match
      List.find_opt
        (fun (f : Ir.func) ->
          List.exists
            (fun (b : Ir.block) ->
              List.exists
                (function Ir.IPhi (_, _ :: _ :: _) -> true | _ -> false)
                b.Ir.insts)
            f.Ir.blocks)
        m.Ir.funcs
    with
    | Some f -> f.Ir.fname
    | None -> Alcotest.fail "no phi-bearing function in normalized module"
  in
  Jit.corrupt_ir m ~sym;
  assert_invalid "phi arity" m

let test_verify_rejects_nondominating_def () =
  (* hand-built: %r defined in one arm of a diamond, used in the join *)
  let m = Kernelsan.normalize (compile "dom" divergent_barrier_src) in
  let f = Ir.find_func m "k" in
  (match f.Ir.blocks with
  | b_entry :: b_mid :: _ ->
      let r = Ir.fresh_reg f (Types.TInt 32) in
      b_mid.Ir.insts <-
        b_mid.Ir.insts @ [ Ir.IBin (r, Ops.Add, Ir.Imm (Konst.ki32 1), Ir.Imm (Konst.ki32 2)) ];
      let dst = Ir.fresh_reg f (Types.TInt 32) in
      b_entry.Ir.insts <-
        b_entry.Ir.insts @ [ Ir.IBin (dst, Ops.Add, Ir.Reg r, Ir.Imm (Konst.ki32 0)) ]
  | _ -> Alcotest.fail "expected >= 2 blocks");
  assert_invalid "non-dominating def" m

(* ---- property: O3 on a clean module stays clean ---- *)

let prop_o3_stays_clean =
  QCheck.Test.make ~count:30 ~name:"O3 on clean bundled kernels stays clean"
    QCheck.(int_range 0 (List.length bundled - 1))
    (fun i ->
      let name, src = List.nth bundled i in
      let m = compile name src in
      ignore (Proteus_opt.Pipeline.optimize_o3 m);
      Kernelsan.reportable (Kernelsan.analyze_module m) = [])

(* ---- JIT verify gate end to end ---- *)

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

let run_daxpy config =
  let exe = Driver.compile ~name:"verify-gate" ~vendor:Device.Amd ~mode:Driver.Proteus daxpy_src in
  Driver.run ~config exe

let jit_stats r =
  match r.Driver.jit with Some s -> s | None -> Alcotest.fail "no jit stats"

let test_verify_gate_clean_passthrough () =
  (* gate on, no faults: kernels verify, compile, and run as usual *)
  let r = run_daxpy { Config.default with Config.verify_jit = true } in
  check Alcotest.string "output" aot_output r.Driver.output;
  let s = jit_stats r in
  check Alcotest.int "no rejections" 0 s.Stats.verify_rejections;
  check Alcotest.int "no fallbacks" 0 s.Stats.fallbacks;
  check Alcotest.int "compiled once" 1 s.Stats.compiles

let test_verify_gate_rejects_corruption () =
  (* gate on + silent specializer corruption: every launch falls back
     to the AOT kernel and the rejections are counted *)
  let config =
    {
      Config.default with
      Config.verify_jit = true;
      fault_plan = [ (Fault.Specialize_corrupt, Fault.Always) ];
    }
  in
  let r = run_daxpy config in
  check Alcotest.string "AOT-identical output" aot_output r.Driver.output;
  let s = jit_stats r in
  Alcotest.(check bool) "rejections counted" true (s.Stats.verify_rejections >= 1);
  Alcotest.(check bool) "fallbacks recorded" true (s.Stats.fallbacks >= 1);
  check Alcotest.int "all launches contained" s.Stats.jit_launches
    (s.Stats.fallbacks + s.Stats.quarantined_launches)

let test_verify_gate_off_by_default () =
  check Alcotest.bool "off by default" false Config.default.Config.verify_jit;
  (* boolean knob parsing, through the knob table's reader *)
  let module Knob = Proteus_support.Knob in
  List.iter
    (fun (v, expected) ->
      Unix.putenv "PROTEUS_VERIFY_STRICT" v;
      check Alcotest.bool v expected (Knob.get Knob.verify_strict))
    [ ("1", true); ("true", true); ("ON", true); ("0", false); ("no", false); ("", false) ]

(* ------------------------------------------------------------------ *)
(* Affine index forms: algebra, lane-shape classification, interval
   evaluation and guard narrowing (clamp) per comparison operator. *)

let itv = Alcotest.testable (Fmt.of_to_string (fun (i : Affine.itv) ->
    let s = function None -> "_" | Some v -> string_of_int v in
    Printf.sprintf "[%s,%s]" (s i.Affine.lo) (s i.Affine.hi)))
    (fun a b -> a = b)

let mul_exn a b =
  match Affine.mul a b with
  | Some t -> t
  | None -> Alcotest.fail "affine product unexpectedly exceeded size caps"

let test_affine_algebra () =
  let tid = Affine.of_atom (Affine.Tid 0) in
  let s = Affine.add (Affine.mul_const tid 2) (Affine.const 3) in
  (* 2*tid + 3 *)
  check Alcotest.string "pretty form" "2*tid.0 + 3" (Affine.to_string s);
  check Alcotest.bool "equal to itself" true (Affine.equal s s);
  check Alcotest.bool "sub gives const" true
    (Affine.to_const (Affine.sub s s) = Some 0);
  let tdep, unif = Affine.split s in
  check Alcotest.string "thread part" "2*tid.0" (Affine.to_string tdep);
  check Alcotest.string "uniform part" "3" (Affine.to_string unif)

let test_affine_shapes () =
  let tid = Affine.of_atom (Affine.Tid 0) in
  let bid = Affine.of_atom (Affine.Bid 0) in
  let ntid = Affine.of_atom (Affine.Ntid 0) in
  let shape t = Affine.shape_of (fst (Affine.split t)) in
  (match shape (Affine.const 7) with
  | Affine.Uniform -> ()
  | _ -> Alcotest.fail "const should be Uniform");
  (match shape (Affine.mul_const tid 4) with
  | Affine.Tid_only { axis = 0; stride = 4 } -> ()
  | _ -> Alcotest.fail "4*tid should be Tid_only stride 4");
  let gid = Affine.add tid (mul_exn bid ntid) in
  (match shape gid with
  | Affine.Gid { axis = 0; stride = 1 } -> ()
  | _ -> Alcotest.fail "tid + bid*ntid should be Gid stride 1");
  (match shape (Affine.mul_const bid 3) with
  | Affine.Block_uniform -> ()
  | _ -> Alcotest.fail "3*bid should be Block_uniform");
  match shape (mul_exn gid gid) with
  | Affine.Other -> ()
  | _ -> Alcotest.fail "gid*gid should be Other"

let test_affine_eval () =
  let tid = Affine.of_atom (Affine.Tid 0) in
  let env = function
    | Affine.Tid 0 -> Affine.range (Some 0) (Some 63)
    | _ -> Affine.top
  in
  (* 2*tid + 3 over tid in [0,63] *)
  let s = Affine.add (Affine.mul_const tid 2) (Affine.const 3) in
  check itv "2*tid+3" (Affine.range (Some 3) (Some 129)) (Affine.eval env s);
  (* negative stride flips the interval *)
  let n = Affine.mul_const tid (-1) in
  check itv "-tid" (Affine.range (Some (-63)) (Some 0)) (Affine.eval env n);
  (* unknown symbol -> top *)
  let sym = Affine.of_atom (Affine.Sym 9) in
  check itv "unknown sym" Affine.top (Affine.eval env sym)

(* ---- Normalize memo: generation-keyed invalidation ---------------- *)

(* The JIT normalizes the same physical module at two verify gates with
   an in-place O3 run in between (compile_specialization): the memo
   must not serve the pre-O3 clone to the post-O3 gate, or KernelSan
   would silently analyze stale pre-O3 IR and an Optimize-stage
   miscompile would pass verification. The source keeps a statically
   foldable loop that simplifycfg+mem2reg alone preserve but O3
   collapses, so stale and fresh clones are distinguishable by size. *)
let normalize_gen_src =
  {|
__global__ void k(int *out) {
  int acc = 0;
  for (int i = 0; i < 8; ++i) acc += i * i;
  out[threadIdx.x] = acc;
}
|}

let test_normalize_invalidation () =
  let m = compile "norm-gen" normalize_gen_src in
  let size mm = Proteus_opt.Pass.module_size mm in
  let c1 = Normalize.clone m in
  check Alcotest.bool "unmutated module hits the memo" true
    (c1 == Normalize.clone m);
  ignore (Proteus_opt.Pipeline.optimize_o3 m);
  let c2 = Normalize.clone m in
  check Alcotest.bool "in-place O3 invalidates the memo" true (not (c1 == c2));
  check Alcotest.bool "post-O3 analyses see post-O3 IR (loop folded)" true
    (size c2 < size c1);
  check Alcotest.int "memoized clone matches a fresh normalization"
    (size (Normalize.normalize_fresh m))
    (size c2);
  check Alcotest.bool "post-O3 module re-hits the memo" true
    (c2 == Normalize.clone m)

(* Same staleness hazard through the fault injector: corrupt_ir mutates
   blocks directly, and the verify gate's KernelSan must observe the
   damage rather than a cached clean clone. *)
let test_normalize_sees_corruption () =
  let m = compile "norm-corrupt" normalize_gen_src in
  let c1 = Normalize.clone m in
  Jit.corrupt_ir m ~sym:"k";
  let c2 = Normalize.clone m in
  check Alcotest.bool "corruption invalidates the memo" true (not (c1 == c2));
  assert_invalid "corrupted module behind the memo" m

let test_affine_clamp () =
  let open Proteus_ir.Ops in
  let t = Affine.top in
  check itv "x < 10" (Affine.range None (Some 9)) (Affine.clamp t CLt 10);
  check itv "x <= 10" (Affine.range None (Some 10)) (Affine.clamp t CLe 10);
  check itv "x > 4" (Affine.range (Some 5) None) (Affine.clamp t CGt 4);
  check itv "x >= 4" (Affine.range (Some 4) None) (Affine.clamp t CGe 4);
  check itv "x == 4" (Affine.exactly 4) (Affine.clamp t CEq 4);
  check itv "x != 4 learns nothing" t (Affine.clamp t CNe 4);
  (* clamp only ever narrows: a tighter existing bound is kept *)
  let narrow = Affine.range (Some 8) (Some 9) in
  check itv "no widening hi" narrow (Affine.clamp narrow CLt 100);
  check itv "no widening lo" narrow (Affine.clamp narrow CGe 0);
  (* guard narrowing composes: 0 <= x < 64 *)
  let g = Affine.clamp (Affine.clamp t CGe 0) CLt 64 in
  check itv "0 <= x < 64" (Affine.range (Some 0) (Some 63)) g

let () =
  Alcotest.run "analysis"
    [
      ( "clean",
        [
          Alcotest.test_case "bundled HeCBench + examples are clean" `Quick
            test_bundled_clean;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "divergent barrier" `Quick test_divergent_barrier;
          Alcotest.test_case "intra-phase shared race" `Quick test_race;
          Alcotest.test_case "barrier fixes the race" `Quick test_race_fixed_by_barrier;
          Alcotest.test_case "out-of-bounds shared access" `Quick test_out_of_bounds;
          Alcotest.test_case "info verdicts only under --all" `Quick
            test_info_findings_under_all;
        ] );
      ( "affine",
        [
          Alcotest.test_case "algebra and split" `Quick test_affine_algebra;
          Alcotest.test_case "lane shapes" `Quick test_affine_shapes;
          Alcotest.test_case "interval evaluation" `Quick test_affine_eval;
          Alcotest.test_case "guard narrowing (clamp)" `Quick test_affine_clamp;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "in-place mutation invalidates the memo" `Quick
            test_normalize_invalidation;
          Alcotest.test_case "fault-injected corruption is not masked" `Quick
            test_normalize_sees_corruption;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "rejects use of undefined register" `Quick
            test_verify_rejects_undef_use;
          Alcotest.test_case "rejects phi arity mismatch" `Quick
            test_verify_rejects_phi_arity;
          Alcotest.test_case "rejects non-dominating definition" `Quick
            test_verify_rejects_nondominating_def;
        ] );
      ( "property",
        [ Qseed.qtest prop_o3_stays_clean ] );
      ( "verify-gate",
        [
          Alcotest.test_case "clean kernels pass through" `Quick
            test_verify_gate_clean_passthrough;
          Alcotest.test_case "corruption rejected, AOT fallback" `Quick
            test_verify_gate_rejects_corruption;
          Alcotest.test_case "gate off by default, env parsing" `Quick
            test_verify_gate_off_by_default;
        ] );
    ]
