(* TransVal test suite: qcheck properties of the canonicalizing term
   normalizer (idempotence, eval consistency, negation involution),
   cutpoint unit tests (diamond CFGs, bounded-unroll and summarized
   loops), the committed refuted corpus (every pair must be statically
   refuted with source provenance), the check_rewrite entry point, and
   the PROTEUS_VERIFY=2 JIT gate end to end (clean run proves both
   compile phases; an armed specialize-corrupt fault is statically
   refuted and degrades to a bit-identical AOT fallback). *)

open Proteus_ir
open Proteus_core
open Proteus_driver
module Tv = Proteus_analysis.Transval
module I = Tv.Internal

let check = Alcotest.check
let qtest = Qseed.qtest

(* ------------------------------------------------------------------ *)
(* Random term generation over the validator's term language.  Types
   are kept consistent (TInt 32 scalars, TBool guards) the way the
   symbolic evaluator itself builds terms.                             *)

let int_ops = [ Ops.Add; Ops.Sub; Ops.Mul; Ops.And; Ops.Or; Ops.Xor; Ops.SMin; Ops.SMax ]
let cmp_ops = [ Ops.CEq; Ops.CNe; Ops.CLt; Ops.CLe; Ops.CGt; Ops.CGe ]

let leaf_int =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun c -> I.raw (Tv.Const (Konst.ki32 c))) (int_range (-4) 4));
        (3, map (fun i -> I.raw (Tv.Param (i, Types.TInt 32))) (int_range 0 3));
        (2, oneofl [ I.raw (Tv.Query "tid.x"); I.raw (Tv.Query "ctaid.x") ]);
      ])

let rec gen_int fuel st =
  if fuel <= 0 then leaf_int st
  else
    QCheck.Gen.(
      frequency
        [
          (2, leaf_int);
          ( 4,
            map3
              (fun op a b -> I.raw (Tv.Bin (op, Types.TInt 32, [ a; b ])))
              (oneofl int_ops) (gen_int (fuel - 1)) (gen_int (fuel - 1)) );
          ( 2,
            map3
              (fun g a b -> I.raw (Tv.Merge [ (g, a); (I.raw (Tv.Not g), b) ]))
              (gen_bool (fuel - 1)) (gen_int (fuel - 1)) (gen_int (fuel - 1)) );
        ])
      st

and gen_bool fuel st =
  if fuel <= 0 then
    QCheck.Gen.(map (fun b -> I.raw (Tv.Const (Konst.kbool b))) bool) st
  else
    QCheck.Gen.(
      frequency
        [
          (1, map (fun b -> I.raw (Tv.Const (Konst.kbool b))) bool);
          ( 4,
            map3
              (fun op a b -> I.raw (Tv.Cmp (op, a, b)))
              (oneofl cmp_ops) (gen_int (fuel - 1)) (gen_int (fuel - 1)) );
          ( 3,
            map3
              (fun op a b -> I.raw (Tv.Bin (op, Types.TBool, [ a; b ])))
              (oneofl [ Ops.And; Ops.Or ]) (gen_bool (fuel - 1))
              (gen_bool (fuel - 1)) );
          (2, map (fun a -> I.raw (Tv.Not a)) (gen_bool (fuel - 1)));
        ])
      st

let term_arb =
  QCheck.make
    ~print:(fun t -> Tv.term_to_string t)
    QCheck.Gen.(
      frequency [ (3, sized_size (int_range 1 4) gen_int);
                  (2, sized_size (int_range 1 4) gen_bool) ])

(* norm (norm t) = norm t: the normalizer is a projection.  Terms are
   hash-consed, so id equality is term equality. *)
let qcheck_norm_idempotent =
  QCheck.Test.make ~name:"normalizer is idempotent" ~count:500 term_arb
    (fun t ->
      let n = I.norm t in
      (I.norm n).Tv.id = n.Tv.id)

(* eval t = eval (norm t) on every sampled environment where both
   evaluate: normalization preserves concrete semantics. *)
let qcheck_norm_preserves_eval =
  QCheck.Test.make ~name:"normalizer preserves evaluation" ~count:500 term_arb
    (fun t ->
      let n = I.norm t in
      List.for_all
        (fun seed ->
          let env = I.sample_env seed in
          match
            let a = try Some (I.eval env t) with _ -> None in
            let b = try Some (I.eval env n) with _ -> None in
            (a, b)
          with
          | Some a, Some b -> Konst.equal a b
          | _ -> true)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])

(* norm (not (not g)) = norm g: negation-normal form is involutive. *)
let qcheck_not_involution =
  QCheck.Test.make ~name:"double negation normalizes away" ~count:300
    (QCheck.make QCheck.Gen.(sized_size (int_range 1 4) gen_bool))
    (fun g ->
      (I.norm (I.raw (Tv.Not (I.raw (Tv.Not g))))).Tv.id = (I.norm g).Tv.id)

(* ------------------------------------------------------------------ *)
(* IEEE NaN discipline: reflexive folds and operator flips only apply
   to operands not known to be floats — a float x==x is an isnan-style
   check the normalizer must not erase, and ¬(a<b) is not a≥b when a
   NaN falsifies both. *)

let test_nan_guards () =
  let fp i = I.raw (Tv.Param (i, Types.TFloat 64)) in
  let ip i = I.raw (Tv.Param (i, Types.TInt 32)) in
  let norm n = I.norm (I.raw n) in
  (match (norm (Tv.Cmp (Ops.CEq, fp 0, fp 0))).Tv.node with
  | Tv.Cmp (Ops.CEq, _, _) -> ()
  | _ -> Alcotest.fail "float x==x must not fold to true");
  (match (norm (Tv.Cmp (Ops.CEq, ip 0, ip 0))).Tv.node with
  | Tv.Const (Konst.KBool true) -> ()
  | _ -> Alcotest.fail "int x==x should fold to true");
  (match (norm (Tv.Not (I.raw (Tv.Cmp (Ops.CLt, fp 0, fp 1))))).Tv.node with
  | Tv.Not { Tv.node = Tv.Cmp (Ops.CLt, _, _); _ } -> ()
  | _ -> Alcotest.fail "float not(a<b) must not flip to a>=b");
  match (norm (Tv.Not (I.raw (Tv.Cmp (Ops.CLt, ip 0, ip 1))))).Tv.node with
  | Tv.Cmp (Ops.CGe, _, _) -> ()
  | _ -> Alcotest.fail "int not(a<b) should flip to a>=b"

(* ------------------------------------------------------------------ *)
(* The sampled address→value memory model may only engage for loads
   through the initial Nil chain: downstream of a shared store prefix
   the sample could contradict the recorded store history and fabricate
   an infeasible counterexample (an unsound refutation). *)

let test_mem_sampler_nil_only () =
  let fty = Types.TFloat 64 in
  let nil = I.raw (Tv.Nil Types.AS_global) in
  let ptr i = I.raw (Tv.Param (i, Types.TPtr (fty, Types.AS_global))) in
  let load chain addr = I.raw (Tv.Load (Types.AS_global, chain, addr, fty)) in
  (match I.counterexample_mem ~samples:24 (load nil (ptr 0)) (load nil (ptr 1)) with
  | Some _ -> ()
  | None ->
      Alcotest.fail
        "Nil-chain loads at distinct addresses should sample a counterexample");
  check Alcotest.bool "identical loads never separate" true
    (I.counterexample_mem ~samples:24 (load nil (ptr 0)) (load nil (ptr 0)) = None);
  (* forwarded stored value vs a load downstream of the same store: the
     sampler must stay disabled rather than contradict the store *)
  let v = I.raw (Tv.Param (2, fty)) in
  let guard = I.raw (Tv.Const (Konst.kbool true)) in
  let stored = I.raw (Tv.ChainStore (nil, guard, ptr 0, v, fty)) in
  check Alcotest.bool "store-prefixed chain disables the sampler" true
    (I.counterexample_mem ~samples:24 (load stored (ptr 0)) v = None)

(* ------------------------------------------------------------------ *)
(* The engine's term universe is process-global: background tier
   compiles and the multi-tenant serve loop validate from several
   domains at once, so check_kernel must serialize (and not corrupt the
   intern tables or mis-share term ids across validations). *)

let concurrent_src =
  {|
__global__ void cknl(double* out, double* in, int n)
{
  int i = ((blockIdx.x * blockDim.x) + threadIdx.x);
  if (i < n) {
    double v = in[i];
    if (v > 0.0) { v = (v * 2.0); } else { v = (v - 1.0); }
    out[i] = v;
  }
}
|}

let test_concurrent_checks () =
  let reference =
    Proteus_frontend.Compile.compile_device_only ~name:"tv_conc" ~debug:true
      concurrent_src
  in
  let candidate = Ir.clone_module reference in
  ignore (Proteus_opt.Pipeline.optimize_o3 candidate);
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 8 (fun _ ->
                Tv.check_kernel ~reference ~candidate "cknl")))
  in
  List.iter
    (fun d ->
      List.iter
        (function
          | Tv.Proven -> ()
          | v ->
              Alcotest.failf "concurrent validation: expected proven, got %s"
                (Tv.verdict_to_string v))
        (Domain.join d))
    domains

(* ------------------------------------------------------------------ *)
(* Cutpoint unit tests: O0 vs O3 on hand-written kernels exercising a
   branch diamond, a static-trip-count loop (bounded unrolling) and a
   data-dependent loop (summarization). *)

let compile src =
  Proteus_frontend.Compile.compile_device_only ~name:"test" ~debug:true src

let o3_of m =
  let c = Ir.clone_module m in
  ignore (Proteus_opt.Pipeline.optimize_o3 c);
  c

let expect_proven name src sym =
  let reference = compile src in
  match Tv.check_kernel ~reference ~candidate:(o3_of reference) sym with
  | Tv.Proven -> ()
  | v -> Alcotest.failf "%s: expected proven, got %s" name (Tv.verdict_to_string v)

let test_diamond () =
  expect_proven "diamond"
    {|
__global__ void diamond(double* out, double* in, int n)
{
  int i = ((blockIdx.x * blockDim.x) + threadIdx.x);
  if (i < n) {
    double v = in[i];
    if (v > 0.0) { v = (v * 2.0); } else { v = (v - 1.0); }
    out[i] = v;
  }
}
|}
    "diamond"

let test_static_loop () =
  expect_proven "static-trip loop (bounded unroll cutpoints)"
    {|
__global__ void sloop(double* out, double* in, int n)
{
  int i = ((blockIdx.x * blockDim.x) + threadIdx.x);
  double s = 0.0;
  for (int j = 0; j < 8; j++) { s += in[j]; }
  if (i < n) { out[i] = s; }
}
|}
    "sloop"

let test_dynamic_loop () =
  expect_proven "data-dependent loop (summarized cutpoints)"
    {|
__global__ void dloop(double* out, double* in, int n)
{
  int i = ((blockIdx.x * blockDim.x) + threadIdx.x);
  double s = 0.0;
  for (int j = 0; j < n; j++) { s += (in[j] * 0.5); }
  if (i < n) { out[i] = s; }
}
|}
    "dloop"

let test_branch_in_loop () =
  expect_proven "diamond nested in a summarized loop"
    {|
__global__ void bloop(double* out, double* in, int n)
{
  int i = ((blockIdx.x * blockDim.x) + threadIdx.x);
  double s = 0.0;
  for (int j = 0; j < n; j++) {
    double v = in[j];
    if (v > 0.0) { s += v; } else { s -= v; }
  }
  if (i < n) { out[i] = s; }
}
|}
    "bloop"

(* check_rewrite: the superoptimizer-facing entry point proves a valid
   reassociation/commutation rewrite between two separate modules. *)
let test_check_rewrite () =
  let reference =
    compile
      {|
__global__ void k(double* out, double* in, int n)
{
  int i = ((blockIdx.x * blockDim.x) + threadIdx.x);
  if (i < n) { out[i] = in[((i + 2) + n)]; }
}
|}
  in
  let candidate =
    compile
      {|
__global__ void k(double* out, double* in, int n)
{
  int i = ((blockIdx.x * blockDim.x) + threadIdx.x);
  if (i < n) { out[i] = in[(i + (n + 2))]; }
}
|}
  in
  (match Tv.check_rewrite ~reference ~candidate "k" with
  | Tv.Proven -> ()
  | v ->
      Alcotest.failf "reassociated rewrite: expected proven, got %s"
        (Tv.verdict_to_string v));
  (* and the converse direction *)
  match Tv.check_rewrite ~reference:candidate ~candidate:reference "k" with
  | Tv.Proven -> ()
  | v ->
      Alcotest.failf "reverse rewrite: expected proven, got %s"
        (Tv.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Refuted corpus: every committed (ref, cand) pair must be statically
   refuted, and the refutation must carry source provenance. *)

let corpus_dir =
  List.find_opt Sys.file_exists [ "corpus/transval"; "test/corpus/transval" ]
  |> Option.value ~default:"corpus/transval"

let corpus_cases () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f "_ref.kc")
  |> List.map (fun f -> Filename.chop_suffix f "_ref.kc")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_refuted_corpus () =
  let cases = corpus_cases () in
  check Alcotest.bool "corpus is non-empty" true (List.length cases >= 5);
  List.iter
    (fun case ->
      let load suffix =
        compile (read_file (Filename.concat corpus_dir (case ^ suffix)))
      in
      let reference = load "_ref.kc" and candidate = load "_cand.kc" in
      match Tv.check_kernel ~reference ~candidate "k" with
      | Tv.Refuted fd ->
          if fd.Proteus_analysis.Finding.loc = None then
            Alcotest.failf "%s: refuted without source provenance: %s" case
              fd.Proteus_analysis.Finding.message
      | v ->
          Alcotest.failf "%s: expected refuted, got %s" case
            (Tv.verdict_to_string v))
    cases

(* the O3 pipeline applied to each corpus reference must still prove:
   the corpus catches real divergence, not optimization noise *)
let test_corpus_refs_prove_o3 () =
  List.iter
    (fun case ->
      let reference =
        compile (read_file (Filename.concat corpus_dir (case ^ "_ref.kc")))
      in
      match Tv.check_kernel ~reference ~candidate:(o3_of reference) "k" with
      | Tv.Proven -> ()
      | v ->
          Alcotest.failf "%s: O0 vs O3 of the reference should prove, got %s"
            case (Tv.verdict_to_string v))
    (corpus_cases ())

(* ------------------------------------------------------------------ *)
(* The PROTEUS_VERIFY=2 JIT gate end to end. *)

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

let jit_exe =
  lazy
    (Driver.compile ~name:"tv_gate" ~vendor:Proteus_gpu.Device.Amd
       ~mode:Driver.Proteus daxpy_src)

let run_gate config =
  let r = Driver.run ~config (Lazy.force jit_exe) in
  let s =
    match r.Driver.jit with Some s -> s | None -> Alcotest.fail "no JIT stats"
  in
  (r.Driver.output, s)

let test_gate_clean () =
  let out, s =
    run_gate { Config.default with Config.verify_jit = true; verify_level = 2 }
  in
  check Alcotest.string "output is AOT-identical" aot_output out;
  (* one JIT compile, validated at both phases: post-specialize vs
     decoded and post-O3 vs post-specialize *)
  check Alcotest.int "both phases proven" 2 s.Stats.tv_proven;
  check Alcotest.int "nothing unproven" 0 s.Stats.tv_unproven;
  check Alcotest.int "nothing refuted" 0 s.Stats.tv_refuted;
  check Alcotest.int "no fallbacks" 0 s.Stats.fallbacks

let test_gate_armed () =
  let out, s =
    run_gate
      {
        Config.default with
        Config.verify_jit = true;
        verify_level = 2;
        fault_plan = [ (Fault.Specialize_corrupt, Fault.Always) ];
      }
  in
  check Alcotest.string "fallback output is AOT-identical" aot_output out;
  check Alcotest.bool "corruption statically refuted" true (s.Stats.tv_refuted > 0);
  check Alcotest.int "nothing falsely proven" 0 s.Stats.tv_proven;
  check Alcotest.bool "degraded to AOT fallback" true (s.Stats.fallbacks > 0)

(* level 1 must not pay for translation validation *)
let test_gate_level1_skips_tv () =
  let out, s =
    run_gate { Config.default with Config.verify_jit = true; verify_level = 1 }
  in
  check Alcotest.string "output is AOT-identical" aot_output out;
  check Alcotest.int "no transval at level 1" 0
    (s.Stats.tv_proven + s.Stats.tv_unproven + s.Stats.tv_refuted)

(* Level 2 includes level 1 whether or not [verify_jit] is set: a
   compile enters the Verify stage for post-specialize TransVal, the
   IR verifier and post-O3 TransVal, so the third entry fails only if
   the IR verifier ran in between. *)
let test_gate_level2_runs_verifier () =
  List.iter
    (fun verify_jit ->
      let out, s =
        run_gate
          {
            Config.default with
            Config.verify_jit;
            verify_level = 2;
            fault_plan = [ (Fault.Verify, Fault.Nth 3) ];
          }
      in
      let what = Printf.sprintf "verify_jit=%b" verify_jit in
      check Alcotest.string (what ^ ": output is AOT-identical") aot_output out;
      check Alcotest.int (what ^ ": one fallback") 1 s.Stats.fallbacks)
    [ false; true ]

let () =
  Alcotest.run "transval"
    [
      ( "normalizer",
        [
          qtest qcheck_norm_idempotent;
          qtest qcheck_norm_preserves_eval;
          qtest qcheck_not_involution;
        ] );
      ( "engine",
        [
          Alcotest.test_case "NaN-unsafe folds restricted to non-floats" `Quick
            test_nan_guards;
          Alcotest.test_case "memory sampler requires the Nil chain" `Quick
            test_mem_sampler_nil_only;
          Alcotest.test_case "concurrent validations serialize" `Quick
            test_concurrent_checks;
        ] );
      ( "cutpoints",
        [
          Alcotest.test_case "branch diamond" `Quick test_diamond;
          Alcotest.test_case "static-trip loop" `Quick test_static_loop;
          Alcotest.test_case "data-dependent loop" `Quick test_dynamic_loop;
          Alcotest.test_case "branch inside loop" `Quick test_branch_in_loop;
          Alcotest.test_case "check_rewrite entry point" `Quick test_check_rewrite;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "refuted with provenance" `Quick test_refuted_corpus;
          Alcotest.test_case "references prove under O3" `Quick
            test_corpus_refs_prove_o3;
        ] );
      ( "jit-gate",
        [
          Alcotest.test_case "clean compile proves both phases" `Quick
            test_gate_clean;
          Alcotest.test_case "armed corruption statically refuted" `Quick
            test_gate_armed;
          Alcotest.test_case "level 1 skips validation" `Quick
            test_gate_level1_skips_tv;
          Alcotest.test_case "level 2 runs the IR verifier" `Quick
            test_gate_level2_runs_verifier;
        ] );
    ]
