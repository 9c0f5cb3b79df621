(* SpecAdvisor tests: spec-key cardinality under every policy (pure
   and end-to-end, including the quarantine interaction), advisor
   determinism, auto-annotation supersets hand-written annotations and
   is idempotent, KernelSan and SpecAdvisor agree on normalized block
   ids, and the static cost model is calibrated against the optimizer's
   own fold counters. *)

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

(* ---- Speckey.apply_policy: pure key-cardinality semantics ---- *)

let sv = [ (1, Konst.ki32 7); (4, Konst.ki32 256) ]

let test_apply_policy_all () =
  let keep, skipped = Speckey.apply_policy ~policy:Config.Spec_all ~recommended:[] sv in
  check Alcotest.int "keeps everything" 2 (List.length keep);
  check Alcotest.int "skips nothing" 0 skipped

let test_apply_policy_none () =
  let keep, skipped =
    Speckey.apply_policy ~policy:Config.Spec_none ~recommended:[ 1; 4 ] sv
  in
  check Alcotest.int "keeps nothing" 0 (List.length keep);
  check Alcotest.int "skips all" 2 skipped

let test_apply_policy_advise () =
  let keep, skipped =
    Speckey.apply_policy ~policy:Config.Spec_advise ~recommended:[ 4 ] sv
  in
  check Alcotest.(list int) "keeps recommended" [ 4 ] (List.map fst keep);
  check Alcotest.int "skips the rest" 1 skipped;
  let keep, skipped =
    Speckey.apply_policy ~policy:Config.Spec_advise ~recommended:[] sv
  in
  check Alcotest.int "empty advice keeps nothing" 0 (List.length keep);
  check Alcotest.int "empty advice skips all" 2 skipped

(* ---- end-to-end cache cardinality: a payoff-free annotated argument
   varies per launch; the advise policy drops it from the key, so the
   same object is reused while outputs stay bit-identical ---- *)

let tagged_src =
  {|
__global__ __attribute__((annotate("jit", 1, 2)))
void k(int tag, int n, int* out) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int acc = 0;
  for (int j = 0; j < n; j++) acc += j * j;
  if (i < 64) out[i] = acc;
}
int main() {
  long bytes = 64 * 4;
  int* h = (int*)malloc(bytes);
  int* d = (int*)cudaMalloc(bytes);
  for (int r = 0; r < 4; r++) { k<<<1, 64>>>(r, 8, d); }
  cudaDeviceSynchronize();
  cudaMemcpyDtoH(h, d, bytes);
  int s = 0;
  for (int i = 0; i < 64; i++) s += h[i];
  printf("s=%d\n", s);
  return 0;
}
|}

let run_with config src =
  let exe = Driver.compile ~name:"advise-test" ~vendor:Device.Amd ~mode:Driver.Proteus src in
  Driver.run ~config exe

let jit_stats r =
  match r.Driver.jit with Some s -> s | None -> Alcotest.fail "no jit stats"

let with_policy policy = { Config.default with Config.spec_policy = policy }

let test_policy_cache_cardinality () =
  let r_all = run_with (with_policy Config.Spec_all) tagged_src in
  let r_adv = run_with (with_policy Config.Spec_advise) tagged_src in
  let r_none = run_with (with_policy Config.Spec_none) tagged_src in
  (* bit-identical program output under every policy *)
  check Alcotest.string "expected output" "s=8960\n" r_all.Driver.output;
  check Alcotest.string "advise output" r_all.Driver.output r_adv.Driver.output;
  check Alcotest.string "none output" r_all.Driver.output r_none.Driver.output;
  let s_all = jit_stats r_all and s_adv = jit_stats r_adv and s_none = jit_stats r_none in
  (* all: the varying tag lands in the key -> one entry per launch *)
  check Alcotest.int "all compiles" 4 s_all.Stats.compiles;
  check Alcotest.int "all cache entries" 4 (Stats.cache_entries_for s_all "all");
  check Alcotest.int "all skips nothing" 0 s_all.Stats.spec_skipped_args;
  (* advise: tag is payoff-free and dropped; n (a static trip count)
     is kept, so one entry serves all four launches *)
  check Alcotest.int "advise compiles" 1 s_adv.Stats.compiles;
  check Alcotest.int "advise cache entries" 1 (Stats.cache_entries_for s_adv "advise");
  check Alcotest.int "advise mem hits" 3 s_adv.Stats.mem_hits;
  check Alcotest.int "advise skipped args" 4 s_adv.Stats.spec_skipped_args;
  Alcotest.(check bool) "advise time recorded" true (s_adv.Stats.advise_time_s > 0.0);
  (* none: no argument is keyed at all *)
  check Alcotest.int "none compiles" 1 s_none.Stats.compiles;
  check Alcotest.int "none cache entries" 1 (Stats.cache_entries_for s_none "none");
  check Alcotest.int "none skipped args" 8 s_none.Stats.spec_skipped_args

(* ---- quarantine interaction: the quarantine record is keyed by
   (module, symbol), never by the spec key, so a policy that shrinks
   the key cannot resurrect a quarantined kernel, and failures in the
   advise step itself are contained exactly like decode failures ---- *)

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

let test_quarantine_policy_independent () =
  List.iter
    (fun policy ->
      let config =
        {
          Config.default with
          Config.spec_policy = policy;
          fault_plan = [ (Fault.Decode, Fault.Always) ];
          quarantine_threshold = 2;
          quarantine_backoff = 3;
        }
      in
      let r = run_with config daxpy_src in
      let name = Config.policy_name policy in
      check Alcotest.string (name ^ ": AOT-identical output") aot_output r.Driver.output;
      let s = jit_stats r in
      (* L1, L2 fail -> quarantine; L3-L5 quarantined; L6 retries and
         fails -- the same containment trace under every policy *)
      check Alcotest.int (name ^ ": quarantined launches") 3 s.Stats.quarantined_launches;
      check Alcotest.int (name ^ ": quarantine events") 2 s.Stats.quarantine_events;
      check Alcotest.int (name ^ ": nothing compiled") 0 s.Stats.compiles;
      check Alcotest.int (name ^ ": no cache entries") 0 (Stats.cache_entries_total s))
    [ Config.Spec_all; Config.Spec_advise; Config.Spec_none ]

(* ---- advisor determinism: two independent compilations of every
   bundled program produce byte-identical impact signatures ---- *)

let test_advisor_deterministic () =
  List.iter
    (fun (name, src) ->
      let sigs m = List.map Specadvisor.signature (Specadvisor.advise_module m) in
      check
        Alcotest.(list string)
        (name ^ " signatures stable") (sigs (compile name src)) (sigs (compile name src)))
    bundled

(* ---- shared normalization: KernelSan and SpecAdvisor analyze the
   same normalized clone, so findings from both refer to the same
   block ids, and running either analysis never mutates the module the
   other sees ---- *)

let block_labels (m : Ir.modul) : (string * string list) list =
  List.map
    (fun (f : Ir.func) -> (f.Ir.fname, List.map (fun (b : Ir.block) -> b.Ir.label) f.Ir.blocks))
    m.Ir.funcs

let test_shared_normalized_clone () =
  List.iter
    (fun (name, src) ->
      (* the two entry points normalize identically *)
      check
        Alcotest.(list (pair string (list string)))
        (name ^ " block ids agree")
        (block_labels (Kernelsan.normalize (compile name src)))
        (block_labels (Normalize.clone (compile name src)));
      (* both analyses run on one shared clone (the plugin's pattern),
         and the advice matches advise_module on the pristine input *)
      let shared = Normalize.clone (compile name src) in
      let _findings = Kernelsan.analyze_normalized shared in
      let via_shared = List.map Specadvisor.signature (Specadvisor.advise_normalized shared) in
      let direct =
        List.map Specadvisor.signature (Specadvisor.advise_module (compile name src))
      in
      check Alcotest.(list string) (name ^ " advice unaffected by sharing") direct via_shared)
    bundled

(* ---- auto-annotation: stripping the hand-written annotations and
   re-deriving them from SpecAdvisor yields a superset per kernel, and
   rewriting is idempotent ---- *)

let strip_annotations src =
  Str.global_replace
    (Str.regexp "__attribute__((annotate(\"jit\"[^)]*)))[ \t\r\n]*")
    "" src

let annotations_of src =
  let m = compile "anns" src in
  List.filter_map
    (fun (a : Ir.annotation) -> if a.Ir.akey = "jit" then Some (a.Ir.afunc, a.Ir.aargs) else None)
    m.Ir.annotations

let test_auto_annotate_superset () =
  List.iter
    (fun (e : Proteus_examples.Sources.t) ->
      let name = e.Proteus_examples.Sources.name in
      let hand = annotations_of e.Proteus_examples.Sources.source in
      let stripped = strip_annotations e.Proteus_examples.Sources.source in
      check Alcotest.int (name ^ " stripped clean") 0 (List.length (annotations_of stripped));
      let advice =
        List.map
          (fun k -> (k.Specadvisor.kernel, Specadvisor.recommended_args k))
          (Specadvisor.advise_module (compile name stripped))
      in
      let rewritten, annotated = Proteus_frontend.Rewrite.auto_annotate stripped ~advice in
      let inferred = annotations_of rewritten in
      (* every hand-annotated kernel is re-annotated with at least the
         hand-picked arguments *)
      List.iter
        (fun (kernel, hand_args) ->
          Alcotest.(check bool) (name ^ "/" ^ kernel ^ " re-annotated") true
            (List.mem kernel annotated);
          match List.assoc_opt kernel inferred with
          | None -> Alcotest.fail (name ^ "/" ^ kernel ^ " lost its annotation")
          | Some args ->
              List.iter
                (fun a ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s advises arg %d" name kernel a)
                    true (List.mem a args))
                hand_args)
        hand;
      (* idempotence: a second pass plans no insertions *)
      (match Proteus_frontend.Rewrite.auto_annotate rewritten ~advice with
      | _, [] -> ()
      | _, again ->
          Alcotest.fail
            (name ^ " rewrite not idempotent: " ^ String.concat ", " again)))
    Proteus_examples.Sources.all

(* ---- cost-model calibration: when the advisor predicts a branch and
   folds for an argument, actually pinning that argument makes the
   optimizer prune that branch and fold strictly more than the
   unspecialized baseline. The fixture folds through control flow (a
   phi over a branch on [n]) because straight-line constants are
   swallowed by instruction simplification before SCCP ever runs. ---- *)

let calib_src =
  {|
__global__ __attribute__((annotate("jit", 1)))
void calib(int n, float* out) {
  int c;
  if (n > 0) { c = n * 2 + 7; } else { c = 3 - n; }
  if (threadIdx.x == 0) out[0] = (float)(c * c);
}
|}

let inst_count (m : Ir.modul) : int =
  List.fold_left
    (fun acc (f : Ir.func) ->
      List.fold_left (fun acc (b : Ir.block) -> acc + List.length b.Ir.insts) acc f.Ir.blocks)
    0 m.Ir.funcs

let test_fold_calibration () =
  let report =
    match Specadvisor.advise_kernel (compile "calib" calib_src) "calib" with
    | Some k -> k
    | None -> Alcotest.fail "no advice for calib"
  in
  let arg1 =
    match List.find_opt (fun a -> a.Specadvisor.index = 1) report.Specadvisor.ranked with
    | Some a -> a
    | None -> Alcotest.fail "argument 1 missing from report"
  in
  Alcotest.(check bool) "predicts folds" true (arg1.Specadvisor.folds >= 1);
  Alcotest.(check bool) "predicts a branch" true (arg1.Specadvisor.branches >= 1);
  Alcotest.(check bool) "recommended" true arg1.Specadvisor.recommended;
  let measure ~specialize =
    let m = Extract.extract_kernel (compile "calib" calib_src) "calib" in
    if specialize then
      Specialize.apply Config.default m ~kernel:"calib"
        ~spec_values:[ (1, Konst.ki32 5) ]
        ~block:64
        ~resolve_global:(fun _ -> 0L);
    let c = Specadvisor.measure_o3 m in
    (c, inst_count m)
  in
  let base, base_insts = measure ~specialize:false in
  let spec, spec_insts = measure ~specialize:true in
  Alcotest.(check bool)
    (Printf.sprintf "specialized branch pruned (%d > %d)"
       spec.Proteus_opt.Pass.sccp_branches base.Proteus_opt.Pass.sccp_branches)
    true (spec.Proteus_opt.Pass.sccp_branches > base.Proteus_opt.Pass.sccp_branches);
  Alcotest.(check bool)
    (Printf.sprintf "specialized folds exceed baseline (%d > %d)"
       spec.Proteus_opt.Pass.sccp_folds base.Proteus_opt.Pass.sccp_folds)
    true (spec.Proteus_opt.Pass.sccp_folds > base.Proteus_opt.Pass.sccp_folds);
  Alcotest.(check bool)
    (Printf.sprintf "specialized code is smaller (%d < %d)" spec_insts base_insts)
    true (spec_insts < base_insts)

(* Each O3 run counts into its own Pass.stats: two domains measuring
   different modules at once see exactly their serial counts. *)
let test_measure_o3_concurrent () =
  let host name =
    let a = List.find (fun (a : Proteus_hecbench.App.t) -> a.name = name) Proteus_hecbench.Suite.apps in
    (Proteus_frontend.Compile.compile ~name ~vendor:Proteus_frontend.Lower.Hip a.source)
      .Proteus_frontend.Compile.host
  in
  let counts m =
    let s = Specadvisor.measure_o3 (Ir.clone_module m) in
    Proteus_opt.Pass.(
      Printf.sprintf "folds=%d branches=%d loops=%d copies=%d" s.sccp_folds s.sccp_branches
        s.unroll_loops s.unroll_copies)
  in
  let mods = [ host "RSBENCH"; host "WSM5" ] in
  let serial = List.map counts mods in
  let concurrent =
    List.map (fun m -> Domain.spawn (fun () -> List.init 20 (fun _ -> counts m))) mods
    |> List.map Domain.join
  in
  List.iter2 (fun want got -> List.iter (check Alcotest.string "counts" want) got) serial concurrent

(* ---- report contracts: every bundled kernel's ranking is what the
   advise spec policy relies on ---- *)

let test_report_contracts () =
  List.iter
    (fun (name, src) ->
      let reports = Specadvisor.advise_module (compile name src) in
      Alcotest.(check bool) (name ^ " has kernel reports") true (reports <> []);
      List.iter
        (fun (k : Specadvisor.kernel_impact) ->
          let ctx what = Printf.sprintf "%s/%s: %s" name k.Specadvisor.kernel what in
          let args = k.Specadvisor.ranked in
          check Alcotest.int (ctx "one row per parameter plus launch")
            (k.Specadvisor.nparams + 1) (List.length args);
          check Alcotest.(list int) (ctx "argument indices")
            (List.init (k.Specadvisor.nparams + 1) Fun.id)
            (List.sort compare (List.map (fun a -> a.Specadvisor.index) args));
          let scores = List.map (fun a -> a.Specadvisor.score) args in
          check Alcotest.(list (float 0.0)) (ctx "descending scores")
            (List.sort (fun a b -> compare b a) scores) scores;
          check Alcotest.(list int) (ctx "recommended = flagged parameters")
            (List.sort compare
               (List.filter_map
                  (fun a ->
                    if a.Specadvisor.index > 0 && a.Specadvisor.recommended then
                      Some a.Specadvisor.index
                    else None)
                  args))
            (Specadvisor.recommended_args k);
          List.iter
            (fun (a : Specadvisor.arg_impact) ->
              if a.Specadvisor.recommended then begin
                let arg what = ctx (Printf.sprintf "arg %d %s" a.Specadvisor.index what) in
                Alcotest.(check bool) (arg "at or above threshold") true
                  (a.Specadvisor.score >= k.Specadvisor.threshold);
                Alcotest.(check bool) (arg "not a pointer") false a.Specadvisor.is_ptr
              end)
            args)
        reports)
    bundled

let () =
  Alcotest.run "advise"
    [
      ( "apply-policy",
        [
          Alcotest.test_case "all keeps every value" `Quick test_apply_policy_all;
          Alcotest.test_case "none drops every value" `Quick test_apply_policy_none;
          Alcotest.test_case "advise keeps the recommended subset" `Quick
            test_apply_policy_advise;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "advise collapses payoff-free key variation" `Quick
            test_policy_cache_cardinality;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "containment is policy-independent" `Quick
            test_quarantine_policy_independent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "signatures stable across compilations" `Quick
            test_advisor_deterministic;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "every bundled kernel's ranking" `Quick
            test_report_contracts;
        ] );
      ( "normalization",
        [
          Alcotest.test_case "KernelSan and SpecAdvisor share block ids" `Quick
            test_shared_normalized_clone;
        ] );
      ( "auto-annotate",
        [
          Alcotest.test_case "superset of hand annotations, idempotent" `Quick
            test_auto_annotate_superset;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "predicted folds materialize under SCCP" `Quick
            test_fold_calibration;
          Alcotest.test_case "concurrent O3 runs keep their own counts" `Quick
            test_measure_o3_concurrent;
        ] );
    ]
