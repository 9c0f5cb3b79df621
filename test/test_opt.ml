(* Optimizer tests: each pass in isolation plus semantic preservation of
   the whole O3 pipeline (differential against the unoptimized IR). *)

open Proteus_ir
open Proteus_frontend
open Proteus_opt

let check = Alcotest.check
let qtest = Qseed.qtest

let device_of src =
  (Compile.compile ~vendor:Lower.Cuda src).Compile.device

let host_of src = (Compile.compile ~vendor:Lower.Cuda src).Compile.host

let instr_count (f : Ir.func) =
  List.fold_left (fun acc (b : Ir.block) -> acc + List.length b.Ir.insts) 0 f.Ir.blocks

let count_matching f pred =
  let n = ref 0 in
  Ir.iter_instrs f (fun i -> if pred i then incr n);
  !n

let stats = Pass.mk_stats ()

(* simple memory for interpreting device functions standalone *)
let mem_env () =
  let mem = Proteus_gpu.Gmem.create () in
  ( mem,
    Interp.make_env
      ~load:(fun ty a -> Proteus_gpu.Gmem.read mem ty a)
      ~store:(fun ty a v -> Proteus_gpu.Gmem.write mem ty a v)
      ~extern:(fun n _ -> Alcotest.failf "extern %s" n)
      ~global_addr:(fun n -> Alcotest.failf "global %s" n)
      ~alloca:(fun ty n -> Proteus_gpu.Gmem.alloc mem (Types.size_of ty * n))
      () )

(* ---- mem2reg ---- *)

let test_mem2reg_promotes () =
  let m =
    device_of
      {|__device__ int f(int x) {
          int a = x + 1;
          int b = a * 2;
          a = b - x;
          return a + b;
        }|}
  in
  let f = Ir.find_func m "f" in
  ignore (Pass.run_pass stats Mem2reg.pass m);
  check Alcotest.int "no allocas left" 0
    (count_matching f (function Ir.IAlloca _ -> true | _ -> false));
  check Alcotest.int "no loads left" 0
    (count_matching f (function Ir.ILoad _ -> true | _ -> false));
  Verify.verify_module m;
  (* semantics: a=x+1, b=2x+2, a=x+2 -> a+b = 3x+4 *)
  let _, env = mem_env () in
  match Interp.run env m "f" [ Konst.ki32 10 ] with
  | Some k -> check Alcotest.int64 "3*10+4" 34L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

let test_mem2reg_keeps_escaping () =
  let m =
    device_of
      {|__device__ float g(float* p) { return p[0]; }
        __device__ float f(float x) {
          float a[2];
          a[0] = x;
          return g(a);
        }|}
  in
  let f = Ir.find_func m "f" in
  ignore (Pass.run_pass stats Mem2reg.pass m);
  (* the array alloca escapes into g and must survive *)
  check Alcotest.int "array alloca kept" 1
    (count_matching f (function Ir.IAlloca _ -> true | _ -> false))

(* ---- constant folding / instcombine ---- *)

let fold_result src fname args expected =
  let m = device_of src in
  ignore (Pipeline.optimize_o3 m);
  let _, env = mem_env () in
  match Interp.run env m fname args with
  | Some k -> check Alcotest.string "result" expected (Konst.to_string k)
  | None -> Alcotest.fail "no result"

let test_constant_folding () =
  let m = device_of {|__device__ int f() { return 2 * 21 + (10 / 3); }|} in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  check Alcotest.int "folded to a constant return" 0 (instr_count f);
  fold_result {|__device__ int f() { return 2 * 21 + (10 / 3); }|} "f" [] "45"

let test_algebraic_identities () =
  let m =
    device_of
      {|__device__ int f(int x) {
          int a = x + 0;
          int b = a * 1;
          int c = b * 8;      // becomes a shift
          int d = c / 1;
          return d;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  check Alcotest.int "mul-by-8 strength-reduced to shl" 1
    (count_matching f (function Ir.IBin (_, Ops.Shl, _, _) -> true | _ -> false));
  check Alcotest.int "no multiplies left" 0
    (count_matching f (function Ir.IBin (_, Ops.Mul, _, _) -> true | _ -> false))

let test_fastmath_rules () =
  let m =
    device_of
      {|__device__ double f(double x, double y) {
          double a = x * 0.0;    // fast-math: 0
          double b = y + a;      // y
          double c = b / 4.0;    // becomes * 0.25
          return c * 1.0;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  check Alcotest.int "division became multiply" 0
    (count_matching f (function Ir.IBin (_, Ops.FDiv, _, _) -> true | _ -> false));
  let _, env = mem_env () in
  match Interp.run env m "f" [ Konst.kf64 99.0; Konst.kf64 8.0 ] with
  | Some k -> check Alcotest.string "value" "2" (Konst.to_string k)
  | None -> Alcotest.fail "no result"

let test_math_intrinsic_folding () =
  fold_result {|__device__ double f() { return sqrt(16.0) + pow(2.0, 3.0); }|} "f" [] "12"

(* ---- SCCP ---- *)

let test_sccp_kills_dead_branch () =
  let m =
    device_of
      {|__device__ int f(int x) {
          int mode = 3;
          if (mode == 2) { x = x * 1000; } else { x = x + 1; }
          return x;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  check Alcotest.int "single straight-line block" 1 (List.length f.Ir.blocks);
  check Alcotest.int "the *1000 is gone" 0
    (count_matching f (function Ir.IBin (_, Ops.Mul, _, _) | Ir.IBin (_, Ops.Shl, _, _) -> true | _ -> false))

(* Reference solver: sweep every executable block in order until nothing
   changes. Same transfer functions as Sccp.solve, no worklists. *)
let naive_sccp (f : Ir.func) : Sccp.lat array * bool array =
  let blocks = Array.of_list f.Ir.blocks in
  let rec index l i = if blocks.(i).Ir.label = l then i else index l (i + 1) in
  let lat = Array.make (Ir.nregs f) Sccp.Top in
  List.iter (fun (_, r) -> lat.(r) <- Sccp.Bottom) f.Ir.params;
  let exec = Array.make (Array.length blocks) false in
  let edges = Hashtbl.create 16 in
  if Array.length blocks > 0 then exec.(0) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun bi (b : Ir.block) ->
        if exec.(bi) then begin
          let exec_from l = Hashtbl.mem edges (l, b.Ir.label) in
          List.iter
            (fun i ->
              match Ir.def_of i with
              | Some d ->
                  let v = Sccp.meet lat.(d) (Sccp.eval_instr f lat exec_from i) in
                  if Sccp.height v < Sccp.height lat.(d) then begin
                    lat.(d) <- v;
                    changed := true
                  end
              | None -> ())
            b.Ir.insts;
          List.iter
            (fun s ->
              if not (Hashtbl.mem edges (b.Ir.label, s)) then begin
                Hashtbl.replace edges (b.Ir.label, s) ();
                exec.(index s 0) <- true;
                changed := true
              end)
            (Sccp.feasible_succs lat b.Ir.term)
        end)
      blocks
  done;
  (lat, exec)

let lat_equal a b =
  match (a, b) with
  | Sccp.Const x, Sccp.Const y -> Konst.equal x y
  | Sccp.Top, Sccp.Top | Sccp.Bottom, Sccp.Bottom -> true
  | _ -> false

let solvers_agree (f : Ir.func) =
  let lat, exec = Sccp.solve f and lat', exec' = naive_sccp f in
  exec = exec' && Array.for_all2 lat_equal lat lat'

(* O3 with both solvers compared on the exact IR each SCCP run sees;
   returns the functions where they disagreed. *)
let o3_checking_sccp (m : Ir.modul) =
  let bad = ref [] in
  let check (p : Pass.t) =
    if p.Pass.name <> "sccp" then p
    else
      { p with
        Pass.run = (fun st m f -> if not (solvers_agree f) then bad := f.Ir.fname :: !bad; p.Pass.run st m f) }
  in
  ignore (Pipeline.run ~passes:(List.map check Pipeline.o3) m);
  !bad

let qcheck_sccp_matches_reference =
  QCheck.Test.make ~name:"SCCP solver = reference solver on generated kernels" ~count:60
    (QCheck.map (fun i -> 7000 + (i * 1_000_003)) QCheck.(int_bound 5_000))
    (fun seed ->
      let k, _ = Proteus_fuzz.Gen.case ~seed ~max_stmts:12 in
      let src = Proteus_fuzz.Pp.program_to_string k.Proteus_fuzz.Gen.prog in
      match o3_checking_sccp (Compile.compile_device_only ~name:"fuzz" src) with
      | [] -> true
      | fs -> QCheck.Test.fail_reportf "seed %d: solvers disagree on %s" seed (String.concat ", " fs))

let test_sccp_matches_reference_hecbench () =
  List.iter
    (fun (a : Proteus_hecbench.App.t) ->
      let u = Compile.compile ~name:a.name ~vendor:Lower.Hip a.source in
      List.iter
        (fun m ->
          check Alcotest.(list string) (a.name ^ ": solvers agree") [] (o3_checking_sccp m))
        [ u.Compile.host; u.Compile.device ])
    Proteus_hecbench.Suite.apps

(* SSA form (phis, no allocas) with nothing folded yet: SCCP's input *)
let ssa_of src name =
  let m = device_of src in
  Pass.run_pipeline (Pass.mk_stats ()) [ Simplifycfg.pass; Mem2reg.pass ] m;
  (m, Ir.find_func m name)

let phi_regs (f : Ir.func) =
  List.concat_map
    (fun (b : Ir.block) -> List.filter_map (function Ir.IPhi (d, _) -> Some d | _ -> None) b.Ir.insts)
    f.Ir.blocks

let test_sccp_loop_counter_stays () =
  let m, f =
    ssa_of
      {|__device__ int f(int x) {
          int s = x;
          for (int i = 0; i < 10; i++) { s = s + 2; }
          return s;
        }|}
      "f"
  in
  let lat, exec = Sccp.solve f in
  Alcotest.(check bool) "loop has phis" true (phi_regs f <> []);
  List.iter
    (fun d -> Alcotest.(check bool) "phi lowered to Bottom by the back edge" true (lat.(d) = Sccp.Bottom))
    (phi_regs f);
  Alcotest.(check bool) "loop exit is executable" true (Array.for_all Fun.id exec);
  ignore (Pass.run_pass stats Sccp.pass m);
  Verify.verify_module m;
  let _, env = mem_env () in
  match Interp.run env m "f" [ Konst.ki32 5 ] with
  | Some k -> check Alcotest.int64 "5 + 10*2" 25L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

let test_sccp_phi_over_dead_edge_folds () =
  let m, f =
    ssa_of
      {|__device__ int f(int x) {
          int mode = 3;
          int y = 7;
          if (mode == 2) { y = x; }
          return y + 1;
        }|}
      "f"
  in
  let lat, exec = Sccp.solve f in
  (match phi_regs f with
  | [ d ] -> Alcotest.(check bool) "phi is the constant 7" true (lat_equal lat.(d) (Sccp.Const (Konst.ki32 7)))
  | ds -> Alcotest.failf "expected one phi, got %d" (List.length ds));
  Alcotest.(check bool) "the y = x block is dead" true (Array.exists not exec);
  ignore (Pass.run_pass stats Sccp.pass m);
  check Alcotest.int "phi folded away" 0 (List.length (phi_regs f));
  let _, env = mem_env () in
  match Interp.run env m "f" [ Konst.ki32 100 ] with
  | Some k -> check Alcotest.int64 "7 + 1" 8L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

(* Konst defines integer division by zero as 0, the value the
   interpreter and the executor compute, so SCCP folds a constant one to
   0 without raising. A constant fold that does raise (here a math
   intrinsic handed an integer) must leave Bottom, not crash. *)
let test_sccp_div_by_zero () =
  let m, f = ssa_of {|__device__ int f(int x) { int z = 0; return x + 10 / z; }|} "f" in
  let divs = ref [] in
  Ir.iter_instrs f (function Ir.IBin (d, Ops.SDiv, _, _) -> divs := d :: !divs | _ -> ());
  let lat, _ = Sccp.solve f in
  (match !divs with
  | [ d ] -> Alcotest.(check bool) "10 / 0 folds to 0" true (lat_equal lat.(d) (Sccp.Const (Konst.ki32 0)))
  | ds -> Alcotest.failf "expected one sdiv, got %d" (List.length ds));
  ignore (Pass.run_pass stats Sccp.pass m);
  (let _, env = mem_env () in
   match Interp.run env m "f" [ Konst.ki32 5 ] with
   | Some k -> check Alcotest.int64 "5 + 10 / 0" 5L (Konst.as_int k)
   | None -> Alcotest.fail "no result");
  let m, f = ssa_of {|__device__ double g(double x) { return sqrt(x); }|} "g" in
  let calls = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.insts <-
        List.map
          (function
            | Ir.ICall (Some d, callee, [ _ ]) when Ir.Intrinsics.is_math callee ->
                calls := d :: !calls;
                Ir.ICall (Some d, callee, [ Ir.Imm (Konst.ki32 4) ])
            | i -> i)
          b.Ir.insts)
    f.Ir.blocks;
  let lat, _ = Sccp.solve f in
  (match !calls with
  | [ d ] -> Alcotest.(check bool) "a raising fold is Bottom" true (lat.(d) = Sccp.Bottom)
  | ds -> Alcotest.failf "expected one math call, got %d" (List.length ds));
  Alcotest.(check bool) "nothing to fold" false (Pass.run_pass stats Sccp.pass m)

(* A branch on a condition that is already an immediate is one-sided,
   but SCCP neither proved it nor changes it: a run with nothing else
   to fold returns false and counts nothing, so skipping it loses no
   count. *)
let test_sccp_clean_run_counts_nothing () =
  let m, f = ssa_of {|__device__ int f(int x) { int r = x; if (x > 3) r = x + 1; return r; }|} "f" in
  List.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.TCondBr (_, t, e) -> b.Ir.term <- Ir.TCondBr (Ir.Imm (Konst.kbool true), t, e)
      | _ -> ())
    f.Ir.blocks;
  let st = Pass.mk_stats () in
  Alcotest.(check bool) "nothing to change" false (Pass.run_pass st Sccp.pass m);
  check Alcotest.int "no branch counted" 0 st.Pass.sccp_branches

(* ---- DCE ---- *)

let test_dce () =
  let m =
    device_of
      {|__device__ int f(int x) {
          int unused = x * 77 + 123;
          int unused2 = unused - 1;
          return x;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  check Alcotest.int "dead code removed" 0 (instr_count (Ir.find_func m "f"))

let test_dce_keeps_stores () =
  let m =
    device_of
      {|__device__ void f(int* p, int x) {
          int v = x * 2;
          p[0] = v;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  check Alcotest.int "store survives" 1
    (count_matching (Ir.find_func m "f") (function Ir.IStore _ -> true | _ -> false))

(* ---- GVN ---- *)

let test_gvn_dedups () =
  let m =
    device_of
      {|__device__ int f(int x, int y) {
          int a = x * y + 3;
          int b = x * y + 3;
          return a + b;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  (* one multiply, one (+3), one final add... the a+b may fold to shl *)
  check Alcotest.int "single multiply" 1
    (count_matching f (function Ir.IBin (_, Ops.Mul, _, _) -> true | _ -> false))

(* ---- LICM ---- *)

let test_licm_hoists () =
  let m =
    device_of
      {|__device__ double f(double* v, int n, double a) {
          double s = 0.0;
          for (int i = 0; i < n; i++) {
            s = s + v[i] * (a * a * 2.0);   // a*a*2 is invariant
          }
          return s;
        }|}
  in
  let stats = Pass.mk_stats () in
  Pass.run_pipeline stats [ Simplifycfg.pass; Mem2reg.pass; Simplify.pass ] m;
  let f = Ir.find_func m "f" in
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let li = Loopinfo.compute cfg dom in
  let l = List.hd li.Loopinfo.loops in
  let muls_in_loop () =
    Proteus_support.Util.Sset.fold
      (fun lbl acc ->
        acc
        + List.length
            (List.filter
               (function Ir.IBin (_, (Ops.FMul | Ops.FAdd), _, _) -> true | _ -> false)
               (Ir.find_block f lbl).Ir.insts))
      l.Loopinfo.body 0
  in
  let before = muls_in_loop () in
  ignore (Pass.run_pass stats Licm.pass m);
  let after = muls_in_loop () in
  Alcotest.(check bool)
    (Printf.sprintf "loop body float ops reduced (%d -> %d)" before after)
    true (after < before);
  Verify.verify_module m

(* ---- unrolling ---- *)

let test_unroll_constant_trip () =
  let m =
    device_of
      {|__device__ int f(int x) {
          int s = x;
          for (int i = 0; i < 5; i++) { s = s * 2 + 1; }
          return s;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  (* fully unrolled: no loops remain *)
  let cfg = Cfg.build f in
  let li = Loopinfo.compute cfg (Dom.compute cfg) in
  check Alcotest.int "no loops" 0 (List.length li.Loopinfo.loops);
  let _, env = mem_env () in
  match Interp.run env m "f" [ Konst.ki32 1 ] with
  | Some k -> check Alcotest.int64 "((((1*2+1)...))) = 63" 63L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

let test_no_unroll_runtime_trip () =
  let m =
    device_of
      {|__device__ int f(int n) {
          int s = 0;
          for (int i = 0; i < n; i++) { s += i; }
          return s;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  let cfg = Cfg.build f in
  let li = Loopinfo.compute cfg (Dom.compute cfg) in
  check Alcotest.int "loop stays" 1 (List.length li.Loopinfo.loops)

let test_no_unroll_above_threshold () =
  let m =
    device_of
      {|__device__ int f() {
          int s = 0;
          for (int i = 0; i < 1000; i++) { s += i; }
          return s;
        }|}
  in
  let stats = Pass.mk_stats () in
  Pass.run_pipeline stats [ Simplifycfg.pass; Mem2reg.pass ] m;
  Alcotest.(check bool) "1000 trips not unrolled" false
    (Pass.run_pass stats Unroll.pass m)

(* ---- inlining ---- *)

let test_inline_device_calls () =
  let m =
    device_of
      {|__device__ int dbl(int x) { return x + x; }
        __device__ int f(int x) { return dbl(dbl(x)) + dbl(1); }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "f" in
  check Alcotest.int "no calls left" 0
    (count_matching f (function Ir.ICall _ -> true | _ -> false));
  let _, env = mem_env () in
  match Interp.run env m "f" [ Konst.ki32 5 ] with
  | Some k -> check Alcotest.int64 "4x+2" 22L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

let test_inline_refuses_recursion () =
  let m =
    device_of
      {|__device__ int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }|}
  in
  ignore (Pipeline.optimize_o3 m);
  let f = Ir.find_func m "fact" in
  Alcotest.(check bool) "recursive call survives" true
    (count_matching f (function Ir.ICall (_, "fact", _) -> true | _ -> false) > 0)

(* ---- semantic preservation of O3, differential ---- *)

(* run the "sum3" device function before and after O3 over random inputs *)
let qcheck_o3_preserves_semantics =
  let src =
    {|__device__ int work(int x, int y) {
        int s = 0;
        for (int i = 0; i < 7; i++) {
          if ((x + i) % 3 == 0) { s += (y << 1) + i; }
          else { s -= y / (i + 1); }
        }
        int t = x * y + s;
        return t > 0 && s < 100 ? t : s - t;
      }|}
  in
  let m_ref = device_of src in
  let m_opt = device_of src in
  ignore (Pipeline.optimize_o3 m_opt);
  Verify.verify_module m_opt;
  QCheck.Test.make ~name:"O3 preserves semantics (loops+branches)" ~count:300
    QCheck.(pair (int_range (-500) 500) (int_range (-500) 500))
    (fun (x, y) ->
      let _, env1 = mem_env () in
      let _, env2 = mem_env () in
      let r1 = Interp.run env1 m_ref "work" [ Konst.ki32 x; Konst.ki32 y ] in
      let r2 = Interp.run env2 m_opt "work" [ Konst.ki32 x; Konst.ki32 y ] in
      match (r1, r2) with
      | Some a, Some b -> Konst.equal a b
      | _ -> false)

(* the simplifycfg regression: && + ternary inside a loop, through O3 *)
let test_sc_ternary_regression () =
  let src =
    {|__device__ int f(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
          acc += (i > 4 && i < 9) ? 100 : 1;
        }
        return acc;
      }|}
  in
  let m = device_of src in
  ignore (Pipeline.optimize_o3 m);
  Verify.verify_module m;
  let _, env = mem_env () in
  match Interp.run env m "f" [ Konst.ki32 20 ] with
  | Some k -> check Alcotest.int64 "4 hits of 100 + 16 ones" 416L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

let test_o3_on_host_modules () =
  (* host modules with printf/malloc must survive O3 and verify *)
  let m =
    host_of
      {|int main() {
          double* a = (double*)malloc(64);
          double t = 0.0;
          for (int i = 0; i < 8; i++) { a[i] = (i % 2 == 0 && i > 3) ? 1.0 : 0.5; }
          for (int i = 0; i < 8; i++) { t += a[i]; }
          printf("%g\n", t);
          return 0;
        }|}
  in
  ignore (Pipeline.optimize_o3 m);
  Verify.verify_module m

(* Serve kernel [j] as a serve-churn miss compiles it: the AMD
   section's bitcode decoded, argument 1 folded to j + 2 and launch
   bounds set for blocks of 32. *)
let serve_kernels = 16
let serve_module = lazy (Proteus_core.Serve.build_module serve_kernels)

let serve_kernel j =
  let open Proteus_core in
  let sym = Serve.kernel_sym j in
  let k = Bitcode.decode_module (Extract.bitcode_of_kernel (Lazy.force serve_module) sym) in
  Specialize.apply Config.default k ~kernel:sym
    ~spec_values:[ (1, Konst.ki64 (j + 2)) ]
    ~block:32
    ~resolve_global:(fun g -> Alcotest.failf "serve kernel reads global %s" g);
  k

let charged_runs s = List.fold_left (fun acc (_, n) -> acc + n) 0 (Pass.run_counts s)

(* Every pass runs once per defined function per sweep. O3 sweeps this
   module twice: the first sweep changes it, the second changes
   nothing. [f] stays defined beside the kernel, so each count is
   2 functions x 2 sweeps x the pass's slots in Pipeline.o3. A run the
   memo skips counts like one that ran. *)
let test_pass_work_accounting () =
  let m =
    device_of
      {|__device__ int f(int x) { return x * 2 + 1; }
        __global__ void k(int* o, int n) { for (int i = 0; i < 4; i++) o[i] = f(n + i); }|}
  in
  let s = Pipeline.optimize_o3 m in
  check Alcotest.int "work units" 661 s.Pass.work;
  check
    Alcotest.(list (pair string int))
    "runs per pass"
    [ ("dce", 4); ("gvn", 8); ("inline", 4); ("instcombine", 8); ("licm", 4); ("mem2reg", 4);
      ("sccp", 8); ("simplifycfg", 12); ("unroll", 4) ]
    (List.sort compare (Pass.run_counts s));
  (* The memo's effect on a serve kernel, which O3 sweeps twice: its
     28 charged runs, of which the memo skips 15. *)
  let skips = ref 0 in
  let charged = charged_runs (Pipeline.run ~on_skip:(fun _ _ _ -> incr skips) (serve_kernel 3)) in
  check Alcotest.int "charged runs" 28 charged;
  check Alcotest.int "executed runs" 13 (charged - !skips)

(* ---- the memo's contracts, checked ---- *)

let counters (s : Pass.stats) =
  (s.Pass.sccp_folds, s.Pass.sccp_branches, s.Pass.unroll_loops, s.Pass.unroll_copies)

(* O3 over [m] with every run that executes checked against the first
   pass contract (a run that returns false changes neither the printed
   function nor a counter), and every run the memo skips re-run on a
   clone by [Pass.recheck]. Returns the charged runs, the skips and the
   violations. *)
let o3_checked (m : Ir.modul) =
  let bad = ref [] and skips = ref 0 in
  let checked (p : Pass.t) =
    {
      p with
      Pass.run =
        (fun st m f ->
          let text = Irpp.func_to_string f and before = counters st in
          let changed = p.Pass.run st m f in
          if (not changed) && Irpp.func_to_string f <> text then
            bad := Printf.sprintf "%s on %s: returned false, changed the function" p.name f.fname :: !bad;
          if (not changed) && counters st <> before then
            bad := Printf.sprintf "%s on %s: returned false, moved a counter" p.name f.fname :: !bad;
          changed);
    }
  in
  let on_skip p m f =
    incr skips;
    Option.iter (fun e -> bad := ("skipped " ^ e) :: !bad) (Pass.recheck p m f)
  in
  let s = Pipeline.run ~passes:(List.map checked Pipeline.o3) ~on_skip m in
  (charged_runs s, !skips, List.rev !bad)

(* ---- golden O3 digests ---- *)

(* The optimizer's output is a fixed point: a faster pass must return
   the same IR, so the simulated compile charge (Pass.work) and the
   counters SpecAdvisor calibrates against stay put. One row per
   program x vendor x module, and one per serve kernel as a serve miss
   compiles it, pins a digest of the post-O3 text, the work and the
   four counter deltas; one row per HeCBench Proteus cell
   x spec policy pins the JIT objects a cold run writes to its
   persistent cache, and one per app x vendor x driver mode the device
   object the driver embeds. A deliberate change to optimizer output
   replaces [golden] with the fresh table the failure prints. *)

let golden_programs =
  List.map (fun (a : Proteus_hecbench.App.t) -> (a.name, a.source)) Proteus_hecbench.Suite.apps
  @ List.map (fun (s : Proteus_examples.Sources.t) -> (s.name, s.source)) Proteus_examples.Sources.all

(* O3 over [m], then its row: the digest of the printed module, the
   work and the four counters. *)
let o3_row label m =
  let s = Pipeline.optimize_o3 m in
  Printf.sprintf "%s %s work=%d folds=%d branches=%d loops=%d copies=%d" label
    (Digest.to_hex (Digest.string (Irpp.module_to_string m)))
    s.Pass.work s.Pass.sccp_folds s.Pass.sccp_branches s.Pass.unroll_loops s.Pass.unroll_copies

let o3_rows () =
  List.concat_map
    (fun (name, src) ->
      List.concat_map
        (fun vendor ->
          let u = Compile.compile ~name ~vendor src in
          List.map
            (fun (side, m) ->
              o3_row (Printf.sprintf "%s/%s/%s" name (Lower.vendor_to_string vendor) side) m)
            [ ("host", u.Compile.host); ("device", u.Compile.device) ])
        [ Lower.Hip; Lower.Cuda ])
    golden_programs

(* Every module of the golden corpus through [o3_checked]: the memo's
   two contracts hold on every run, executed or skipped. *)
let test_memo_contracts () =
  let modules =
    List.concat_map
      (fun (name, src) ->
        List.concat_map
          (fun vendor ->
            let u = Compile.compile ~name ~vendor src in
            [ u.Compile.host; u.Compile.device ])
          [ Lower.Hip; Lower.Cuda ])
      golden_programs
    @ List.init serve_kernels serve_kernel
  in
  let runs, skips, bad =
    List.fold_left
      (fun (runs, skips, bad) m ->
        let n, k, b = o3_checked m in
        (runs + n, skips + k, bad @ b))
      (0, 0, []) modules
  in
  Printf.printf "memo: %d of %d pass runs skipped, %d violations\n" skips runs (List.length bad);
  check Alcotest.(list string) "no run breaks a contract" [] bad;
  check Alcotest.bool "the memo skipped runs" true (skips > 0)

let serve_rows () =
  List.init serve_kernels (fun j ->
      o3_row (Proteus_core.Serve.kernel_sym j ^ "/amd/spec") (serve_kernel j))

(* Every field Config.default takes from the environment, spelled out. *)
let golden_config policy dir =
  {
    Proteus_core.Config.default with
    persistent_dir = Some dir;
    verify_level = 0;
    verify_strict = false;
    spec_policy = policy;
    tier = false;
  }

let cache_rows () =
  let open Proteus_hecbench in
  List.concat_map
    (fun (a : App.t) ->
      List.concat_map
        (fun vendor ->
          let exe = Harness.compile_app a vendor Proteus_driver.Driver.Proteus in
          List.map
            (fun policy ->
              let dir = Harness.fresh_cache_dir () in
              ignore (Proteus_driver.Driver.run ~config:(golden_config policy dir) exe);
              let objs =
                Sys.readdir dir |> Array.to_list
                |> List.filter (fun f ->
                       String.starts_with ~prefix:"cache-jit-" f && Filename.check_suffix f ".o")
                |> List.sort compare
              in
              let body =
                List.map
                  (fun f -> f ^ "\n" ^ In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
                  objs
              in
              Harness.rm_rf dir;
              Printf.sprintf "%s/%s/%s objects=%d %s" a.App.name
                (match vendor with Proteus_gpu.Device.Amd -> "amd" | Proteus_gpu.Device.Nvidia -> "nvidia")
                (Proteus_core.Config.policy_name policy) (List.length objs)
                (Digest.to_hex (Digest.string (String.concat "\n" body))))
            Proteus_core.Config.[ Spec_all; Spec_advise; Spec_none ])
        [ Proteus_gpu.Device.Amd; Proteus_gpu.Device.Nvidia ])
    Suite.apps

(* One row per HeCBench app x vendor x driver mode: the digest of the
   embedded device object and the PTX size, which feeds the
   compile-time cost model. Harness.compile_app caches its exes, so the
   Proteus ones are the exes [cache_rows] runs. *)
let aot_rows () =
  let open Proteus_hecbench in
  List.concat_map
    (fun (a : App.t) ->
      List.concat_map
        (fun (vendor, vname) ->
          List.map
            (fun (mode, mname) ->
              let exe = Harness.compile_app a vendor mode in
              let fatbin = Proteus_backend.Mach.encode_obj exe.Proteus_driver.Driver.fatbin in
              Printf.sprintf "%s/%s/%s fatbin=%s ptx_bytes=%d" a.App.name vname mname
                (Digest.to_hex (Digest.string fatbin)) exe.Proteus_driver.Driver.ptx_bytes)
            Proteus_driver.Driver.[ (Aot, "aot"); (Proteus, "proteus") ])
        Proteus_gpu.Device.[ (Amd, "amd"); (Nvidia, "nvidia") ])
    Suite.apps

let golden = {|
ADAM/hip/host 0265c5977ee4da741f955875b980c63e work=1891 folds=0 branches=0 loops=0 copies=0
ADAM/hip/device a774924f624de8c92d615a8fae43b302 work=2793 folds=0 branches=0 loops=0 copies=0
ADAM/cuda/host 0c6d3fd8b316e8e475ba1181d9945f32 work=1891 folds=0 branches=0 loops=0 copies=0
ADAM/cuda/device a774924f624de8c92d615a8fae43b302 work=2793 folds=0 branches=0 loops=0 copies=0
RSBENCH/hip/host d78b064ed4b35e3c7826193b9ae73377 work=1499 folds=3 branches=1 loops=1 copies=44
RSBENCH/hip/device 3c100a08a5b2db2198377df406583923 work=43526 folds=0 branches=0 loops=0 copies=0
RSBENCH/cuda/host 8dc00a457d80665dc93d9f5485fc2516 work=1499 folds=3 branches=1 loops=1 copies=44
RSBENCH/cuda/device 3c100a08a5b2db2198377df406583923 work=43526 folds=0 branches=0 loops=0 copies=0
WSM5/hip/host f00d1ea2c88ed44d364a1d35c462e2e4 work=2235 folds=0 branches=0 loops=1 copies=68
WSM5/hip/device 52c96ce5af747778f24a3a6ea1b7447b work=19234 folds=0 branches=0 loops=0 copies=0
WSM5/cuda/host 1c284ba1b843ef3981c8981892beed52 work=2235 folds=0 branches=0 loops=1 copies=68
WSM5/cuda/device 52c96ce5af747778f24a3a6ea1b7447b work=19234 folds=0 branches=0 loops=0 copies=0
FEY-KAC/hip/host 6bcd4f299be9979757dd591bf616c5eb work=1167 folds=0 branches=0 loops=1 copies=25
FEY-KAC/hip/device 70eeed59fb3f7ec87e5033937b8bb7e3 work=3334 folds=0 branches=0 loops=0 copies=0
FEY-KAC/cuda/host 420a6d679238e88a5d87080801048025 work=1167 folds=0 branches=0 loops=1 copies=25
FEY-KAC/cuda/device 70eeed59fb3f7ec87e5033937b8bb7e3 work=3334 folds=0 branches=0 loops=0 copies=0
LULESH/hip/host 7f2a4b0372bcad3177a39e7891a45dc1 work=1839 folds=0 branches=0 loops=0 copies=0
LULESH/hip/device dceed240e03c9cd1c66f3e2c71a0dead work=3210 folds=0 branches=0 loops=0 copies=0
LULESH/cuda/host 1e2182eabae2690ca3fe68a295126e9a work=1839 folds=0 branches=0 loops=0 copies=0
LULESH/cuda/device dceed240e03c9cd1c66f3e2c71a0dead work=3210 folds=0 branches=0 loops=0 copies=0
SW4CK/hip/host 929b6fb926adb3ff70d51abf579b392d work=2576 folds=0 branches=0 loops=0 copies=0
SW4CK/hip/device 14ec5de76de7ced1326528b41e101620 work=82862 folds=0 branches=0 loops=0 copies=0
SW4CK/cuda/host 33099f7cac32160b7d655e83e01e4171 work=2576 folds=0 branches=0 loops=0 copies=0
SW4CK/cuda/device 14ec5de76de7ced1326528b41e101620 work=82862 folds=0 branches=0 loops=0 copies=0
quickstart/hip/host 0a0a8047d2d7c246c8129ef49aeb3e3a work=1706 folds=0 branches=0 loops=1 copies=44
quickstart/hip/device 0a146a3009e2992940610f6fd0dc3526 work=536 folds=0 branches=0 loops=0 copies=0
quickstart/cuda/host f303804f9b266f04620ffa6812c47faa work=1706 folds=0 branches=0 loops=1 copies=44
quickstart/cuda/device 0a146a3009e2992940610f6fd0dc3526 work=536 folds=0 branches=0 loops=0 copies=0
adam_training/hip/host 2e94fe60d4d30115027c47655923206d work=1768 folds=0 branches=0 loops=0 copies=0
adam_training/hip/device e6cd2f12dc2e1c2430574006dc534aa0 work=1847 folds=0 branches=0 loops=0 copies=0
adam_training/cuda/host a242d3176e19e0fbb58b0cbd3a35cf34 work=1768 folds=0 branches=0 loops=0 copies=0
adam_training/cuda/device e6cd2f12dc2e1c2430574006dc534aa0 work=1847 folds=0 branches=0 loops=0 copies=0
heat_stencil/hip/host 35dc6b4699698019550bfa29e0a94245 work=1677 folds=0 branches=0 loops=0 copies=0
heat_stencil/hip/device 9b81d9bab0529e6ded910b536f594548 work=1650 folds=0 branches=0 loops=0 copies=0
heat_stencil/cuda/host 41b6dccdcaa68204df5980be2ed439a5 work=1677 folds=0 branches=0 loops=0 copies=0
heat_stencil/cuda/device 9b81d9bab0529e6ded910b536f594548 work=1650 folds=0 branches=0 loops=0 copies=0
montecarlo_pi/hip/host b752b770b45c0c3d8e1566ad516b9099 work=56 folds=0 branches=0 loops=0 copies=0
montecarlo_pi/hip/device d5b4bd5f1b0f3871d82b753e35ff3986 work=1156 folds=0 branches=0 loops=0 copies=0
montecarlo_pi/cuda/host faedb74e44b27ff7eab174b75033124e work=56 folds=0 branches=0 loops=0 copies=0
montecarlo_pi/cuda/device d5b4bd5f1b0f3871d82b753e35ff3986 work=1156 folds=0 branches=0 loops=0 copies=0
serve_k0/amd/spec a61af7675b5a001f6921658e155f198b work=480 folds=0 branches=0 loops=0 copies=0
serve_k1/amd/spec a526786d4184d7756babfbb621c386ff work=504 folds=0 branches=0 loops=0 copies=0
serve_k2/amd/spec e6d772fdb2daee3195d3fa1a4af2e1b6 work=504 folds=0 branches=0 loops=0 copies=0
serve_k3/amd/spec 03f2efe7dd1e81e1e281a27d709816ba work=504 folds=0 branches=0 loops=0 copies=0
serve_k4/amd/spec dca2e2c0802b6fdc532c73e78dd8b50b work=504 folds=0 branches=0 loops=0 copies=0
serve_k5/amd/spec b91d1a5740cc6428aa340014d0088f4c work=504 folds=0 branches=0 loops=0 copies=0
serve_k6/amd/spec b861e7a44b875441b0ec3fc4f331a1d3 work=504 folds=0 branches=0 loops=0 copies=0
serve_k7/amd/spec 60d4e1c5976d9d9ce87b494fa1474793 work=504 folds=0 branches=0 loops=0 copies=0
serve_k8/amd/spec 994e0a8b0d4ece0e858d54869c5373f4 work=504 folds=0 branches=0 loops=0 copies=0
serve_k9/amd/spec 10fe252b72a7d7a2c160c20da0578d3c work=504 folds=0 branches=0 loops=0 copies=0
serve_k10/amd/spec 261f97b7d7ab3e76b1758596ef0a6f61 work=504 folds=0 branches=0 loops=0 copies=0
serve_k11/amd/spec 8da6c905ae106318ff50be1d7e1cb675 work=504 folds=0 branches=0 loops=0 copies=0
serve_k12/amd/spec dba97f46431d3aff1073598c499cd2b1 work=504 folds=0 branches=0 loops=0 copies=0
serve_k13/amd/spec 88bcc7c987b34e4758bdfb3c627de583 work=504 folds=0 branches=0 loops=0 copies=0
serve_k14/amd/spec b856936f6d1affa8f4e03e7010e5fc88 work=504 folds=0 branches=0 loops=0 copies=0
serve_k15/amd/spec 7d731c8f1f482f7ca10ebf03018421a2 work=504 folds=0 branches=0 loops=0 copies=0
ADAM/amd/all objects=1 dc160203479e301b88477d4d7a1f31a3
ADAM/amd/advise objects=1 dc160203479e301b88477d4d7a1f31a3
ADAM/amd/none objects=1 6ef729bcecdbef9d7d1a19a7260034c8
ADAM/nvidia/all objects=1 0327d50e7be677784c92cf57191bba22
ADAM/nvidia/advise objects=1 0327d50e7be677784c92cf57191bba22
ADAM/nvidia/none objects=1 05815399b197d405a431e019299a75fc
RSBENCH/amd/all objects=1 0732df1368b7f18e8e038065876225ce
RSBENCH/amd/advise objects=1 0732df1368b7f18e8e038065876225ce
RSBENCH/amd/none objects=1 1a64b842f2a285ca1c6a5c2b6eb1e64d
RSBENCH/nvidia/all objects=1 f00dbb74ae13b8037186736006a884c0
RSBENCH/nvidia/advise objects=1 f00dbb74ae13b8037186736006a884c0
RSBENCH/nvidia/none objects=1 56bdef21a40c192dcaba222c6aa4036d
WSM5/amd/all objects=1 43ee17a9ae06134a7936dc4da0588e5d
WSM5/amd/advise objects=1 43ee17a9ae06134a7936dc4da0588e5d
WSM5/amd/none objects=1 64c608c57514e561a36150b1afd7aeb9
WSM5/nvidia/all objects=1 8c2a35b017598e2fd55825305a57927b
WSM5/nvidia/advise objects=1 8c2a35b017598e2fd55825305a57927b
WSM5/nvidia/none objects=1 d8fff5dadaade3adbc2ed0af377dac70
FEY-KAC/amd/all objects=1 98bf988a999abb39e75a8e024c032d6c
FEY-KAC/amd/advise objects=1 98bf988a999abb39e75a8e024c032d6c
FEY-KAC/amd/none objects=1 e6bd08b7a8218c9fa59147ebdd5b14c2
FEY-KAC/nvidia/all objects=1 884329cd384cfb5a9ccd933e83203f5e
FEY-KAC/nvidia/advise objects=1 884329cd384cfb5a9ccd933e83203f5e
FEY-KAC/nvidia/none objects=1 16c0ec2410b91803c1a4ee2c493aa4f9
LULESH/amd/all objects=2 7a69dcb191fc0d68dcbdd78d86830faf
LULESH/amd/advise objects=2 7a69dcb191fc0d68dcbdd78d86830faf
LULESH/amd/none objects=2 d79346fd276ad90f336d87e807d9fbf8
LULESH/nvidia/all objects=2 7b345ce31f1f7e852d2572efbf75f072
LULESH/nvidia/advise objects=2 7b345ce31f1f7e852d2572efbf75f072
LULESH/nvidia/none objects=2 55a98b15e0e7f9e63cb28b4d7cd3dd4a
SW4CK/amd/all objects=5 32004c697500e67452eb75a99eb62311
SW4CK/amd/advise objects=5 463628b49426892a00619491632c8643
SW4CK/amd/none objects=5 211891d1042ebef9e96f530011f0329d
SW4CK/nvidia/all objects=5 e4944d394b61021768f7937ac35ca75a
SW4CK/nvidia/advise objects=5 8e57b4eb33d28875d3ab564528b1c9a8
SW4CK/nvidia/none objects=5 4e52da2eefcefcb1db35c2e9c39177bb
ADAM/amd/aot fatbin=435f6671f70e21d108f1c20726339bea ptx_bytes=0
ADAM/amd/proteus fatbin=8f2042adeb1fe7e33a1e57d4f32bd71a ptx_bytes=0
ADAM/nvidia/aot fatbin=521c1f410019fed41cf5b7cdd1a3cea7 ptx_bytes=3068
ADAM/nvidia/proteus fatbin=695072a712e93952a9f013493d52ec0b ptx_bytes=3110
RSBENCH/amd/aot fatbin=65425f0f8e86d67e40db1276f8a7ace6 ptx_bytes=0
RSBENCH/amd/proteus fatbin=65219c3de64e12767184a776f1d1dc18 ptx_bytes=0
RSBENCH/nvidia/aot fatbin=636d80d8a49a34246413cb63d49f3ba6 ptx_bytes=46790
RSBENCH/nvidia/proteus fatbin=aa7c06088e75fda303a31a1a1a8e2814 ptx_bytes=46835
WSM5/amd/aot fatbin=b92f15c5ae622d871ca1fb105e2a99a2 ptx_bytes=0
WSM5/amd/proteus fatbin=110155aa43858c0d561d296dcbfd9c54 ptx_bytes=0
WSM5/nvidia/aot fatbin=863e9dd7d5da9556f9bdc2cace27bc38 ptx_bytes=20540
WSM5/nvidia/proteus fatbin=0ba066d197dcf88b950f20dae4d87a64 ptx_bytes=20584
FEY-KAC/amd/aot fatbin=72f8b241e4080b2529d39506454803d1 ptx_bytes=0
FEY-KAC/amd/proteus fatbin=e8d75204096525f91de17a4f22526def ptx_bytes=0
FEY-KAC/nvidia/aot fatbin=65cbd02b457b6bf20c2cc61c0b4e82ce ptx_bytes=3317
FEY-KAC/nvidia/proteus fatbin=50be38ddcf05b8239366349d861379c0 ptx_bytes=3361
LULESH/amd/aot fatbin=13430f6d7169450404e7852f1bd38952 ptx_bytes=0
LULESH/amd/proteus fatbin=8f90504686356a6944befb9d2a54abcb ptx_bytes=0
LULESH/nvidia/aot fatbin=b64f34b88d81ad17df94046b0dd03e5f ptx_bytes=3792
LULESH/nvidia/proteus fatbin=d7b69b7216ff190e014845578ed8cfcd ptx_bytes=3887
SW4CK/amd/aot fatbin=3b7f3ba2875d19317422213773681587 ptx_bytes=0
SW4CK/amd/proteus fatbin=a2b9dcb322de37bd2e38abb1bb019161 ptx_bytes=0
SW4CK/nvidia/aot fatbin=695bb38f323780b34ee0c0bf7bfcb0fa ptx_bytes=78184
SW4CK/nvidia/proteus fatbin=67001cc386ffe041807e7534b776e310 ptx_bytes=78414
|}

let test_golden_digests () =
  let fresh = o3_rows () @ serve_rows () @ cache_rows () @ aot_rows () in
  let expected = String.split_on_char '\n' (String.trim golden) in
  if fresh <> expected then begin
    Printf.eprintf "fresh golden table:\n%s\n%!" (String.concat "\n" fresh);
    List.iter (fun row -> if not (List.mem row expected) then Printf.eprintf "changed: %s\n%!" row) fresh;
    Alcotest.failf "O3 output or JIT or AOT objects differ from the golden table (%d rows)"
      (List.length expected)
  end

let () =
  Alcotest.run "opt"
    [
      ( "mem2reg",
        [
          Alcotest.test_case "promotes scalars" `Quick test_mem2reg_promotes;
          Alcotest.test_case "keeps escaping allocas" `Quick test_mem2reg_keeps_escaping;
        ] );
      ( "fold",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "algebraic identities" `Quick test_algebraic_identities;
          Alcotest.test_case "fast-math rules" `Quick test_fastmath_rules;
          Alcotest.test_case "math intrinsics" `Quick test_math_intrinsic_folding;
        ] );
      ( "sccp",
        [
          Alcotest.test_case "dead branch elimination" `Quick test_sccp_kills_dead_branch;
          Alcotest.test_case "loop counter is not folded" `Quick test_sccp_loop_counter_stays;
          Alcotest.test_case "phi over a dead edge folds" `Quick test_sccp_phi_over_dead_edge_folds;
          Alcotest.test_case "constant division by zero" `Quick test_sccp_div_by_zero;
          Alcotest.test_case "a clean run counts nothing" `Quick test_sccp_clean_run_counts_nothing;
          qtest qcheck_sccp_matches_reference;
          Alcotest.test_case "reference solver on HeCBench" `Quick test_sccp_matches_reference_hecbench;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead code" `Quick test_dce;
          Alcotest.test_case "keeps stores" `Quick test_dce_keeps_stores;
        ] );
      ("gvn", [ Alcotest.test_case "dedups expressions" `Quick test_gvn_dedups ]);
      ("licm", [ Alcotest.test_case "hoists invariants" `Quick test_licm_hoists ]);
      ( "unroll",
        [
          Alcotest.test_case "constant trip count" `Quick test_unroll_constant_trip;
          Alcotest.test_case "runtime trip stays" `Quick test_no_unroll_runtime_trip;
          Alcotest.test_case "threshold respected" `Quick test_no_unroll_above_threshold;
        ] );
      ( "inline",
        [
          Alcotest.test_case "inlines device calls" `Quick test_inline_device_calls;
          Alcotest.test_case "refuses recursion" `Quick test_inline_refuses_recursion;
        ] );
      ( "pipeline",
        [
          qtest qcheck_o3_preserves_semantics;
          Alcotest.test_case "sc+ternary regression" `Quick test_sc_ternary_regression;
          Alcotest.test_case "host module O3" `Quick test_o3_on_host_modules;
          Alcotest.test_case "work accounting" `Quick test_pass_work_accounting;
          Alcotest.test_case "memo contracts and checking twin" `Quick test_memo_contracts;
          Alcotest.test_case "golden O3 digests" `Quick test_golden_digests;
        ] );
    ]
