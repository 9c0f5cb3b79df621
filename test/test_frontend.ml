(* Frontend tests: lexer, parser, semantic errors, lowering, and
   execution of host programs through the interpreter. *)

open Proteus_ir
open Proteus_frontend
open Proteus_gpu
open Proteus_runtime

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks src =
  Array.to_list (Array.map fst (Lexer.tokenize src).Lexer.toks)

let test_lex_numbers () =
  (match toks "42 0x1F 7L 1.5 2e3 3.5f 9f" with
  | [ Lexer.Tint (42L, false); Lexer.Tint (31L, false); Lexer.Tint (7L, true);
      Lexer.Tfloat (1.5, true); Lexer.Tfloat (2000.0, true);
      Lexer.Tfloat (3.5, false); Lexer.Tfloat (9.0, false); Lexer.Teof ] -> ()
  | ts -> Alcotest.failf "unexpected tokens: %s"
            (String.concat " " (List.map Lexer.token_to_string ts)))

let test_lex_strings () =
  match toks {|"a\nb\\c"|} with
  | [ Lexer.Tstr "a\nb\\c"; Lexer.Teof ] -> ()
  | _ -> Alcotest.fail "string escapes"

let test_lex_comments () =
  check Alcotest.int "comments skipped" 2
    (List.length (toks "x // line\n /* block\n still */ y") - 1)

let test_lex_chevrons () =
  match toks "k<<<a, b>>>()" with
  | [ Lexer.Tid "k"; Lexer.Tpunct "<<<"; Lexer.Tid "a"; Lexer.Tpunct ",";
      Lexer.Tid "b"; Lexer.Tpunct ">>>"; Lexer.Tpunct "("; Lexer.Tpunct ")";
      Lexer.Teof ] -> ()
  | ts -> Alcotest.failf "chevrons: %s"
            (String.concat " " (List.map Lexer.token_to_string ts))

let test_lex_error () =
  Alcotest.(check bool) "bad char raises" true
    (try ignore (Lexer.tokenize "int $x;"); false with Ast.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser: structure and errors *)

let parses src = try ignore (Parse.parse_program src); true with Ast.Error _ -> false

let test_parse_ok () =
  Alcotest.(check bool) "function" true (parses "int f(int x) { return x + 1; }");
  Alcotest.(check bool) "kernel" true
    (parses "__global__ void k(float* x) { x[0] = 1.0f; }");
  Alcotest.(check bool) "for" true
    (parses "int f() { int s = 0; for (int i = 0; i < 3; i++) s += i; return s; }");
  Alcotest.(check bool) "do-while" true
    (parses "int f() { int i = 0; do { i++; } while (i < 3); return i; }");
  Alcotest.(check bool) "attribute" true
    (parses {|__global__ __attribute__((annotate("jit", 1))) void k(int n) {}|})

let test_parse_errors () =
  Alcotest.(check bool) "missing semicolon" false (parses "int f() { return 1 }");
  Alcotest.(check bool) "unbalanced paren" false (parses "int f( { return 1; }");
  Alcotest.(check bool) "bad attribute" false
    (parses {|__attribute__((frobnicate)) void k() {}|})

(* ------------------------------------------------------------------ *)
(* Compile + run helper *)

let run_host ?(vendor = Device.Nvidia) src =
  let u =
    Compile.compile
      ~vendor:(match vendor with Device.Amd -> Lower.Hip | Device.Nvidia -> Lower.Cuda)
      src
  in
  let rt = Gpurt.create (Device.by_vendor vendor) in
  (* AOT-compile the device side so kernels can launch *)
  ignore (Proteus_opt.Pipeline.optimize_o3 u.Compile.device);
  let obj, _ = Toolchain.compile ~vendor u.Compile.device in
  let _ = Gpurt.load_module rt obj in
  Hostexec.run rt u.Compile.host

let output src = (run_host src).Hostexec.output

let test_arith_semantics () =
  let out =
    output
      {|int main() {
          int a = 7, b = 3;
          printf("%d %d %d %d %d\n", a + b, a - b, a * b, a / b, a % b);
          printf("%d %d %d\n", (a << 2) | 1, a & b, a ^ b);
          return 0;
        }|}
  in
  check Alcotest.string "arith" "10 4 21 2 1\n29 3 4\n" out

let test_precedence () =
  check Alcotest.string "precedence" "14 20 1\n"
    (output
       {|int main() { printf("%d %d %d\n", 2 + 3 * 4, (2 + 3) * 4, 1 + 2 < 4); return 0; }|})

let test_float_formats () =
  check Alcotest.string "floats" "3.5 0.25\n"
    (output {|int main() { printf("%g %g\n", 3.5, 1.0 / 4.0); return 0; }|})

let test_shortcircuit () =
  (* the right operand of && must not execute when the left is false:
     observable through a side effect on memory *)
  let out =
    output
      {|int side(int* p) { p[0] = p[0] + 1; return 1; }
        int main() {
          int* flag = (int*)malloc(4);
          flag[0] = 0;
          int x = 0;
          if (x != 0 && side(flag)) { printf("then\n"); }
          printf("sides=%d\n", flag[0]);
          if (x == 0 || side(flag)) { printf("or-taken\n"); }
          printf("sides=%d\n", flag[0]);
          return 0;
        }|}
  in
  check Alcotest.string "short circuit" "sides=0\nor-taken\nsides=0\n" out

let test_ternary_and_loops () =
  let out =
    output
      {|int main() {
          int evens = 0, odds = 0;
          for (int i = 0; i < 10; i++) {
            if (i % 2 == 0) evens++; else odds++;
            if (i == 7) break;
          }
          int w = 0;
          while (w < 5) { w++; if (w == 3) continue; }
          printf("%d %d %d %s\n", evens, odds, w, evens > odds ? "E" : "O");
          return 0;
        }|}
  in
  check Alcotest.string "loops" "4 4 5 O\n" out

let test_pointer_arith () =
  let out =
    output
      {|int main() {
          double* a = (double*)malloc(32);
          for (int i = 0; i < 4; i++) a[i] = (double)i * 1.5;
          double* p = a + 1;
          printf("%g %g %g\n", *p, p[1], *(a + 3));
          return 0;
        }|}
  in
  check Alcotest.string "pointer arithmetic" "1.5 3 4.5\n" out

let test_casts () =
  let out =
    output
      {|int main() {
          double d = 3.9;
          int i = (int)d;
          long l = (long)i * 1000000000L * 10L;
          float f = (float)0.1;
          printf("%d %ld %d\n", i, l, f != 0.1);
          return 0;
        }|}
  in
  check Alcotest.string "casts" "3 30000000000 1\n" out

let test_exit_code () =
  let r = run_host {|int main() { exit(3); return 0; }|} in
  check Alcotest.int "exit()" 3 r.Hostexec.exit_code

let test_globals () =
  let out =
    output
      {|int counter = 5;
        double table[3];
        int bump() { counter = counter + 2; return counter; }
        int main() {
          table[1] = 2.5;
          printf("%d %d %g\n", bump(), counter, table[1]);
          return 0;
        }|}
  in
  check Alcotest.string "host globals" "7 7 2.5\n" out

let semantic_error src =
  try
    ignore (Compile.compile ~vendor:Lower.Cuda src);
    false
  with Ast.Error _ -> true

let test_semantic_errors () =
  Alcotest.(check bool) "unknown variable" true
    (semantic_error "int main() { return nope; }");
  Alcotest.(check bool) "threadIdx in host code" true
    (semantic_error "int main() { return threadIdx.x; }");
  Alcotest.(check bool) "launch arity" true
    (semantic_error
       {|__global__ void k(int a, int b) {}
         int main() { k<<<1, 1>>>(1); return 0; }|});
  Alcotest.(check bool) "launch of non-kernel" true
    (semantic_error {|int f() { return 0; } int main() { f<<<1,1>>>(); return 0; }|});
  Alcotest.(check bool) "undeclared function" true
    (semantic_error "int main() { return mystery(); }");
  Alcotest.(check bool) "redeclaration" true
    (semantic_error "int main() { int x = 1; int x = 2; return x; }");
  Alcotest.(check bool) "break outside loop" true
    (semantic_error "int main() { break; return 0; }")

let test_kernel_launch_end_to_end () =
  let out =
    output
      {|__global__ void square(float* v, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) { v[i] = v[i] * v[i]; }
        }
        int main() {
          int n = 100;
          float* h = (float*)malloc(n * 4);
          for (int i = 0; i < n; i++) h[i] = (float)i;
          float* d = (float*)cudaMalloc(n * 4);
          cudaMemcpyHtoD(d, h, n * 4);
          square<<<(n + 31) / 32, 32>>>(d, n);
          cudaMemcpyDtoH(h, d, n * 4);
          float s = 0.0f;
          for (int i = 0; i < n; i++) s += h[i];
          printf("sum=%g\n", s);
          return 0;
        }|}
  in
  (* sum of squares 0..99 = 328350 *)
  check Alcotest.string "kernel result" "sum=328350\n" out

let test_device_function_call () =
  let out =
    output
      {|__device__ float axpb(float a, float x, float b) { return a * x + b; }
        __global__ void k(float* v, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) v[i] = axpb(2.0f, v[i], 1.0f);
        }
        int main() {
          float* d = (float*)cudaMalloc(16);
          float* h = (float*)malloc(16);
          for (int i = 0; i < 4; i++) h[i] = (float)i;
          cudaMemcpyHtoD(d, h, 16);
          k<<<1, 4>>>(d, 4);
          cudaMemcpyDtoH(h, d, 16);
          printf("%g %g %g %g\n", h[0], h[1], h[2], h[3]);
          return 0;
        }|}
  in
  check Alcotest.string "device call" "1 3 5 7\n" out

let test_vendor_mapping () =
  (* hip vendor: API externs are hip-named even when source says cuda *)
  let u =
    Compile.compile ~vendor:Lower.Hip
      {|int main() { void* p = cudaMalloc(64); cudaFree(p); return 0; }|}
  in
  Alcotest.(check bool) "hipMalloc declared" true
    (Ir.find_func_opt u.Compile.host "hipMalloc" <> None);
  Alcotest.(check bool) "no cudaMalloc decl" true
    (Ir.find_func_opt u.Compile.host "cudaMalloc" = None)

let test_split_compilation () =
  let u =
    Compile.compile ~vendor:Lower.Cuda
      {|__device__ double coef;
        __global__ void k(double* v) { v[0] = coef; }
        int main() { return 0; }|}
  in
  (* device side: kernel + device global; host side: stub + registration ctor *)
  Alcotest.(check bool) "kernel on device side" true
    (Ir.find_func_opt u.Compile.device "k" <> None);
  Alcotest.(check bool) "device global on device side" true
    (Ir.find_global_opt u.Compile.device "coef" <> None);
  Alcotest.(check bool) "stub on host side" true
    (Ir.find_func_opt u.Compile.host "__stub_k" <> None);
  Alcotest.(check bool) "no kernel body on host side" true
    (Ir.find_func_opt u.Compile.host "k" = None);
  check Alcotest.(list string) "ctor registered" [ "__module_ctor" ] u.Compile.host.Ir.ctors

let test_module_id_tracks_source () =
  let u1 = Compile.compile ~vendor:Lower.Cuda "int main() { return 1; }" in
  let u2 = Compile.compile ~vendor:Lower.Cuda "int main() { return 2; }" in
  Alcotest.(check bool) "different source, different mid" false
    (u1.Compile.device.Ir.mid = u2.Compile.device.Ir.mid)

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "strings" `Quick test_lex_strings;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "launch chevrons" `Quick test_lex_chevrons;
          Alcotest.test_case "errors" `Quick test_lex_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "valid programs" `Quick test_parse_ok;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "integer arithmetic" `Quick test_arith_semantics;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "float printf" `Quick test_float_formats;
          Alcotest.test_case "short-circuit evaluation" `Quick test_shortcircuit;
          Alcotest.test_case "loops/break/continue/ternary" `Quick test_ternary_and_loops;
          Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arith;
          Alcotest.test_case "casts" `Quick test_casts;
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "host globals" `Quick test_globals;
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
        ] );
      ( "gpu programs",
        [
          Alcotest.test_case "kernel launch end-to-end" `Quick test_kernel_launch_end_to_end;
          Alcotest.test_case "device function call" `Quick test_device_function_call;
          Alcotest.test_case "vendor API mapping" `Quick test_vendor_mapping;
          Alcotest.test_case "split compilation" `Quick test_split_compilation;
          Alcotest.test_case "module id tracks source" `Quick test_module_id_tracks_source;
        ] );
    ]
