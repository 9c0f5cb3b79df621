(* Runtime tests: module loading, registration, memcpy, the simulated
   clock, printf formatting and program exit handling. *)

open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu
open Proteus_runtime

let check = Alcotest.check

let rt () = Gpurt.create (Device.by_vendor Device.Nvidia)

let compile_unit ?(vendor = Device.Nvidia) src =
  let fe = match vendor with Device.Amd -> Lower.Hip | Device.Nvidia -> Lower.Cuda in
  let u = Compile.compile ~vendor:fe src in
  ignore (Proteus_opt.Pipeline.optimize_o3 u.Compile.device);
  let obj, _ = Toolchain.compile ~vendor u.Compile.device in
  (u, obj)

(* ---- module loading & symbols ---- *)

let test_load_inits_globals () =
  let _, obj =
    compile_unit
      {|__device__ double coefs[4];
        __device__ int mode;
        __global__ void touch(double* o) { o[0] = coefs[0] + (double)mode; }
        int main() { return 0; }|}
  in
  let ctx = rt () in
  let _lm = Gpurt.load_module ctx obj in
  (match Gpurt.get_symbol_address ctx "coefs" with
  | Some a -> Alcotest.(check bool) "coefs allocated" true (Int64.to_int a > 0)
  | None -> Alcotest.fail "coefs not found");
  (match Gpurt.get_symbol_address ctx "mode" with
  | Some _ -> ()
  | None -> Alcotest.fail "mode not found");
  check Alcotest.(option int) "unknown symbol" None
    (Option.map Int64.to_int (Gpurt.get_symbol_address ctx "nothere"))

let test_load_string_init () =
  let ctx = rt () in
  let obj =
    { Mach.okind = Mach.VSass; kernels = [];
      oglobals =
        [ { Ir.gname = "blob"; gty = Types.TArr (Types.TInt 8, 5);
            gspace = Types.AS_global; ginit = Ir.InitString "abcd";
            gconst = true; gextern = false } ];
      sections = [] }
  in
  let _ = Gpurt.load_module ctx obj in
  match Gpurt.get_symbol_address ctx "blob" with
  | Some a ->
      check Alcotest.string "content" "abcd" (Gpurt.read_device_bytes ctx a 4)
  | None -> Alcotest.fail "blob missing"

let test_registration () =
  let ctx = rt () in
  Gpurt.register_function ctx ~stub_addr:0x1000L ~sym:"daxpy";
  check Alcotest.(option string) "resolves" (Some "daxpy") (Gpurt.sym_of_stub ctx 0x1000L);
  check Alcotest.(option string) "unknown stub" None (Gpurt.sym_of_stub ctx 0x2000L)

let test_memcpy_roundtrip () =
  let ctx = rt () in
  let host = Gmem.create () in
  let h = Gmem.alloc host 64 and d = Gpurt.dmalloc ctx 64 in
  for i = 0 to 7 do
    Gmem.write_f64 host (Int64.add h (Int64.of_int (i * 8))) (float_of_int (i * i))
  done;
  Gpurt.memcpy_h2d ctx ~host ~src:h ~dst:d ~bytes:64;
  let h2 = Gmem.alloc host 64 in
  Gpurt.memcpy_d2h ctx ~host ~src:d ~dst:h2 ~bytes:64;
  for i = 0 to 7 do
    check (Alcotest.float 0.0) "roundtrip"
      (float_of_int (i * i))
      (Gmem.read_f64 host (Int64.add h2 (Int64.of_int (i * 8))))
  done

let test_clock_advances () =
  let ctx = rt () in
  let t0 = Clock.read ctx.Gpurt.clock in
  let _ = Gpurt.dmalloc ctx 1024 in
  let host = Gmem.create () in
  let h = Gmem.alloc host 1024 in
  Gpurt.memcpy_h2d ctx ~host ~src:h ~dst:(Gpurt.dmalloc ctx 1024) ~bytes:1024;
  Alcotest.(check bool) "clock moved" true (Clock.read ctx.Gpurt.clock > t0)

(* ---- host execution ---- *)

let run_src ?vendor src =
  let u, obj = compile_unit ?vendor src in
  let ctx =
    match vendor with
    | Some Device.Amd -> Gpurt.create (Device.by_vendor Device.Amd)
    | _ -> rt ()
  in
  let _ = Gpurt.load_module ctx obj in
  Hostexec.run ctx u.Compile.host

let test_printf_formats () =
  let r =
    run_src
      {|int main() {
          printf("int=%d long=%ld neg=%d\n", 42, 1234567890123L, -7);
          printf("f=%f g=%g e=%e\n", 1.5, 0.125, 100.0);
          printf("s=%s c=%c pct=%%\n", "str", 88);
          return 0;
        }|}
  in
  check Alcotest.string "formats"
    "int=42 long=1234567890123 neg=-7\nf=1.500000 g=0.125 e=1.000000e+02\ns=str c=X pct=%\n"
    r.Hostexec.output

let test_exit_codes () =
  check Alcotest.int "return code" 5 (run_src {|int main() { return 5; }|}).Hostexec.exit_code;
  check Alcotest.int "exit()" 9
    (run_src {|int main() { exit(9); return 0; }|}).Hostexec.exit_code

let test_host_instr_counting () =
  let r = run_src {|int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; return 0; }|} in
  Alcotest.(check bool) "host instructions counted" true (r.Hostexec.host_instrs > 300)

let test_unknown_extern_fails () =
  (* calling a declared-but-unhandled extern traps cleanly *)
  let u = Compile.compile ~vendor:Lower.Cuda {|int main() { return 0; }|} in
  (* inject a call to a bogus extern *)
  let main = Ir.find_func u.Compile.host "main" in
  u.Compile.host.Ir.funcs <-
    u.Compile.host.Ir.funcs
    @ [ Ir.create_func ~kind:Ir.Host ~is_decl:true "mystery" [] Types.TVoid ];
  (Ir.entry main).Ir.insts <-
    (Ir.entry main).Ir.insts @ [ Ir.ICall (None, "mystery", []) ];
  let ctx = rt () in
  Alcotest.(check bool) "raises" true
    (try ignore (Hostexec.run ctx u.Compile.host); false with Failure _ -> true)

let test_device_global_shared_between_kernels () =
  (* one kernel writes a device global, another reads it back: they must
     observe the same storage (the dynamic-linking invariant of 3.3) *)
  let r =
    run_src
      {|__device__ double stash;
        __global__ void put(double v) { stash = v; }
        __global__ void get(double* out) { out[0] = stash; }
        int main() {
          double* d = (double*)cudaMalloc(8);
          put<<<1, 1>>>(6.75);
          get<<<1, 1>>>(d);
          double h = 0.0;
          cudaMemcpyDtoH(&h, d, 8);
          printf("stash=%g\n", h);
          return 0;
        }|}
  in
  check Alcotest.string "global state shared" "stash=6.75\n" r.Hostexec.output

let test_cuda_fatbin_drops_sections () =
  let _, obj = compile_unit {|__global__ void k(int* p) { p[0] = 1; } int main(){return 0;}|} in
  let obj = { obj with Mach.sections = [ (".jit.k", "data") ] } in
  let cuda = Toolchain.embed ~vendor:Device.Nvidia obj in
  check Alcotest.int "CUDA strips custom sections" 0 (List.length cuda.Mach.sections);
  let hip = Toolchain.embed ~vendor:Device.Amd obj in
  check Alcotest.int "HIP keeps them" 1 (List.length hip.Mach.sections)

let test_vendor_flavours_run_same_program () =
  let src =
    {|__global__ void inc(int* v, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) v[i] = v[i] + 1;
      }
      int main() {
        int n = 64;
        int* h = (int*)malloc(n * 4);
        for (int i = 0; i < n; i++) h[i] = i;
        int* d = (int*)cudaMalloc(n * 4);
        cudaMemcpyHtoD(d, h, n * 4);
        inc<<<1, 64>>>(d, n);
        cudaMemcpyDtoH(h, d, n * 4);
        int s = 0;
        for (int i = 0; i < n; i++) s += h[i];
        printf("s=%d\n", s);
        return 0;
      }|}
  in
  let a = run_src ~vendor:Device.Amd src in
  let b = run_src ~vendor:Device.Nvidia src in
  check Alcotest.string "same output on both vendors" a.Hostexec.output b.Hostexec.output;
  check Alcotest.string "expected sum" "s=2080\n" a.Hostexec.output

let () =
  Alcotest.run "runtime"
    [
      ( "modules",
        [
          Alcotest.test_case "globals allocated at load" `Quick test_load_inits_globals;
          Alcotest.test_case "string initializers" `Quick test_load_string_init;
          Alcotest.test_case "stub registration" `Quick test_registration;
          Alcotest.test_case "fatbin section policy" `Quick test_cuda_fatbin_drops_sections;
        ] );
      ( "memory",
        [
          Alcotest.test_case "memcpy roundtrip" `Quick test_memcpy_roundtrip;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
        ] );
      ( "hostexec",
        [
          Alcotest.test_case "printf formats" `Quick test_printf_formats;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "instruction accounting" `Quick test_host_instr_counting;
          Alcotest.test_case "unknown extern" `Quick test_unknown_extern_fails;
          Alcotest.test_case "device globals shared" `Quick test_device_global_shared_between_kernels;
          Alcotest.test_case "both vendor flavours" `Quick test_vendor_flavours_run_same_program;
        ] );
    ]
