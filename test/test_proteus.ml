(* Proteus core tests: annotations, extraction, plugin transformations,
   specialization keys, the two-level cache, and the JIT runtime end to
   end (cold/warm caches, specialization correctness across modes). *)

open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu
open Proteus_core
open Proteus_driver

let check = Alcotest.check
let qtest = Qseed.qtest

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

(* ---- annotations ---- *)

let test_annotations_parsed () =
  let u = Compile.compile ~vendor:Lower.Cuda daxpy_src in
  let annots = Annotate.jit_annotations u.Compile.device in
  check Alcotest.int "one annotation" 1 (List.length annots);
  let a = List.hd annots in
  check Alcotest.string "kernel" "daxpy" a.Annotate.kernel;
  check Alcotest.(list int) "spec args" [ 1; 4 ] a.Annotate.spec_args;
  (* host side sees the stub annotated *)
  let host_annots = Annotate.jit_annotations u.Compile.host in
  check Alcotest.string "stub annotated" "__stub_daxpy"
    (List.hd host_annots).Annotate.kernel

(* The generated argument lists are mixed with the two edge masks: 0
   (no argument) and bit 63 alone (argument 64, the sign bit). *)
let qcheck_mask_roundtrip =
  QCheck.Test.make ~name:"spec-arg mask roundtrip" ~count:200
    QCheck.(
      frequency
        [
          (1, always []);
          (1, always [ 64 ]);
          (18, list_of_size (Gen.int_range 0 10) (int_range 1 64));
        ])
    (fun args ->
      let uniq = List.sort_uniq compare args in
      Annotate.args_of_mask (Annotate.mask_of_args uniq) = uniq)

(* [args_of_mask] visits only the set bits; the reference tests all
   64 bits from the top down. Masks 0, -1 (all 64 arguments) and bit 63
   alone come first, then random masks. *)
let qcheck_args_of_mask =
  let walk64 mask =
    let rec go bit acc =
      if bit < 0 then acc
      else
        let set = not (Int64.equal (Int64.logand mask (Int64.shift_left 1L bit)) 0L) in
        go (bit - 1) (if set then (bit + 1) :: acc else acc)
    in
    go 63 []
  in
  QCheck.Test.make ~name:"args_of_mask = the 64-bit walk" ~count:500
    QCheck.(
      frequency
        [ (1, always 0L); (1, always (-1L)); (1, always Int64.min_int); (17, int64) ])
    (fun m -> Annotate.args_of_mask m = walk64 m)

(* ---- extraction ---- *)

let test_extract_standalone () =
  let src =
    {|__device__ double table[8];
      __device__ double helper(double x) { return x * 2.0; }
      __device__ double unrelated(double x) { return x + 1.0; }
      __global__ __attribute__((annotate("jit", 2)))
      void k(double* v, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) v[i] = helper(v[i]) + table[i % 8];
      }
      __global__ void other(double* v) { v[0] = unrelated(v[0]); }
      int main() { return 0; }|}
  in
  let u = Compile.compile ~vendor:Lower.Cuda src in
  let sub = Extract.extract_kernel u.Compile.device "k" in
  Alcotest.(check bool) "kernel present" true (Ir.find_func_opt sub "k" <> None);
  Alcotest.(check bool) "called helper present" true (Ir.find_func_opt sub "helper" <> None);
  Alcotest.(check bool) "unrelated function absent" true
    (Ir.find_func_opt sub "unrelated" = None);
  Alcotest.(check bool) "other kernel absent" true (Ir.find_func_opt sub "other" = None);
  (match Ir.find_global_opt sub "table" with
  | Some g -> Alcotest.(check bool) "global is extern" true g.Ir.gextern
  | None -> Alcotest.fail "referenced global missing");
  check Alcotest.string "module id preserved" u.Compile.device.Ir.mid sub.Ir.mid;
  (* and it round-trips through bitcode *)
  let sub' = Bitcode.decode_module (Bitcode.encode_module sub) in
  Verify.verify_module sub'

(* ---- plugin ---- *)

let test_plugin_device_nvidia () =
  let u = Compile.compile ~vendor:Lower.Cuda daxpy_src in
  let r = Plugin.run_device ~vendor:Device.Nvidia u.Compile.device in
  check Alcotest.int "no sections on CUDA" 0 (List.length r.Plugin.dsections);
  (* the bitcode lives in a device global instead *)
  match Ir.find_global_opt u.Compile.device (Plugin.jit_bc_global "daxpy") with
  | Some g -> (
      match g.Ir.ginit with
      | Ir.InitString bc ->
          let m = Bitcode.decode_module bc in
          Alcotest.(check bool) "global holds kernel bitcode" true
            (Ir.find_func_opt m "daxpy" <> None)
      | _ -> Alcotest.fail "expected byte-array initializer")
  | None -> Alcotest.fail "__jit_bc_daxpy missing"

let test_plugin_device_amd () =
  let u = Compile.compile ~vendor:Lower.Hip daxpy_src in
  let r = Plugin.run_device ~vendor:Device.Amd u.Compile.device in
  check Alcotest.int "one section" 1 (List.length r.Plugin.dsections);
  check Alcotest.string "section name" ".jit.daxpy" (fst (List.hd r.Plugin.dsections));
  Alcotest.(check bool) "no device global on AMD" true
    (Ir.find_global_opt u.Compile.device (Plugin.jit_bc_global "daxpy") = None)

let count_calls_to m name =
  let n = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      Ir.iter_instrs f (fun i ->
          match i with Ir.ICall (_, c, _) when c = name -> incr n | _ -> ()))
    m.Ir.funcs;
  !n

let test_plugin_host_rewrites_launches () =
  let u = Compile.compile ~vendor:Lower.Cuda daxpy_src in
  check Alcotest.int "launch call present before" 1
    (count_calls_to u.Compile.host "cudaLaunchKernel");
  Plugin.run_host ~vendor:Device.Nvidia u.Compile.host;
  check Alcotest.int "redirected to the JIT entry point" 1
    (count_calls_to u.Compile.host Plugin.entry_point);
  check Alcotest.int "vendor launch gone" 0
    (count_calls_to u.Compile.host "cudaLaunchKernel");
  Verify.verify_module u.Compile.host

let test_plugin_host_registers_vars () =
  let src =
    {|__device__ double knob;
      __global__ __attribute__((annotate("jit", 1)))
      void k(double v, double* o) { o[0] = v * knob; }
      int main() { return 0; }|}
  in
  let u = Compile.compile ~vendor:Lower.Cuda src in
  Plugin.run_host ~vendor:Device.Nvidia u.Compile.host;
  check Alcotest.int "__jit_register_var inserted" 1
    (count_calls_to u.Compile.host Plugin.register_var_fn)

let test_plugin_skips_unannotated () =
  let src =
    {|__global__ void plain(int* p) { p[0] = 1; }
      int main() { plain<<<1, 1>>>((int*)cudaMalloc(4)); return 0; }|}
  in
  let u = Compile.compile ~vendor:Lower.Cuda src in
  Plugin.run_host ~vendor:Device.Nvidia u.Compile.host;
  check Alcotest.int "launch untouched" 1 (count_calls_to u.Compile.host "cudaLaunchKernel");
  check Alcotest.int "no jit entry" 0 (count_calls_to u.Compile.host Plugin.entry_point)

(* ---- specialization keys ---- *)

let key ?(mid = "m") ?(sym = "k") ?(vals = [ (1, Konst.kf64 2.0) ]) ?(lb = Some 64) () =
  Speckey.to_string (Speckey.compute ~mid ~sym ~spec_values:vals ~launch_bounds:lb)

let test_speckey_sensitivity () =
  Alcotest.(check bool) "stable" true (key () = key ());
  Alcotest.(check bool) "module id" false (key () = key ~mid:"other" ());
  Alcotest.(check bool) "symbol" false (key () = key ~sym:"k2" ());
  Alcotest.(check bool) "argument value" false
    (key () = key ~vals:[ (1, Konst.kf64 2.5) ] ());
  Alcotest.(check bool) "argument index" false
    (key () = key ~vals:[ (2, Konst.kf64 2.0) ] ());
  Alcotest.(check bool) "launch bounds" false (key () = key ~lb:(Some 128) ());
  Alcotest.(check bool) "lb none vs some" false (key () = key ~lb:None ())

(* Keys name cache files, so their bytes are a persistent format: these
   hex digests were computed before the hash was rewritten to run
   unboxed and must never change. *)
let test_speckey_golden () =
  let golden name expected ~mid ~sym vals lb =
    check Alcotest.string name expected
      (Speckey.to_string (Speckey.compute ~mid ~sym ~spec_values:vals ~launch_bounds:lb))
  in
  golden "float and int values, lb" "b4816b43611b8034" ~mid:"m0" ~sym:"daxpy"
    [ (1, Konst.KFloat (3.0, 64)); (4, Konst.KInt (256L, 32)) ]
    (Some 64);
  golden "negative int, no lb" "ca6f397bf2ac1a93" ~mid:"ca-0123" ~sym:"serve_k7"
    [ (1, Konst.KInt (-9L, 64)) ]
    None;
  golden "bools and f32, lb" "eb391d93997c4a6b" ~mid:"mod" ~sym:"k"
    [ (2, Konst.KBool true); (3, Konst.KFloat (-0.5, 32)); (5, Konst.KBool false) ]
    (Some 256);
  golden "empty everything" "8cf51a8bfca3883d" ~mid:"" ~sym:"" [] None;
  check Alcotest.string "cache file name" "cache-jit-ed6c07d77994732a.o"
    (Speckey.cache_filename
       (Speckey.compute ~mid:"m0" ~sym:"daxpy" ~spec_values:[] ~launch_bounds:None));
  check Alcotest.string "content module id" "ca-4b63f8a7e6e6dafa"
    (Speckey.content_mid ~device_ir:"\x00\xff abc" ~backend:"amd")

let qcheck_speckey_value_sensitivity =
  QCheck.Test.make ~name:"distinct values give distinct keys" ~count:200
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      QCheck.assume (not (Int64.equal a b));
      key ~vals:[ (1, Konst.kint ~bits:64 a) ] ()
      <> key ~vals:[ (1, Konst.kint ~bits:64 b) ] ())

(* ---- cache store ---- *)

let tmpdir () =
  let d = Filename.temp_file "proteus-test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let dummy_obj () =
  { Mach.okind = Mach.VGcn; kernels = []; oglobals = []; sections = [ ("s", "payload") ] }

let test_cache_two_level () =
  let dir = tmpdir () in
  let c1 = Cachestore.create ~persistent_dir:dir () in
  let k = Speckey.compute ~mid:"m" ~sym:"k" ~spec_values:[] ~launch_bounds:None in
  (match Cachestore.lookup c1 k with
  | Cachestore.Miss -> ()
  | _ -> Alcotest.fail "expected miss");
  let _ = Cachestore.insert c1 k (dummy_obj ()) in
  (match Cachestore.lookup c1 k with
  | Cachestore.Mem_hit _ -> ()
  | _ -> Alcotest.fail "expected memory hit");
  (* a fresh store over the same directory sees the persisted object *)
  let c2 = Cachestore.create ~persistent_dir:dir () in
  (match Cachestore.lookup c2 k with
  | Cachestore.Disk_hit e ->
      check Alcotest.(list (pair string string)) "payload survives"
        [ ("s", "payload") ] e.Cachestore.obj.Mach.sections
  | _ -> Alcotest.fail "expected disk hit");
  (* and then it is memory-resident *)
  (match Cachestore.lookup c2 k with
  | Cachestore.Mem_hit _ -> ()
  | _ -> Alcotest.fail "expected memory hit after disk load");
  Alcotest.(check bool) "persistent size > 0" true (Cachestore.persistent_size c2 > 0);
  Cachestore.clear_persistent c2;
  check Alcotest.int "cleared" 0 (Cachestore.persistent_size c2);
  Unix.rmdir dir

let test_cache_filename_convention () =
  let k = Speckey.compute ~mid:"m" ~sym:"k" ~spec_values:[] ~launch_bounds:None in
  let f = Speckey.cache_filename k in
  Alcotest.(check bool) "cache-jit-<hash>.o" true
    (String.length f > 12 && String.sub f 0 10 = "cache-jit-"
    && Filename.check_suffix f ".o")

(* ---- end-to-end JIT ---- *)

let run_daxpy ?config vendor mode =
  let exe = Driver.compile ~name:"daxpy-test" ~vendor ~mode daxpy_src in
  Driver.run ?config exe

let test_jit_matches_aot_output () =
  List.iter
    (fun vendor ->
      let aot = run_daxpy vendor Driver.Aot in
      let jit = run_daxpy vendor Driver.Proteus in
      check Alcotest.string "same program output" aot.Driver.output jit.Driver.output;
      check Alcotest.string "expected checksum" "sum=587776\n" jit.Driver.output)
    [ Device.Amd; Device.Nvidia ]

let test_jit_caching_behaviour () =
  let exe = Driver.compile ~name:"daxpy-test" ~vendor:Device.Amd ~mode:Driver.Proteus daxpy_src in
  let r = Driver.run exe in
  match r.Driver.jit with
  | Some s ->
      check Alcotest.int "one compile for six launches" 1 s.Stats.compiles;
      check Alcotest.int "launches" 6 s.Stats.jit_launches;
      check Alcotest.int "memory hits" 5 s.Stats.mem_hits
  | None -> Alcotest.fail "no jit stats"

let test_jit_persistent_cache () =
  let dir = tmpdir () in
  let config = { Config.default with Config.persistent_dir = Some dir } in
  let exe = Driver.compile ~name:"daxpy-test" ~vendor:Device.Amd ~mode:Driver.Proteus daxpy_src in
  let cold = Driver.run ~config exe in
  let warm = Driver.run ~config exe in
  (match (cold.Driver.jit, warm.Driver.jit) with
  | Some c, Some w ->
      check Alcotest.int "cold compiles" 1 c.Stats.compiles;
      check Alcotest.int "warm does not compile" 0 w.Stats.compiles;
      check Alcotest.int "warm loads from disk" 1 w.Stats.disk_hits;
      Alcotest.(check bool) "warm cheaper than cold" true
        (w.Stats.jit_overhead_s < c.Stats.jit_overhead_s)
  | _ -> Alcotest.fail "missing stats");
  (* exactly one cache-jit-<hash>.o entry (writers also leave a .lock
     file per entry; that is bookkeeping, not cache contents) *)
  let files =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> not (Filename.check_suffix f ".lock"))
  in
  check Alcotest.int "one cache file" 1 (List.length files);
  Alcotest.(check bool) "file naming" true
    (String.sub (List.hd files) 0 10 = "cache-jit-");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_jit_respecializes_on_new_values () =
  (* two different scaling factors -> two specializations *)
  let src2 =
    Str_replace.replace daxpy_src "for (int r = 0; r < 6; r++) { daxpy<<<(n + 63) / 64, 64>>>(3.0, dx, dy, n); }"
      "daxpy<<<(n + 63) / 64, 64>>>(3.0, dx, dy, n);\n  daxpy<<<(n + 63) / 64, 64>>>(4.0, dx, dy, n);"
  in
  let exe = Driver.compile ~name:"daxpy-two" ~vendor:Device.Amd ~mode:Driver.Proteus src2 in
  let r = Driver.run exe in
  match r.Driver.jit with
  | Some s -> check Alcotest.int "two specializations compiled" 2 s.Stats.compiles
  | None -> Alcotest.fail "no stats"

let test_modes_agree () =
  (* None/LB/RCF/LB+RCF all compute identical results *)
  let outputs =
    List.map
      (fun config ->
        (run_daxpy ~config Device.Amd Driver.Proteus).Driver.output)
      [ Config.mode_none; Config.mode_lb; Config.mode_rcf; Config.mode_lb_rcf ]
  in
  List.iter (fun o -> check Alcotest.string "mode output" (List.hd outputs) o) outputs;
  check Alcotest.string "value" "sum=587776\n" (List.hd outputs)

let test_rcf_reduces_kernel_time () =
  let none = run_daxpy ~config:Config.mode_none Device.Amd Driver.Proteus in
  let rcf = run_daxpy ~config:Config.mode_rcf Device.Amd Driver.Proteus in
  Alcotest.(check bool) "rcf is never slower here" true
    (rcf.Driver.kernel_time_s <= none.Driver.kernel_time_s +. 1e-12)

let test_device_global_linking () =
  (* JIT-compiled code and AOT code must share the same device global *)
  let src =
    {|__device__ double bias;
      __global__ void set_bias(double v) { bias = v; }
      __global__ __attribute__((annotate("jit", 2)))
      void apply(double* v, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) v[i] = v[i] + bias;
      }
      int main() {
        int n = 16;
        double* d = (double*)cudaMalloc(n * 8);
        double* h = (double*)malloc(n * 8);
        for (int i = 0; i < n; i++) h[i] = 1.0;
        cudaMemcpyHtoD(d, h, n * 8);
        set_bias<<<1, 1>>>(41.0);   // AOT kernel writes the global
        apply<<<1, 16>>>(d, n);     // JIT kernel reads it
        cudaMemcpyDtoH(h, d, n * 8);
        printf("v0=%g\n", h[0]);
        return 0;
      }|}
  in
  List.iter
    (fun vendor ->
      let exe = Driver.compile ~name:"link" ~vendor ~mode:Driver.Proteus src in
      let r = Driver.run exe in
      check Alcotest.string "JIT sees AOT's write" "v0=42\n" r.Driver.output)
    [ Device.Amd; Device.Nvidia ]

let test_source_change_invalidates_cache () =
  let dir = tmpdir () in
  let config = { Config.default with Config.persistent_dir = Some dir } in
  let exe1 = Driver.compile ~name:"v" ~vendor:Device.Amd ~mode:Driver.Proteus daxpy_src in
  let _ = Driver.run ~config exe1 in
  (* a slightly different source has a different module id: the stale
     entry cannot be revived *)
  let src2 = daxpy_src ^ "\n// changed\n" in
  let exe2 = Driver.compile ~name:"v" ~vendor:Device.Amd ~mode:Driver.Proteus src2 in
  let r2 = Driver.run ~config exe2 in
  (match r2.Driver.jit with
  | Some s ->
      check Alcotest.int "recompiled despite warm dir" 1 s.Stats.compiles;
      check Alcotest.int "no disk hit" 0 s.Stats.disk_hits
  | None -> Alcotest.fail "no stats");
  check Alcotest.int "two distinct cache files" 2
    (Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> not (Filename.check_suffix f ".lock"))
    |> List.length);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* AMD and NVIDIA builds of one program share their cache keys: an
   NVIDIA run over a directory an AMD run filled must not load the GCN
   object. It compiles, overwrites the entry, and a second NVIDIA run
   disk-hits its own object. *)
let test_vendor_change_misses () =
  let dir = tmpdir () in
  let config = { Config.default with Config.persistent_dir = Some dir } in
  let run vendor =
    Driver.run ~config (Driver.compile ~name:"v" ~vendor ~mode:Driver.Proteus daxpy_src)
  in
  let _ = run Device.Amd in
  let nv = run Device.Nvidia and nv_warm = run Device.Nvidia in
  (match (nv.Driver.jit, nv_warm.Driver.jit) with
  | Some s, Some w ->
      check Alcotest.int "NVIDIA compiles" 1 s.Stats.compiles;
      check Alcotest.int "no disk hit on the GCN object" 0 s.Stats.disk_hits;
      check Alcotest.int "not counted as corruption" 0 s.Stats.cache_corruptions;
      check Alcotest.int "warm NVIDIA loads its own object" 1 w.Stats.disk_hits;
      check Alcotest.int "warm NVIDIA does not compile" 0 w.Stats.compiles
  | _ -> Alcotest.fail "no stats");
  check Alcotest.string "expected checksum" "sum=587776\n" nv.Driver.output;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_lb_sets_launch_bounds () =
  (* specialize with LB and check the JIT-compiled kernel's attribute *)
  let u = Compile.compile ~vendor:Lower.Cuda daxpy_src in
  let sub = Extract.extract_kernel u.Compile.device "daxpy" in
  Specialize.apply Config.mode_lb sub ~kernel:"daxpy" ~spec_values:[] ~block:192
    ~resolve_global:(fun _ -> 0L);
  let f = Ir.find_func sub "daxpy" in
  check Alcotest.(option (pair int int)) "launch bounds set" (Some (192, 1))
    f.Ir.attrs.launch_bounds

let test_rcf_folds_arguments () =
  let u = Compile.compile ~vendor:Lower.Cuda daxpy_src in
  let sub = Extract.extract_kernel u.Compile.device "daxpy" in
  Specialize.apply Config.mode_rcf sub ~kernel:"daxpy"
    ~spec_values:[ (1, Konst.kf64 3.0); (4, Konst.ki32 256) ]
    ~block:64
    ~resolve_global:(fun _ -> 0L);
  let f = Ir.find_func sub "daxpy" in
  let uses = Ir.use_counts f in
  let a_reg = snd (List.nth f.Ir.params 0) in
  let n_reg = snd (List.nth f.Ir.params 3) in
  check Alcotest.int "a folded" 0 uses.(a_reg);
  check Alcotest.int "n folded" 0 uses.(n_reg)

(* ---- extensions: LRU eviction + auto-specialization (paper Sec. 3.4 /
   Sec. 6 future work, implemented here) ---- *)

let test_mem_cache_lru_eviction () =
  (* limit fits roughly one object: inserting three must evict *)
  let probe = Mach.encode_obj (dummy_obj ()) in
  let c = Cachestore.create ~mem_limit:(String.length probe * 2) () in
  let k i = Speckey.compute ~mid:"m" ~sym:(Printf.sprintf "k%d" i) ~spec_values:[] ~launch_bounds:None in
  let _ = Cachestore.insert c (k 1) (dummy_obj ()) in
  let _ = Cachestore.insert c (k 2) (dummy_obj ()) in
  (* touch k1 so k2 is the LRU victim *)
  (match Cachestore.lookup c (k 1) with Cachestore.Mem_hit _ -> () | _ -> Alcotest.fail "k1");
  let _ = Cachestore.insert c (k 3) (dummy_obj ()) in
  Alcotest.(check bool) "evictions happened" true (c.Cachestore.evictions_mem > 0);
  (match Cachestore.lookup c (k 2) with
  | Cachestore.Miss -> ()
  | _ -> Alcotest.fail "LRU victim should be gone");
  match Cachestore.lookup c (k 1) with
  | Cachestore.Mem_hit _ -> ()
  | Cachestore.Disk_hit _ | Cachestore.Miss -> Alcotest.fail "recently-used entry survives"

(* regression: the mem tier keeps a running byte total instead of
   re-folding the table on every insert; it must agree with a fold at
   every step, through inserts, evictions and same-key overwrites *)
let test_mem_cache_running_byte_total () =
  let probe = String.length (Mach.encode_obj (dummy_obj ())) in
  let c = Cachestore.create ~mem_limit:(probe * 3) () in
  let key i =
    Speckey.compute ~mid:"m" ~sym:(Printf.sprintf "b%d" i) ~spec_values:[]
      ~launch_bounds:None
  in
  let folded () =
    Hashtbl.fold
      (fun _ (e : Cachestore.entry) acc -> acc + e.Cachestore.bytes)
      c.Cachestore.mem 0
  in
  check Alcotest.int "empty cache is zero bytes" 0 (Cachestore.mem_size c);
  for i = 1 to 10 do
    let _ = Cachestore.insert c (key i) (dummy_obj ()) in
    check Alcotest.int "running total matches fold" (folded ())
      (Cachestore.mem_size c);
    Alcotest.(check bool) "eviction keeps total within limit" true
      (Cachestore.mem_size c <= probe * 3)
  done;
  Alcotest.(check bool) "evictions happened" true (c.Cachestore.evictions_mem > 0);
  (* overwriting a resident key must not double-count its bytes *)
  let _ = Cachestore.insert c (key 10) (dummy_obj ()) in
  check Alcotest.int "overwrite keeps total exact" (folded ())
    (Cachestore.mem_size c);
  (* the eviction loop above drained entries through the same helper:
     the running total still matches a fresh fold after mass eviction *)
  check Alcotest.int "total exact after evictions" (folded ())
    (Cachestore.mem_size c);
  (* a tier-up publication over a resident key goes through the
     identical put helper: no double count *)
  let _ = Cachestore.insert c (key 10) (dummy_obj ()) in
  check Alcotest.int "swap keeps total exact" (folded ()) (Cachestore.mem_size c);
  (* per-owner ledger: owned inserts, quota-free store — the ledger
     must track a by-owner fold across insert, overwrite, swap and
     LRU eviction *)
  let c2 = Cachestore.create ~mem_limit:(probe * 3) () in
  let folded2 owner =
    Hashtbl.fold
      (fun _ (e : Cachestore.entry) acc ->
        if e.Cachestore.owner = Some owner then acc + e.Cachestore.bytes else acc)
      c2.Cachestore.mem 0
  in
  for i = 1 to 10 do
    let owner = if i mod 2 = 0 then "A" else "B" in
    let _ = Cachestore.insert ~owner c2 (key i) (dummy_obj ()) in
    check Alcotest.int "owner A ledger matches fold" (folded2 "A")
      (Cachestore.tenant_size c2 "A");
    check Alcotest.int "owner B ledger matches fold" (folded2 "B")
      (Cachestore.tenant_size c2 "B")
  done;
  Alcotest.(check bool) "owned inserts evicted too" true
    (c2.Cachestore.evictions_mem > 0);
  (* swap that moves a key to a different owner must transfer the bytes
     between the two ledgers, not leak them into both *)
  let _ = Cachestore.insert ~owner:"B" c2 (key 10) (dummy_obj ()) in
  check Alcotest.int "A ledger exact after cross-owner swap" (folded2 "A")
    (Cachestore.tenant_size c2 "A");
  check Alcotest.int "B ledger exact after cross-owner swap" (folded2 "B")
    (Cachestore.tenant_size c2 "B");
  check Alcotest.int "global total exact after cross-owner swap"
    (Hashtbl.fold
       (fun _ (e : Cachestore.entry) acc -> acc + e.Cachestore.bytes)
       c2.Cachestore.mem 0)
    (Cachestore.mem_size c2)

let test_disk_cache_limit () =
  let dir = tmpdir () in
  let probe = String.length (Mach.encode_obj (dummy_obj ())) in
  let c = Cachestore.create ~persistent_dir:dir ~disk_limit:(probe * 2) () in
  let k i = Speckey.compute ~mid:"m" ~sym:(Printf.sprintf "k%d" i) ~spec_values:[] ~launch_bounds:None in
  for i = 1 to 4 do
    ignore (Cachestore.insert c (k i) (dummy_obj ()))
  done;
  Alcotest.(check bool) "disk size bounded" true
    (Cachestore.persistent_size c <= probe * 2);
  Alcotest.(check bool) "disk evictions counted" true (c.Cachestore.evictions_disk > 0);
  Cachestore.clear_persistent c;
  Unix.rmdir dir

let auto_src =
  {|
__global__ __attribute__((annotate("jit")))
void saxpy(float a, float* x, float* y, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { y[i] = a * x[i] + y[i]; }
}
int main() {
  int n = 64;
  float* d = (float*)cudaMalloc(n * 4);
  saxpy<<<1, 64>>>(2.0f, d, d, n);
  cudaDeviceSynchronize();
  printf("done\n");
  return 0;
}
|}

let test_auto_specialization () =
  (* annotate("jit") with no indices specializes every scalar argument *)
  let u = Compile.compile ~vendor:Lower.Cuda auto_src in
  ignore (Plugin.run_device ~vendor:Device.Nvidia u.Compile.device);
  Plugin.run_host ~vendor:Device.Nvidia u.Compile.host;
  (* find the rewritten call and inspect its mask (last argument) *)
  let mask = ref None in
  List.iter
    (fun (f : Ir.func) ->
      Ir.iter_instrs f (fun i ->
          match i with
          | Ir.ICall (None, ep, args) when ep = Plugin.entry_point -> (
              match List.rev args with
              | Ir.Imm k :: _ -> mask := Some (Konst.as_int k)
              | _ -> ())
          | _ -> ()))
    u.Compile.host.Ir.funcs;
  (match !mask with
  | Some m ->
      (* args: a(1) scalar, x(2) ptr, y(3) ptr, n(4) scalar -> 1 and 4 *)
      check Alcotest.(list int) "scalar args auto-selected" [ 1; 4 ]
        (Annotate.args_of_mask m)
  | None -> Alcotest.fail "rewritten launch not found");
  (* and the program still runs correctly under the JIT *)
  let exe = Driver.compile ~name:"auto" ~vendor:Device.Nvidia ~mode:Driver.Proteus auto_src in
  let r = Driver.run exe in
  check Alcotest.string "runs" "done\n" r.Driver.output;
  match r.Driver.jit with
  | Some s -> check Alcotest.int "compiled one specialization" 1 s.Stats.compiles
  | None -> Alcotest.fail "no stats"

let () =
  Alcotest.run "proteus"
    [
      ( "annotations",
        [
          Alcotest.test_case "parsed from source" `Quick test_annotations_parsed;
          qtest qcheck_mask_roundtrip;
          qtest qcheck_args_of_mask;
        ] );
      ("extract", [ Alcotest.test_case "standalone module" `Quick test_extract_standalone ]);
      ( "plugin",
        [
          Alcotest.test_case "device pass (CUDA: .data global)" `Quick test_plugin_device_nvidia;
          Alcotest.test_case "device pass (AMD: .jit section)" `Quick test_plugin_device_amd;
          Alcotest.test_case "host launch rewriting" `Quick test_plugin_host_rewrites_launches;
          Alcotest.test_case "device-var registration relay" `Quick test_plugin_host_registers_vars;
          Alcotest.test_case "unannotated kernels untouched" `Quick test_plugin_skips_unannotated;
        ] );
      ( "speckey",
        [
          Alcotest.test_case "sensitivity" `Quick test_speckey_sensitivity;
          Alcotest.test_case "golden keys" `Quick test_speckey_golden;
          qtest qcheck_speckey_value_sensitivity;
        ] );
      ( "cache",
        [
          Alcotest.test_case "two-level behaviour" `Quick test_cache_two_level;
          Alcotest.test_case "file naming" `Quick test_cache_filename_convention;
          Alcotest.test_case "LRU memory eviction" `Quick test_mem_cache_lru_eviction;
          Alcotest.test_case "running byte total" `Quick test_mem_cache_running_byte_total;
          Alcotest.test_case "disk size limit" `Quick test_disk_cache_limit;
          Alcotest.test_case "auto-specialization" `Quick test_auto_specialization;
        ] );
      ( "jit",
        [
          Alcotest.test_case "matches AOT output" `Quick test_jit_matches_aot_output;
          Alcotest.test_case "in-memory caching" `Quick test_jit_caching_behaviour;
          Alcotest.test_case "persistent caching" `Quick test_jit_persistent_cache;
          Alcotest.test_case "respecializes on new values" `Quick test_jit_respecializes_on_new_values;
          Alcotest.test_case "modes agree on results" `Quick test_modes_agree;
          Alcotest.test_case "rcf not slower" `Quick test_rcf_reduces_kernel_time;
          Alcotest.test_case "device-global linking" `Quick test_device_global_linking;
          Alcotest.test_case "source change invalidates" `Quick test_source_change_invalidates_cache;
          Alcotest.test_case "vendor change misses" `Quick test_vendor_change_misses;
          Alcotest.test_case "LB attribute" `Quick test_lb_sets_launch_bounds;
          Alcotest.test_case "RCF argument folding" `Quick test_rcf_folds_arguments;
        ] );
    ]
