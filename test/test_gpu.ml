(* GPU simulator tests: device memory, L2 model, SIMT execution
   (including divergence, atomics, grid-stride loops and scratch), and
   a differential check of machine execution against the IR
   interpreter. *)

open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu

let check = Alcotest.check
let qtest = Qseed.qtest

(* ---- Gmem ---- *)

let test_gmem_rw () =
  let m = Gmem.create () in
  let a = Gmem.alloc m 64 in
  Gmem.write_f64 m a 3.25;
  check (Alcotest.float 0.0) "f64" 3.25 (Gmem.read_f64 m a);
  Gmem.write_i32 m (Int64.add a 8L) 42l;
  check Alcotest.int32 "i32" 42l (Gmem.read_i32 m (Int64.add a 8L));
  Gmem.write_f32 m (Int64.add a 16L) 1.5;
  check (Alcotest.float 0.0) "f32" 1.5 (Gmem.read_f32 m (Int64.add a 16L))

let test_gmem_typed () =
  let m = Gmem.create () in
  let a = Gmem.alloc m 32 in
  Gmem.write m Types.i64 a (Konst.ki64 (-7));
  check Alcotest.int64 "typed i64" (-7L) (Konst.as_int (Gmem.read m Types.i64 a));
  Gmem.write m Types.TBool a (Konst.kbool true);
  Alcotest.(check bool) "typed bool" true (Konst.as_bool (Gmem.read m Types.TBool a))

let test_gmem_alloc_distinct () =
  let m = Gmem.create () in
  let a = Gmem.alloc m 100 and b = Gmem.alloc m 100 in
  Alcotest.(check bool) "non-overlapping" true (Int64.to_int b >= Int64.to_int a + 100)

let test_gmem_free_reuse () =
  let m = Gmem.create () in
  let a = Gmem.alloc m 128 in
  Gmem.free m a;
  let b = Gmem.alloc m 100 in
  check Alcotest.int64 "freed block reused" a b

let test_gmem_null_deref () =
  let m = Gmem.create () in
  Alcotest.(check bool) "null deref raises" true
    (try ignore (Gmem.read_f64 m 0L); false with Failure _ -> true)

(* A capacity below the 64-byte null guard the break starts at is
   raised to it: doubling a zero-length arena never reached the size an
   allocation needed, and a negative one failed in [Bytes.make]. *)
let test_gmem_tiny_capacity () =
  List.iter
    (fun capacity ->
      let m = Gmem.create ~capacity () in
      check Alcotest.int (Printf.sprintf "capacity %d: arena length" capacity) 64
        (Bytes.length m.Gmem.data);
      let a = Gmem.alloc m 100 in
      Gmem.write_f64 m a 2.5;
      check (Alcotest.float 0.0) (Printf.sprintf "capacity %d: grown and usable" capacity) 2.5
        (Gmem.read_f64 m a);
      Alcotest.(check bool) (Printf.sprintf "capacity %d: covers the allocation" capacity) true
        (Bytes.length m.Gmem.data >= Int64.to_int a + 100))
    [ 0; 1; -5; 63 ]

(* ---- L2 ---- *)

let test_l2_hit_miss () =
  let l2 = L2cache.create Device.mi250x in
  Alcotest.(check bool) "first touch misses" false (L2cache.access l2 4096L);
  Alcotest.(check bool) "second touch hits" true (L2cache.access l2 4096L);
  Alcotest.(check bool) "same line hits" true (L2cache.access l2 4100L);
  Alcotest.(check bool) "different line misses" false (L2cache.access l2 1000000L);
  check Alcotest.int "counters" 2 l2.L2cache.hits;
  check Alcotest.int "counters" 2 l2.L2cache.misses

let test_l2_lru_eviction () =
  let l2 = L2cache.create Device.mi250x in
  let line = Int64.of_int l2.L2cache.line in
  let set_stride = Int64.mul line (Int64.of_int l2.L2cache.sets) in
  (* fill one set beyond its associativity *)
  for w = 0 to l2.L2cache.ways do
    ignore (L2cache.access l2 (Int64.mul set_stride (Int64.of_int w)))
  done;
  (* address 0 was the least recently used: evicted *)
  Alcotest.(check bool) "LRU victim evicted" false (L2cache.access l2 0L)

let test_l2_reset () =
  let l2 = L2cache.create Device.v100 in
  ignore (L2cache.access l2 128L);
  L2cache.reset l2;
  check Alcotest.int "hits cleared" 0 l2.L2cache.hits;
  Alcotest.(check bool) "cold after reset" false (L2cache.access l2 128L)

(* The L2 model against a list-based LRU: each set is its tags, most
   recent first, at most [ways] long. A stream of accesses to a few
   sets, each drawing from [ways + 4] tags so most accesses conflict,
   with an occasional reset, must give the same hit or miss on every
   access and leave each set holding the same tags, so victims leave
   in the same order. Both devices' geometries run: MI250X has a
   power-of-two set count (the masked index), V100 does not ([mod]). *)
let prop_l2_matches_list_lru =
  let gen =
    QCheck.Gen.(
      pair (oneofl [ Device.mi250x; Device.v100 ])
        (list_size (int_range 1 400)
           (frequency
              [ (1, return None);
                (60, map (fun (s, k) -> Some (s, k)) (pair (int_bound 2) (int_bound 19))) ])))
  in
  let print (d, ops) =
    Printf.sprintf "%s: %s" d.Device.name
      (String.concat " "
         (List.map (function None -> "reset" | Some (s, k) -> Printf.sprintf "%d/%d" s k) ops))
  in
  QCheck.Test.make ~name:"L2 model = list-based LRU on conflicting streams" ~count:200
    (QCheck.make ~print gen)
    (fun (dev, ops) ->
      let l2 = L2cache.create dev in
      let sets = l2.L2cache.sets and ways = l2.L2cache.ways in
      (* three sets spread over the index range, [ways + 4] tags each *)
      let set_of s = [| 0; sets / 3; sets - 1 |].(s) in
      let lru = Array.make 3 [] in
      let hits = ref 0 and misses = ref 0 in
      let held set =
        List.sort compare
          (List.filter (fun t -> t >= 0)
             (Array.to_list (Array.sub l2.L2cache.tags (set * ways) ways)))
      in
      List.for_all
        (function
          | None ->
              L2cache.reset l2;
              Array.fill lru 0 3 [];
              hits := 0;
              misses := 0;
              l2.L2cache.hits = 0 && l2.L2cache.misses = 0
          | Some (s, k) ->
              let k = k mod (ways + 4) in
              let line = set_of s + (k * sets) in
              let hit = List.mem line lru.(s) in
              let rest = List.filter (( <> ) line) lru.(s) in
              lru.(s) <- line :: List.filteri (fun i _ -> i < ways - 1) rest;
              if hit then incr hits else incr misses;
              L2cache.access l2 (Int64.of_int (line * l2.L2cache.line)) = hit
              && l2.L2cache.hits = !hits && l2.L2cache.misses = !misses
              && held (set_of s) = List.sort compare lru.(s))
        ops)

(* ---- executor helpers ---- *)

let compile_kernel ?(vendor = Device.Amd) src sym =
  let fe_vendor = match vendor with Device.Amd -> Lower.Hip | Device.Nvidia -> Lower.Cuda in
  let m = (Compile.compile ~vendor:fe_vendor src).Compile.device in
  ignore (Proteus_opt.Pipeline.optimize_o3 m);
  let obj, _ = Proteus_runtime.Toolchain.compile ~vendor m in
  (m, Mach.find_kernel obj sym)

let fresh_rig vendor =
  let dev = Device.by_vendor vendor in
  (dev, Gmem.create (), L2cache.create dev)

let farray mem addr n = List.init n (fun i -> Gmem.read_f64 mem (Int64.add addr (Int64.of_int (i * 8))))

let test_exec_daxpy_both_vendors () =
  List.iter
    (fun vendor ->
      let _, k =
        compile_kernel ~vendor
          {|__global__ void daxpy(double a, double* x, double* y, int n) {
              int i = blockIdx.x * blockDim.x + threadIdx.x;
              if (i < n) { y[i] = a * x[i] + y[i]; }
            }|}
          "daxpy"
      in
      let dev, mem, l2 = fresh_rig vendor in
      let n = 200 in
      let x = Gmem.alloc mem (n * 8) and y = Gmem.alloc mem (n * 8) in
      for i = 0 to n - 1 do
        Gmem.write_f64 mem (Int64.add x (Int64.of_int (i * 8))) (float_of_int i);
        Gmem.write_f64 mem (Int64.add y (Int64.of_int (i * 8))) 1.0
      done;
      let r =
        Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k
          ~grid:((n + 63) / 64) ~block:64
          ~args:[| Konst.kf64 2.0; Konst.kint ~bits:64 x; Konst.kint ~bits:64 y; Konst.ki32 n |]
      in
      List.iteri
        (fun i v ->
          if v <> (2.0 *. float_of_int i) +. 1.0 then
            Alcotest.failf "lane %d: %g" i v)
        (farray mem y n);
      (* all launched threads count, including the guarded tail *)
      Alcotest.(check bool) "counted threads" true
        (r.Exec.counters.Counters.threads = ((n + 63) / 64) * 64))
    [ Device.Amd; Device.Nvidia ]

let test_exec_divergence () =
  (* lanes take different paths; all results must still be right *)
  let _, k =
    compile_kernel
      {|__global__ void diverge(int* out, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) {
            int v;
            if (i % 3 == 0) { v = i * 10; }
            else if (i % 3 == 1) { v = i + 1000; }
            else { v = -i; }
            out[i] = v;
          }
        }|}
      "diverge"
  in
  let dev, mem, l2 = fresh_rig Device.Amd in
  let n = 100 in
  let out = Gmem.alloc mem (n * 4) in
  ignore
    (Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:2 ~block:64
       ~args:[| Konst.kint ~bits:64 out; Konst.ki32 n |]);
  for i = 0 to n - 1 do
    let got = Int32.to_int (Gmem.read_i32 mem (Int64.add out (Int64.of_int (i * 4)))) in
    let want = if i mod 3 = 0 then i * 10 else if i mod 3 = 1 then i + 1000 else -i in
    if got <> want then Alcotest.failf "lane %d: got %d want %d" i got want
  done

let test_exec_grid_stride_and_loop () =
  let _, k =
    compile_kernel
      {|__global__ void sum_stride(double* v, double* out, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          int stride = gridDim.x * blockDim.x;
          for (int j = i; j < n; j += stride) {
            out[j] = v[j] * 2.0;
          }
        }|}
      "sum_stride"
  in
  let dev, mem, l2 = fresh_rig Device.Amd in
  let n = 1000 in
  let v = Gmem.alloc mem (n * 8) and out = Gmem.alloc mem (n * 8) in
  for i = 0 to n - 1 do
    Gmem.write_f64 mem (Int64.add v (Int64.of_int (i * 8))) (float_of_int i)
  done;
  ignore
    (Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:2 ~block:128
       ~args:[| Konst.kint ~bits:64 v; Konst.kint ~bits:64 out; Konst.ki32 n |]);
  List.iteri
    (fun i x -> if x <> 2.0 *. float_of_int i then Alcotest.failf "%d: %g" i x)
    (farray mem out n)

let test_exec_atomics () =
  let _, k =
    compile_kernel
      {|__global__ void count(float* acc, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) { atomicAdd(acc, 1.0f); }
        }|}
      "count"
  in
  let dev, mem, l2 = fresh_rig Device.Amd in
  let acc = Gmem.alloc mem 8 in
  Gmem.write_f32 mem acc 0.0;
  ignore
    (Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:3 ~block:64
       ~args:[| Konst.kint ~bits:64 acc; Konst.ki32 150 |]);
  check (Alcotest.float 0.0) "atomic count" 150.0 (Gmem.read_f32 mem acc)

let test_exec_scratch_array () =
  let _, k =
    compile_kernel
      {|__global__ void rev(int* out) {
          int t = threadIdx.x;
          int tmp[4];
          for (int j = 0; j < 4; j++) { tmp[j] = t * 10 + j; }
          out[t] = tmp[3 - (t % 4)];
        }|}
      "rev"
  in
  let dev, mem, l2 = fresh_rig Device.Amd in
  let out = Gmem.alloc mem (64 * 4) in
  ignore
    (Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:1 ~block:64
       ~args:[| Konst.kint ~bits:64 out |]);
  for t = 0 to 63 do
    let got = Int32.to_int (Gmem.read_i32 mem (Int64.add out (Int64.of_int (t * 4)))) in
    let want = (t * 10) + (3 - (t mod 4)) in
    if got <> want then Alcotest.failf "thread %d: got %d want %d" t got want
  done

(* ---- differential: machine execution vs IR interpreter ---- *)

let qcheck_machine_matches_interp =
  let src =
    {|__global__ void f(double* out, double a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) {
          double x = a * (double)i;
          double y = x;
          for (int j = 0; j < 4; j++) {
            if (((i + j) & 1) == 0) { y = y + sqrt(fabs(x) + 1.0); }
            else { y = y * 0.5 + (double)j; }
          }
          out[i] = y;
        }
      }|}
  in
  let m, k = compile_kernel src "f" in
  QCheck.Test.make ~name:"machine exec matches IR interpreter" ~count:25
    QCheck.(pair (float_range (-4.0) 4.0) (int_range 1 96))
    (fun (a, n) ->
      (* machine execution *)
      let dev, mem, l2 = fresh_rig Device.Amd in
      let out = Gmem.alloc mem (n * 8) in
      ignore
        (Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k
           ~grid:((n + 63) / 64) ~block:64
           ~args:[| Konst.kint ~bits:64 out; Konst.kf64 a; Konst.ki32 n |]);
      let machine = farray mem out n in
      (* IR interpretation, one virtual thread at a time *)
      let mem2 = Gmem.create () in
      let out2 = Gmem.alloc mem2 (n * 8) in
      for i = 0 to n - 1 do
        let env =
          Interp.make_env
            ~load:(fun ty addr -> Gmem.read mem2 ty addr)
            ~store:(fun ty addr v -> Gmem.write mem2 ty addr v)
            ~extern:(fun nm _ -> Alcotest.failf "extern %s" nm)
            ~global_addr:(fun nm -> Alcotest.failf "global %s" nm)
            ~alloca:(fun ty c -> Gmem.alloc mem2 (Types.size_of ty * c))
            ~gpu_query:(fun q ->
              match q with
              | "gpu.tid.x" -> Some (Konst.ki32 (i mod 64))
              | "gpu.ctaid.x" -> Some (Konst.ki32 (i / 64))
              | "gpu.ntid.x" -> Some (Konst.ki32 64)
              | "gpu.nctaid.x" -> Some (Konst.ki32 ((n + 63) / 64))
              | _ -> None)
            ()
        in
        ignore
          (Interp.run env m "f"
             [ Konst.kint ~bits:64 out2; Konst.kf64 a; Konst.ki32 n ])
      done;
      let interp = farray mem2 out2 n in
      List.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) machine interp)

(* ---- counters & timing ---- *)

let test_counters_populated () =
  let _, k =
    compile_kernel
      {|__global__ void mix(double* v, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) { v[i] = sqrt(v[i]) + (double)(i * 2); }
        }|}
      "mix"
  in
  let dev, mem, l2 = fresh_rig Device.Amd in
  let v = Gmem.alloc mem (256 * 8) in
  let r =
    Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:4 ~block:64
      ~args:[| Konst.kint ~bits:64 v; Konst.ki32 256 |]
  in
  let c = r.Exec.counters in
  Alcotest.(check bool) "valu counted" true (c.Counters.valu_thread > 0);
  Alcotest.(check bool) "math counted" true (c.Counters.math_warp > 0);
  Alcotest.(check bool) "memory counted" true (c.Counters.vmem_warp > 0);
  check Alcotest.int "warps" 4 c.Counters.warps;
  check Alcotest.int "threads" 256 c.Counters.threads;
  Alcotest.(check bool) "l2 saw traffic" true (c.Counters.l2_hits + c.Counters.l2_misses > 0)

let test_timing_monotone_in_work () =
  let _, k =
    compile_kernel
      {|__global__ void w(double* v, int n, int reps) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) {
            double acc = v[i];
            for (int r = 0; r < reps; r++) { acc = acc * 1.000001 + 0.5; }
            v[i] = acc;
          }
        }|}
      "w"
  in
  let time reps =
    let dev, mem, l2 = fresh_rig Device.Amd in
    let v = Gmem.alloc mem (256 * 8) in
    let r =
      Exec.launch ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:4 ~block:64
        ~args:[| Konst.kint ~bits:64 v; Konst.ki32 256; Konst.ki32 reps |]
    in
    (Timing.kernel_time dev k r.Exec.counters ~blocks:4).Timing.duration_s
  in
  Alcotest.(check bool) "10x work takes longer" true (time 100 > time 10)

let test_occupancy_depends_on_regs () =
  let mk vregs =
    { Mach.sym = "x"; blocks = []; params = []; arg_tys = []; vregs; sregs = 0;
      frame = 0; spill_slots = 0; launch_bounds = None; max_pressure_v = 0;
      max_pressure_s = 0 }
  in
  let lean = Timing.occupancy Device.mi250x (mk 32) in
  let fat = Timing.occupancy Device.mi250x (mk 256) in
  Alcotest.(check bool)
    (Printf.sprintf "more registers, fewer waves (%d vs %d)" lean fat)
    true (lean > fat)

let () =
  Alcotest.run "gpu"
    [
      ( "gmem",
        [
          Alcotest.test_case "read/write" `Quick test_gmem_rw;
          Alcotest.test_case "typed access" `Quick test_gmem_typed;
          Alcotest.test_case "distinct allocations" `Quick test_gmem_alloc_distinct;
          Alcotest.test_case "free/reuse" `Quick test_gmem_free_reuse;
          Alcotest.test_case "null deref" `Quick test_gmem_null_deref;
          Alcotest.test_case "capacity below the null guard" `Quick test_gmem_tiny_capacity;
        ] );
      ( "l2",
        [
          Alcotest.test_case "hit/miss" `Quick test_l2_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_l2_lru_eviction;
          Alcotest.test_case "reset" `Quick test_l2_reset;
          qtest prop_l2_matches_list_lru;
        ] );
      ( "executor",
        [
          Alcotest.test_case "daxpy on both vendors" `Quick test_exec_daxpy_both_vendors;
          Alcotest.test_case "divergent branches" `Quick test_exec_divergence;
          Alcotest.test_case "grid-stride loop" `Quick test_exec_grid_stride_and_loop;
          Alcotest.test_case "atomics" `Quick test_exec_atomics;
          Alcotest.test_case "scratch arrays" `Quick test_exec_scratch_array;
          qtest qcheck_machine_matches_interp;
        ] );
      ( "timing",
        [
          Alcotest.test_case "counters populated" `Quick test_counters_populated;
          Alcotest.test_case "monotone in work" `Quick test_timing_monotone_in_work;
          Alcotest.test_case "occupancy vs registers" `Quick test_occupancy_depends_on_regs;
        ] );
    ]
