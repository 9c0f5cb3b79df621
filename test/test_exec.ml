(* Differential tests for the three executor engines. The reference
   interpreter is the executable specification; the threaded-code
   engine (production path) and the multicore block scheduler must
   match it bit for bit: memory contents, every performance counter,
   and the simulated kernel timing derived from them. Kernels with
   atomics must demonstrably take the serial fallback. *)

open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu
open Proteus_runtime
open Proteus_hecbench

let check = Alcotest.check
let qtest = Qseed.qtest

let compile_kernel ?(vendor = Device.Amd) src sym =
  let fe_vendor =
    match vendor with Device.Amd -> Lower.Hip | Device.Nvidia -> Lower.Cuda
  in
  let m = (Compile.compile ~vendor:fe_vendor src).Compile.device in
  ignore (Proteus_opt.Pipeline.optimize_o3 m);
  let obj =
    match vendor with
    | Device.Amd -> Gcn.compile m
    | Device.Nvidia -> Ptxas.compile ~globals:m.Ir.globals (Ptx.emit m)
  in
  Mach.find_kernel obj sym

type engine_mode = Reference | Threaded | Multicore

let mode_name = function
  | Reference -> "reference"
  | Threaded -> "threaded"
  | Multicore -> "multicore"

(* Run [k] under one engine on a fresh device; return the raw bytes of
   the observable buffer, the counters, the simulated duration and the
   engine the launch actually used. *)
let run_mode mode k ~grid ~block ~buf_bytes ~init ~args =
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let buf = Gmem.alloc mem buf_bytes in
  init mem buf;
  let reference = mode = Reference in
  let domains = match mode with Multicore -> 4 | _ -> 1 in
  let r =
    Exec.launch ~reference ~domains ~device:dev ~mem ~l2
      ~symbols:(fun _ -> 0L) k ~grid ~block ~args:(args buf)
  in
  let snap =
    String.init buf_bytes (fun i ->
        Char.chr (Gmem.read_u8 mem (Int64.add buf (Int64.of_int i))))
  in
  let dur =
    (Timing.kernel_time dev k r.Exec.counters ~blocks:r.Exec.blocks_launched)
      .Timing.duration_s
  in
  (snap, r.Exec.counters, dur, r.Exec.engine)

(* Divergent control flow, f64 and f32 arithmetic, transcendentals and
   integer bit-twiddling - enough surface to shake out any engine
   disagreement. *)
let diff_kernel_src =
  {|__global__ void f(double* out, float* tmp, double a, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      if (i < n) {
        double x = a * (double)i;
        float s = (float)x;
        for (int j = 0; j < 5; j++) {
          if (((i >> j) & 1) == 1) { x = x + sqrt(fabs(x) + 1.0); s = s * 1.5f; }
          else { x = x * 0.5 + (double)(j * i); }
        }
        tmp[i] = s;
        out[i] = x + (double)s;
      }
    }|}

let qcheck_engines_bit_identical =
  let k = compile_kernel diff_kernel_src "f" in
  QCheck.Test.make ~name:"reference = threaded = multicore on random launches"
    ~count:20
    QCheck.(pair (float_range (-8.0) 8.0) (int_range 65 300))
    (fun (a, n) ->
      let grid = (n + 63) / 64 in
      let buf_bytes = (n * 8) + (n * 4) in
      let run mode =
        run_mode mode k ~grid ~block:64 ~buf_bytes
          ~init:(fun _ _ -> ())
          ~args:(fun buf ->
            [|
              Konst.kint ~bits:64 buf;
              Konst.kint ~bits:64 (Int64.add buf (Int64.of_int (n * 8)));
              Konst.kf64 a;
              Konst.ki32 n;
            |])
      in
      let s1, c1, d1, e1 = run Reference in
      let s2, c2, d2, e2 = run Threaded in
      let s3, c3, d3, e3 = run Multicore in
      e1 = "reference" && e2 = "threaded" && e3 = "multicore" && s1 = s2
      && s2 = s3 && c1 = c2 && c2 = c3 && d1 = d2 && d2 = d3)

let test_atomics_take_serial_fallback () =
  let k =
    compile_kernel
      {|__global__ void count(float* acc, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) { atomicAdd(acc, 1.0f); }
        }|}
      "count"
  in
  (* 4 domains requested, grid of 4 blocks: parallelizable in shape,
     but the atomic forces the serial threaded engine *)
  let snap, _, _, engine =
    run_mode Multicore k ~grid:4 ~block:64 ~buf_bytes:8
      ~init:(fun mem buf -> Gmem.write_f32 mem buf 0.0)
      ~args:(fun buf -> [| Konst.kint ~bits:64 buf; Konst.ki32 200 |])
  in
  check Alcotest.string "atomics stay serial" "threaded" engine;
  (* and the result is still right *)
  let bits =
    Int32.logor
      (Int32.of_int (Char.code snap.[0]))
      (Int32.logor
         (Int32.shift_left (Int32.of_int (Char.code snap.[1])) 8)
         (Int32.logor
            (Int32.shift_left (Int32.of_int (Char.code snap.[2])) 16)
            (Int32.shift_left (Int32.of_int (Char.code snap.[3])) 24)))
  in
  check (Alcotest.float 0.0) "atomic sum" 200.0 (Int32.float_of_bits bits)

let test_parallel_safe_goes_multicore () =
  let k = compile_kernel diff_kernel_src "f" in
  let n = 256 in
  let _, _, _, engine =
    run_mode Multicore k ~grid:4 ~block:64 ~buf_bytes:((n * 8) + (n * 4))
      ~init:(fun _ _ -> ())
      ~args:(fun buf ->
        [|
          Konst.kint ~bits:64 buf;
          Konst.kint ~bits:64 (Int64.add buf (Int64.of_int (n * 8)));
          Konst.kf64 1.5;
          Konst.ki32 n;
        |])
  in
  check Alcotest.string "atomic-free kernel parallelizes" "multicore" engine

(* ---- executor buffers reused across launches ---- *)

(* The threaded engine keeps its register banks on the decoded program
   between launches (Tcode.acquire / release) and zero-fills them per
   warp. Reuse must be invisible: a launch sequence that interleaves
   programs of different register and spill shapes, and survives a
   launch that fails mid-kernel, matches the reference interpreter
   launch for launch. *)

(* ~20 mutually-live doubles under a 32-register cap: spills *)
let spill_kernel () =
  let terms =
    List.init 20 (fun j ->
        Printf.sprintf "double t%d = v[i + %d] * %d.5 + (double)i;" j j (j + 1))
  in
  let reduce =
    String.concat " + "
      (List.init 20 (fun j -> Printf.sprintf "t%d * t%d" j ((j + 7) mod 20)))
  in
  let src =
    Printf.sprintf
      {|__global__ void hot(double* v, double* out, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n - 32) {
            %s
            out[i] = %s;
          }
        }|}
      (String.concat "\n" terms) reduce
  in
  let m = (Compile.compile ~vendor:Lower.Hip src).Compile.device in
  ignore (Proteus_opt.Pipeline.optimize_o3 m);
  let mf = Isel.lower_func m (Ir.find_func m "hot") in
  Regalloc.apply mf
    { Regalloc.cap_v = 32; cap_s = 102; rematerialize = false;
      reg_units = (fun ty -> max 1 (Types.size_of ty / 4)) };
  mf

(* Hand-written machine code that reads an integer vreg, a float vreg,
   a vector spill slot and a scalar register before writing them, stores
   what it read ([out] + 32 * tid), then dirties all four. Compiled
   kernels never read a register first, so this is the kernel that sees
   whether a warp starts from zeroed banks, as the reference engine's
   fresh arrays do. *)
let stale_kernel () =
  let v rid = { Mach.rid; rcls = Mach.CV } and sc rid = { Mach.rid; rcls = Mach.CS } in
  let i op dst srcs = { Mach.op; dst; srcs } in
  let add d a k = i (Mach.Obin (Ops.Add, Types.i64)) (Some (v d)) [ Mach.Rs (v a); Mach.Ki (Konst.ki64 k) ] in
  let st ty x a = i (Mach.Ost (Mach.SGlobal, ty)) None [ Mach.Rs (v x); Mach.Rs (v a) ] in
  let code =
    [
      i (Mach.Oarg 0) (Some (v 0)) [];
      i (Mach.Oquery "gpu.tid.x") (Some (v 1)) [];
      i (Mach.Obin (Ops.Mul, Types.i64)) (Some (v 2)) [ Mach.Rs (v 1); Mach.Ki (Konst.ki64 32) ];
      i (Mach.Obin (Ops.Add, Types.i64)) (Some (v 3)) [ Mach.Rs (v 0); Mach.Rs (v 2) ];
      (* read before write *)
      st Types.i64 4 3;
      add 6 3 8;
      st (Types.TFloat 64) 5 6;
      i (Mach.Ospill_ld 0) (Some (v 7)) [];
      add 8 3 16;
      st Types.i64 7 8;
      i (Mach.Omov Types.i64) (Some (v 9)) [ Mach.Rs (sc 0) ];
      add 10 3 24;
      st Types.i64 9 10;
      (* dirty *)
      add 4 1 1000;
      i (Mach.Ocast (Ops.SiToFp, Types.TFloat 64, Types.i64)) (Some (v 5)) [ Mach.Rs (v 4) ];
      i (Mach.Ospill_st 0) None [ Mach.Rs (v 4) ];
      i (Mach.Omov Types.i64) (Some (sc 0)) [ Mach.Ki (Konst.ki64 77) ];
    ]
  in
  {
    Mach.sym = "stale";
    blocks = [ { Mach.mlab = "entry"; code; term = Mach.Tret } ];
    params = [];
    arg_tys = [ Types.ptr Types.i64 ];
    vregs = 11;
    sregs = 1;
    frame = 0;
    spill_slots = 1;
    launch_bounds = None;
    max_pressure_v = 0;
    max_pressure_s = 0;
  }

type step = Diff of float * int | Hot of int | Diff_oob | Stale

(* One device universe running [steps] in order: the diff kernel [kd],
   the spilling [kh] and the stale-read [ks], through their decoded
   programs [pd] / [ph] / [ps] unless [reference]. Returns per launch
   the output bytes and counters, or the failure message. *)
type kernels = {
  kd : Mach.mfunc; pd : Tcode.program;
  kh : Mach.mfunc; ph : Tcode.program;
  ks : Mach.mfunc; ps : Tcode.program;
}

let reuse_kernels () =
  let kd = compile_kernel diff_kernel_src "f" and kh = spill_kernel () in
  let ks = stale_kernel () in
  { kd; pd = Tcode.decode kd; kh; ph = Tcode.decode kh; ks; ps = Tcode.decode ks }

let run_steps ~reference ks steps =
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let n = 200 in
  let bytes = 128 * 32 in
  let v = Gmem.alloc mem bytes and out = Gmem.alloc mem bytes in
  for i = 0 to n + 63 do
    Gmem.write_f64 mem (Int64.add v (Int64.of_int (i * 8))) (0.01 *. float_of_int i)
  done;
  let snap () =
    String.init bytes (fun i -> Char.chr (Gmem.read_u8 mem (Int64.add out (Int64.of_int i))))
  in
  let launch k p ~grid args =
    let tcode = if reference then None else Some p in
    match
      Exec.launch ~reference ~domains:1 ?tcode ~device:dev ~mem ~l2
        ~symbols:(fun _ -> 0L) k ~grid ~block:64 ~args
    with
    | r -> Ok (snap (), r.Exec.counters)
    | exception Failure msg -> Error msg
  in
  List.map
    (function
      | Diff (a, n) ->
          launch ks.kd ks.pd ~grid:((n + 63) / 64)
            [| Konst.kint ~bits:64 out; Konst.kint ~bits:64 v; Konst.kf64 a; Konst.ki32 n |]
      | Diff_oob ->
          (* [out] 512 bytes short of the arena's end: block 0's 64
             stores land, block 1 runs off the end and fails mid-kernel *)
          let edge = Int64.of_int (Bytes.length mem.Gmem.data - 512) in
          launch ks.kd ks.pd ~grid:4
            [| Konst.kint ~bits:64 edge; Konst.kint ~bits:64 v; Konst.kf64 1.0; Konst.ki32 256 |]
      | Hot n ->
          launch ks.kh ks.ph ~grid:((n + 63) / 64)
            [| Konst.kint ~bits:64 v; Konst.kint ~bits:64 out; Konst.ki32 n |]
      | Stale -> launch ks.ks ks.ps ~grid:2 [| Konst.kint ~bits:64 out |])
    steps

let test_buffer_reuse_interleaved () =
  let ks = reuse_kernels () in
  Alcotest.(check bool) "shapes differ" true
    (ks.kd.Mach.vregs <> ks.kh.Mach.vregs
    && ks.kd.Mach.spill_slots = 0 && ks.kh.Mach.spill_slots > 0);
  let steps =
    [ Diff (1.5, 200); Hot 200; Stale; Diff (-2.0, 100); Hot 130; Diff_oob; Stale;
      Diff (0.5, 200); Hot 200; Stale; Diff (3.0, 70) ]
  in
  let expect = run_steps ~reference:true ks steps in
  let got = run_steps ~reference:false ks steps in
  List.iteri
    (fun i (e, g) ->
      match (e, g) with
      | Ok (se, ce), Ok (sg, cg) ->
          check Alcotest.string (Printf.sprintf "launch %d output" i) se sg;
          Alcotest.(check bool) (Printf.sprintf "launch %d counters" i) true (ce = cg)
      | Error me, Error mg -> check Alcotest.string (Printf.sprintf "launch %d failure" i) me mg
      | _ -> Alcotest.failf "launch %d: engines disagree on failure" i)
    (List.combine expect got);
  Alcotest.(check bool) "the failing launch failed" true
    (match List.nth got 5 with Error _ -> true | Ok _ -> false);
  (* and the buffers really were reused: a further launch hands back
     the very set the program holds now *)
  let held = Atomic.get ks.pd.Tcode.spare in
  Alcotest.(check bool) "program holds spare buffers" true (held <> None);
  ignore (run_steps ~reference:false ks [ Diff (1.0, 64) ]);
  Alcotest.(check bool) "same buffers after another launch" true
    (match (held, Atomic.get ks.pd.Tcode.spare) with
    | Some a, Some b -> a == b
    | _ -> false)

(* Two domains launching one shared program concurrently each get
   whole buffers: 200 launches per domain match the same launches run
   serially. *)
let test_buffer_reuse_two_domains () =
  let ks = reuse_kernels () in
  let steps d =
    List.init 200 (fun i ->
        if i mod 10 = 9 then Stale else Diff (float_of_int ((i * 7) + d) *. 0.25, 65 + (i mod 130)))
  in
  let serial = List.map (fun d -> run_steps ~reference:false ks (steps d)) [ 0; 1 ] in
  let doms =
    List.map (fun d -> Domain.spawn (fun () -> run_steps ~reference:false ks (steps d))) [ 0; 1 ]
  in
  List.iteri
    (fun d (dom, ser) ->
      Alcotest.(check bool) (Printf.sprintf "domain %d matches serial" d) true (Domain.join dom = ser))
    (List.combine doms serial)

(* ---- whole-application differential: the full HeCBench suite ---- *)

(* Run an app end to end (AOT-compiled, so only the executor varies)
   under one engine and return everything observable: program output,
   simulated wall clock, and the per-launch profiles (counters +
   timing report per kernel launch, most recent first). *)
let run_app_mode (a : App.t) mode =
  let exe = Harness.compile_app a Device.Amd Proteus_driver.Driver.Aot in
  let rt = Gpurt.create (Device.by_vendor Device.Amd) in
  (match mode with
  | Reference -> rt.Gpurt.exec_reference <- true
  | Threaded -> rt.Gpurt.exec_domains <- 1
  | Multicore -> rt.Gpurt.exec_domains <- 8);
  let _lm = Gpurt.load_module rt exe.Proteus_driver.Driver.fatbin in
  let res = Hostexec.run rt exe.Proteus_driver.Driver.host in
  (res.Hostexec.output, res.Hostexec.end_to_end_s, rt.Gpurt.profiles)

let app_differential (a : App.t) () =
  let out_r, t_r, prof_r = run_app_mode a Reference in
  let out_t, t_t, prof_t = run_app_mode a Threaded in
  let out_m, t_m, prof_m = run_app_mode a Multicore in
  check Alcotest.string "threaded output" out_r out_t;
  check Alcotest.string "multicore output" out_r out_m;
  check (Alcotest.float 0.0) "threaded sim time" t_r t_t;
  check (Alcotest.float 0.0) "multicore sim time" t_r t_m;
  check Alcotest.int "launch count" (List.length prof_r) (List.length prof_t);
  (* every launch: identical counters and identical simulated report *)
  Alcotest.(check bool) "threaded profiles bit-identical" true (prof_r = prof_t);
  Alcotest.(check bool) "multicore profiles bit-identical" true (prof_r = prof_m)

let () =
  Alcotest.run "exec-differential"
    [
      ( "engines",
        [
          qtest qcheck_engines_bit_identical;
          Alcotest.test_case "atomics take the serial fallback" `Quick
            test_atomics_take_serial_fallback;
          Alcotest.test_case "atomic-free kernels parallelize" `Quick
            test_parallel_safe_goes_multicore;
          Alcotest.test_case "reused buffers match the reference" `Quick
            test_buffer_reuse_interleaved;
          Alcotest.test_case "two domains share one program" `Quick
            test_buffer_reuse_two_domains;
        ] );
      ( "hecbench",
        List.map
          (fun (a : App.t) ->
            Alcotest.test_case
              (Printf.sprintf "%s: 3 engines agree" a.App.name)
              `Quick (app_differential a))
          Suite.apps );
    ]

(* silence unused-warning if a mode is never named in a failure path *)
let _ = mode_name
