(* Differential tests for the executor. The reference interpreter
   (Refexec) is the executable specification; Exec.launch, serial and
   with the multicore block schedule, must match it bit for bit: memory
   contents, every performance counter, the simulated kernel timing
   derived from them, PerfLint's per-site profile, and the failure of a
   launch that fails. Kernels with atomics must demonstrably take the
   serial schedule. *)

open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu
open Proteus_runtime
open Proteus_hecbench
open Proteus_fuzz

let check = Alcotest.check
let qtest = Qseed.qtest

let compile_kernel ?(vendor = Device.Amd) src sym =
  let fe_vendor =
    match vendor with Device.Amd -> Lower.Hip | Device.Nvidia -> Lower.Cuda
  in
  let m = (Compile.compile ~vendor:fe_vendor src).Compile.device in
  ignore (Proteus_opt.Pipeline.optimize_o3 m);
  let obj, _ = Toolchain.compile ~vendor m in
  Mach.find_kernel obj sym

type engine_mode = Reference | Threaded | Multicore

let mode_name = function
  | Reference -> "reference"
  | Threaded -> "threaded"
  | Multicore -> "multicore"

(* One launch: Refexec for [Reference], Exec.launch on 1 or 4 domains
   otherwise ([tcode] is the executor's decoded program, if held). *)
let launch_mode ?tcode mode ~device ~mem ~l2 ~symbols k ~grid ~block ~args =
  match mode with
  | Reference -> Refexec.launch ~device ~mem ~l2 ~symbols k ~grid ~block ~args
  | Threaded | Multicore ->
      let domains = if mode = Multicore then 4 else 1 in
      Exec.launch ~domains ?tcode ~device ~mem ~l2 ~symbols k ~grid ~block ~args

let profiled = Oracle.profiled

(* Run [k] under one engine on a fresh device; return the raw bytes of
   the observable buffer, the counters, the simulated duration and the
   engine the launch actually used. *)
let run_mode mode k ~grid ~block ~buf_bytes ~init ~args =
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let buf = Gmem.alloc mem buf_bytes in
  init mem buf;
  let r =
    launch_mode mode ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid ~block
      ~args:(args buf)
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
      (* armed, every engine records the reference's site table; the
         multicore request then runs serially *)
      let (a1, p1) = profiled (fun () -> run Reference) in
      let (a2, p2) = profiled (fun () -> run Threaded) in
      let (a3, p3) = profiled (fun () -> run Multicore) in
      e1 = "reference" && e2 = "threaded" && e3 = "multicore" && s1 = s2
      && s2 = s3 && c1 = c2 && c2 = c3 && d1 = d2 && d2 = d3
      && a1 = (s1, c1, d1, e1) && a2 = (s2, c2, d2, e2)
      && a3 = (s3, c3, d3, "threaded") && p1 <> [] && p1 = p2 && p2 = p3)

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

(* The engine keeps its compiled warp states, register banks included,
   on the decoded program between launches (Exec.acquire / release) and
   zero-fills the banks per warp. Reuse must be invisible: a launch
   sequence that interleaves programs of different register and spill
   shapes, and survives a launch that fails mid-kernel, matches the
   reference interpreter launch for launch. *)

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

(* [Stale_partial]: the stale-read kernel on 96-thread blocks, so each
   block runs a full warp and then a 32-lane one on the same state, and
   the next block's full warp reads the float register the partial warp
   wrote before writing it *)
type step = Diff of float * int | Hot of int | Diff_oob | Stale | Stale_partial

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
  let launch ?(block = 64) k p ~grid args =
    match
      launch_mode ~tcode:p
        (if reference then Reference else Threaded)
        ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid ~block ~args
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
      | Stale -> launch ks.ks ks.ps ~grid:2 [| Konst.kint ~bits:64 out |]
      | Stale_partial -> launch ~block:96 ks.ks ks.ps ~grid:3 [| Konst.kint ~bits:64 out |])
    steps

let test_buffer_reuse_interleaved () =
  let ks = reuse_kernels () in
  Alcotest.(check bool) "shapes differ" true
    (ks.kd.Mach.vregs <> ks.kh.Mach.vregs
    && ks.kd.Mach.spill_slots = 0 && ks.kh.Mach.spill_slots > 0);
  let steps =
    [ Diff (1.5, 200); Hot 200; Stale; Diff (-2.0, 100); Hot 130; Diff_oob; Stale;
      Diff (0.5, 200); Hot 200; Stale; Stale_partial; Diff (3.0, 70); Stale_partial; Stale ]
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
  (* and the state really was reused: a further launch hands back the
     very state the program holds now *)
  let held = Atomic.get ks.pd.Tcode.states in
  Alcotest.(check int) "program holds one idle warp state" 1 (List.length held);
  ignore (run_steps ~reference:false ks [ Diff (1.0, 64) ]);
  Alcotest.(check bool) "same state after another launch" true
    (match (held, Atomic.get ks.pd.Tcode.states) with
    | [ a ], [ b ] -> a == b
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

(* ---- failed launches free their scratch ---- *)

(* Every launch allocates a per-thread scratch frame in the arena. A
   launch that fails mid-kernel must hand it back like one that
   completes: after the first of 50 identical failing launches the
   arena's break stays put (the freed chunk is reused). *)
let test_failed_launch_frees_scratch () =
  let ks = reuse_kernels () in
  List.iter
    (fun mode ->
      let dev = Device.mi250x in
      let mem = Gmem.create () and l2 = L2cache.create dev in
      let v = Gmem.alloc mem 4096 in
      (* [out] 512 bytes short of the arena's end: block 1 runs off it *)
      let edge = Int64.of_int (Bytes.length mem.Gmem.data - 512) in
      let brk = ref 0 in
      for i = 1 to 50 do
        (match
           launch_mode mode ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) ks.kd ~grid:4
             ~block:64
             ~args:[| Konst.kint ~bits:64 edge; Konst.kint ~bits:64 v; Konst.kf64 1.0; Konst.ki32 256 |]
         with
        | _ -> Alcotest.failf "%s launch %d did not fail" (mode_name mode) i
        | exception Failure _ -> ());
        if i = 1 then brk := mem.Gmem.brk
        else check Alcotest.int (Printf.sprintf "%s brk after launch %d" (mode_name mode) i) !brk mem.Gmem.brk
      done)
    [ Reference; Threaded; Multicore ]

(* ---- total decode ---- *)

let vr rid = { Mach.rid; rcls = Mach.CV }
let sr rid = { Mach.rid; rcls = Mach.CS }
let ins op dst srcs = { Mach.op; dst; srcs }
let st64 x a = ins (Mach.Ost (Mach.SGlobal, Types.i64)) None [ Mach.Rs (vr x); Mach.Rs (vr a) ]

(* A kernel whose block "odd" holds [code] and ends in [term]; only a
   launch with flag 1 enters it. Around it every lane stores its tid at
   out + 8 * tid (entry) and twice its tid (done), so the run has
   memory effects before and after the shape. *)
let shape_kernel ?(term = Mach.Tbr "done") code =
  let entry =
    [
      ins (Mach.Oarg 0) (Some (vr 0)) [];
      ins (Mach.Oquery "gpu.tid.x") (Some (vr 1)) [];
      ins (Mach.Obin (Ops.Mul, Types.i64)) (Some (vr 2)) [ Mach.Rs (vr 1); Mach.Ki (Konst.ki64 8) ];
      ins (Mach.Obin (Ops.Add, Types.i64)) (Some (vr 3)) [ Mach.Rs (vr 0); Mach.Rs (vr 2) ];
      st64 1 3;
      ins (Mach.Oarg 1) (Some (sr 0)) [];
    ]
  in
  let fin =
    [ ins (Mach.Obin (Ops.Add, Types.i64)) (Some (vr 5)) [ Mach.Rs (vr 1); Mach.Rs (vr 1) ]; st64 5 3 ]
  in
  {
    Mach.sym = "shape";
    blocks =
      [
        { Mach.mlab = "entry"; code = entry; term = Mach.Tcbr (Mach.Rs (sr 0), "odd", "done") };
        { Mach.mlab = "odd"; code; term };
        { Mach.mlab = "done"; code = fin; term = Mach.Tret };
      ];
    params = [];
    arg_tys = [ Types.ptr Types.i64; Types.i64 ];
    vregs = 8;
    sregs = 2;
    frame = 0;
    spill_slots = 1;
    launch_bounds = None;
    max_pressure_v = 0;
    max_pressure_s = 0;
  }

(* The shapes Tcode.decode used to reject, plus the operand checks it
   now makes, each as the body of block "odd" (or its terminator). *)
let bad_shapes =
  let i64 = Types.i64 and f64 = Types.TFloat 64 in
  let v1 = Mach.Rs (vr 1) and v3 = Mach.Rs (vr 3) in
  let one op dst srcs = [ ins op dst srcs ] in
  [
    ("integer op on a void type", one (Mach.Obin (Ops.Add, Types.TVoid)) (Some (vr 4)) [ v1; v1 ]);
    ("missing destination", one (Mach.Obin (Ops.Add, i64)) None [ v1; v1 ]);
    ("missing operand", one (Mach.Obin (Ops.Add, i64)) (Some (vr 4)) [ v1 ]);
    ("vector load of void", one (Mach.Old (Mach.SGlobal, Types.TVoid)) (Some (vr 4)) [ v3 ]);
    ("scalar load of void", one (Mach.Old (Mach.SGlobal, Types.TVoid)) (Some (sr 1)) [ v3 ]);
    ("store of void", one (Mach.Ost (Mach.SGlobal, Types.TVoid)) None [ v1; v3 ]);
    ("float op on an integer type",
     one (Mach.Obin (Ops.FAdd, i64)) (Some (vr 4)) [ v1; Mach.Ki (Konst.ki64 3) ]);
    ("integer op on a float type", one (Mach.Obin (Ops.Add, f64)) (Some (vr 4)) [ v1; v1 ]);
    ("unknown query", one (Mach.Oquery "gpu.laneid") (Some (vr 4)) []);
    ("bad cast", one (Mach.Ocast (Ops.FpExt, i64, Types.i32)) (Some (vr 4)) [ v1 ]);
    ("math arity", one (Mach.Omath ("math.sqrt", f64)) (Some (vr 4)) []);
    ("unknown atomic", one (Mach.Oatomic "gpu.atomic.max.i32") None [ v3; v1 ]);
    ("spill of a constant", one (Mach.Ospill_st 0) None [ Mach.Ki (Konst.ki64 1) ]);
    ("float constant as an integer",
     one (Mach.Obin (Ops.Add, i64)) (Some (vr 4)) [ v1; Mach.Ki (Konst.kf64 1.5) ]);
    ("register outside the bank", one (Mach.Omov i64) (Some (vr 4)) [ Mach.Rs (vr 99) ]);
    ("symbol read as a float before a bad constant",
     one (Mach.Obin (Ops.FAdd, f64)) (Some (vr 4)) [ Mach.Ki (Konst.ki64 1); Mach.Gs "g" ]);
  ]

(* One launch of [k] with [flag] under [mode], profile armed: the
   outcome (counters or the exception), the output, the sites, the
   arena's break and the L2 model afterwards. *)
let run_shape mode k flag =
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let out = Gmem.alloc mem (8 * 128) in
  let res, sites =
    profiled (fun () ->
        match
          launch_mode mode ~device:dev ~mem ~l2 ~symbols:(fun _ -> 64L) k ~grid:2 ~block:64
            ~args:[| Konst.kint ~bits:64 out; Konst.ki64 flag |]
        with
        | r -> Ok (r.Exec.counters, r.Exec.engine)
        | exception e -> Error (Printexc.to_string e))
  in
  let snap = String.init (8 * 128) (fun i -> Char.chr (Gmem.read_u8 mem (Int64.add out (Int64.of_int i)))) in
  (res, snap, sites, mem.Gmem.brk, l2)

let decode_total_cases =
  List.map (fun (name, code) -> (name, shape_kernel code)) bad_shapes
  @ [
      ( "branch on a float constant",
        shape_kernel ~term:(Mach.Tcbr (Mach.Ki (Konst.kf64 0.5), "done", "done")) [] );
    ]

let test_decode_total_case (name, k) () =
  ignore (Tcode.decode k);
  (* not taken: the run completes exactly as the reference's *)
  let r0, s0, p0, b0, l0 = run_shape Reference k 0 in
  (match r0 with Ok _ -> () | Error e -> Alcotest.failf "%s: reference failed untaken: %s" name e);
  List.iter
    (fun mode ->
      let r, s, p, b, l = run_shape mode k 0 in
      let what = Printf.sprintf "%s, untaken, %s" name (mode_name mode) in
      (match (r0, r) with
      | Ok (c0, _), Ok (c, _) -> Alcotest.(check bool) (what ^ " counters") true (c0 = c)
      | _, Error e -> Alcotest.failf "%s failed: %s" what e
      | Error _, _ -> assert false);
      check Alcotest.string (what ^ " output") s0 s;
      Alcotest.(check bool) (what ^ " sites") true (p0 = p);
      check Alcotest.int (what ^ " brk") b0 b;
      Alcotest.(check bool) (what ^ " L2") true (l0 = l))
    [ Threaded; Multicore ];
  (* reached: the same failure, memory, sites, break and L2 *)
  let r0, s0, p0, b0, l0 = run_shape Reference k 1 in
  let e0 = match r0 with Error e -> e | Ok _ -> Alcotest.failf "%s: reference ran it" name in
  let r, s, p, b, l = run_shape Threaded k 1 in
  let what = name ^ ", reached" in
  check Alcotest.string (what ^ " failure") e0 (match r with Error e -> e | Ok _ -> "completed");
  check Alcotest.string (what ^ " output") s0 s;
  Alcotest.(check bool) (what ^ " sites") true (p0 = p);
  check Alcotest.int (what ^ " brk") b0 b;
  Alcotest.(check bool) (what ^ " L2") true (l0 = l)

(* Mach the reference rejects before its first instruction stays a
   decode error. *)
let test_decode_malformed () =
  let k = shape_kernel [] in
  let dangling =
    { k with
      Mach.blocks =
        List.map
          (fun (b : Mach.mblock) ->
            if b.Mach.mlab = "odd" then { b with Mach.term = Mach.Tbr "nowhere" } else b)
          k.Mach.blocks }
  in
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (what ^ ": decode error") true
        (match Tcode.decode k with _ -> false | exception Tcode.Decode_error _ -> true);
      Alcotest.(check bool) (what ^ ": the reference rejects it too") true
        (match run_shape Reference k 0 with Error _, _, _, _, _ -> true | _ -> false))
    [ ("no blocks", { k with Mach.blocks = [] }); ("branch to a missing block", dangling) ]

(* ---- shape table: every compiled arm against the reference ---- *)

(* Exec compiles each instruction to a closure chosen by its operation,
   destination class, operand kinds, f32 rounding and memory type. The
   HeCBench cells and fuzz oracle (b) reach only the shapes the backend
   emits, so this table builds the others by hand: each shape is a few
   instructions in block "body", whose destination a store makes
   observable. Block "entry" sets up vector, scalar, constant and symbol
   operands; its branch into "body" selects the lanes: all of them, a
   scattered part, or lane 5 alone (a scalar destination still reads
   lane 0). Memory, counters, the site table, the L2 model and the
   failure must equal Refexec's, serially with the profile armed and on
   the multicore schedule. A failing launch on the multicore schedule
   raises the reference's failure, but its memory and L2 need not match:
   blocks after the failing one may have run, and the traces of a failed
   launch are not replayed. *)

type okind = KV | KS | KK | KG | KGbad

let kname = function KV -> "V" | KS -> "S" | KK -> "K" | KG -> "G" | KGbad -> "Gbad"
let kint v = Mach.Ki (Konst.ki64 v)
let kflt v = Mach.Ki (Konst.kf64 v)

(* operand [n] (0 or 1) of each kind; "g" resolves to the output
   buffer, "missing" fails to resolve, and a float read of a symbol
   traps *)
let iop n = function
  | KV -> Mach.Rs (vr (4 + n))
  | KS -> Mach.Rs (sr 0)
  | KK -> kint (if n = 0 then -3 else 5)
  | KG -> Mach.Gs "g"
  | KGbad -> Mach.Gs "missing"

let fop n = function
  | KV -> Mach.Rs (vr (6 + n))
  | KS -> Mach.Rs (sr 1)
  | KK -> kflt (if n = 0 then 0.75 else -2.5)
  | KG | KGbad -> Mach.Gs "g"

let shape_symbols g = if g = "g" then 64L else failwith ("no device symbol " ^ g)

(* v0 out, v1 tid, v3 the thread's 64-byte area (blocks do not share
   one: on the multicore schedule they run at the same time), v12/v13 =
   v3 + 8/16,
   v4/v5 and v6/v7 integer and float sources, v14 = tid land 1; s0 = 5,
   s1 = 2.5, s2 = out; the lanes with (tid lxor key) < limit enter, or
   for a negative key those with (tid land -key) < limit *)
let op_entry ~key ~limit =
  let b op ty d x y = ins (Mach.Obin (op, ty)) (Some (vr d)) [ x; y ] in
  let i64 = Types.i64 and f64 = Types.f64 in
  let v r = Mach.Rs (vr r) in
  [
    ins (Mach.Oarg 0) (Some (vr 0)) [];
    ins (Mach.Oquery "gpu.tid.x") (Some (vr 1)) [];
    ins (Mach.Oquery "gpu.ctaid.x") (Some (vr 2)) [];
    b Ops.Mul i64 2 (v 2) (kint 64);
    b Ops.Add i64 2 (v 2) (v 1);
    b Ops.Mul i64 2 (v 2) (kint 64);
    b Ops.Add i64 3 (v 0) (v 2);
    b Ops.Mul i64 4 (v 1) (kint 7);
    b Ops.Sub i64 4 (v 4) (kint 200);
    b Ops.Add i64 5 (v 1) (kint 3);
    ins (Mach.Ocast (Ops.SiToFp, f64, i64)) (Some (vr 6)) [ v 4 ];
    b Ops.FMul f64 6 (v 6) (kflt 0.37);
    ins (Mach.Ocast (Ops.SiToFp, f64, i64)) (Some (vr 7)) [ v 5 ];
    b Ops.FMul f64 7 (v 7) (kflt (-1.25));
    b Ops.Add i64 12 (v 3) (kint 8);
    b Ops.Add i64 13 (v 3) (kint 16);
    b Ops.And i64 14 (v 1) (kint 1);
    ins (Mach.Oarg 1) (Some (sr 0)) [];
    ins (Mach.Oarg 2) (Some (sr 1)) [];
    ins (Mach.Oarg 0) (Some (sr 2)) [];
    (if key >= 0 then b Ops.Xor i64 8 (v 1) (kint key) else b Ops.And i64 8 (v 1) (kint (-key)));
    ins (Mach.Ocmp (Ops.CLt, i64)) (Some (vr 9)) [ v 8; kint limit ];
  ]

type obs = OI of Mach.reg | OF of Mach.reg | ONone

let op_kernel ?(term = Mach.Tbr "done") ?(pre = []) ?(fin = []) ?(extra = []) ~key ~limit code obs =
  let i64 = Types.i64 and f64 = Types.f64 in
  let observe =
    match obs with
    | OI r -> [ ins (Mach.Ost (Mach.SGlobal, i64)) None [ Mach.Rs r; Mach.Rs (vr 3) ] ]
    | OF r -> [ ins (Mach.Ost (Mach.SGlobal, f64)) None [ Mach.Rs r; Mach.Rs (vr 12) ] ]
    | ONone -> []
  in
  {
    Mach.sym = "op";
    blocks =
      [
        { Mach.mlab = "entry"; code = op_entry ~key ~limit @ pre;
          term = Mach.Tcbr (Mach.Rs (vr 9), "body", "done") };
        { Mach.mlab = "body"; code = code @ observe; term };
      ]
      @ extra
      @ [ { Mach.mlab = "done"; code = fin; term = Mach.Tret } ];
    params = [];
    arg_tys = [ Types.ptr Types.i64; Types.i64; Types.f64 ];
    vregs = 24;
    sregs = 4;
    frame = 16;
    spill_slots = 2;
    launch_bounds = None;
    max_pressure_v = 0;
    max_pressure_s = 0;
  }

(* a small L2 keeps the per-launch model cheap *)
let shape_dev = { Device.mi250x with Device.l2_bytes = 1 lsl 16 }
let shape_out = 64 * 128

(* the arena's bytes from [out] on: the output buffer, then the launch's
   scratch and the free tail, which loads may read but no shape writes
   before reading *)
let shape_image = Bytes.init ((1 lsl 15) - 64) (fun i -> Char.chr (((i * 37) + (i / 64)) land 0xff))

(* Tcode.reset zeroes only the float cells of the registers in the
   program's [fruns]; the others keep what the banks were created with,
   so no instruction may write them. [sentinel_states p n] holds [n]
   idle warp states of [p] with a NaN sentinel in every such cell, and
   [sentinel_intact] checks that a launch left them all in place. A
   wrongly classified instruction shows up both ways: the sentinel is
   overwritten, or the next warp reads a stale float the reference's
   fresh arrays do not have. *)
let sentinel = 0x7ff4_5e47_1e0d_cafeL

(* [f] on the first cell and the cell count of each register outside
   [p.fruns] *)
let iter_unwritten (p : Tcode.program) (b : Tcode.banks) f =
  let written = Array.make b.Tcode.nvr false in
  Array.iter (fun (r, n) -> Array.fill written r n true) p.Tcode.fruns;
  Array.iteri (fun r w -> if not w then f (r * b.Tcode.lanes) b.Tcode.lanes) written

let sentinel_states p n =
  let ws = List.init n (fun _ -> Exec.acquire p ~lanes:shape_dev.Device.warp_size) in
  List.iter
    (fun (w : Tcode.wstate) ->
      let bf = w.Tcode.wb.Tcode.bf in
      iter_unwritten p w.Tcode.wb (fun c n -> Array.fill bf c n (Int64.float_of_bits sentinel)))
    ws;
  List.iter (Exec.release p) ws;
  ws

let sentinel_intact p ws =
  List.for_all
    (fun (w : Tcode.wstate) ->
      let bf = w.Tcode.wb.Tcode.bf and ok = ref true in
      iter_unwritten p w.Tcode.wb (fun c n ->
          for i = c to c + n - 1 do
            if not (Int64.equal (Int64.bits_of_float bf.(i)) sentinel) then ok := false
          done);
      !ok)
    ws

(* One launch of [k] under [mode] (profile armed unless multicore): the
   outcome, the output buffer (pre-filled with a byte pattern), the
   site table and the L2 model afterwards. [tcode] is the executor's
   decoded program, if held. *)
let run_op ?tcode ~block mode k =
  let mem = Gmem.create ~capacity:(1 lsl 15) () and l2 = L2cache.create shape_dev in
  let out = Gmem.alloc mem shape_out in
  Bytes.blit shape_image 0 mem.Gmem.data (Int64.to_int out) (Bytes.length shape_image);
  let launch () =
    match
      launch_mode ?tcode mode ~device:shape_dev ~mem ~l2 ~symbols:shape_symbols k ~grid:2 ~block
        ~args:[| Konst.kint ~bits:64 out; Konst.ki64 5; Konst.kf64 2.5; Konst.kbool true; Konst.KNull |]
    with
    | r -> Ok r.Exec.counters
    | exception e -> Error (Printexc.to_string e)
  in
  let res, sites = if mode = Multicore then (launch (), []) else profiled launch in
  let snap = String.init shape_out (fun i -> Char.chr (Gmem.read_u8 mem (Int64.add out (Int64.of_int i)))) in
  (res, snap, sites, l2)

(* the lanes that enter the body, as (name, key, limit, block size):
   all of them, lanes 0-39, lane 5 alone *)
let masks = [ ("full", 0, 64, 64); ("partial", 3, 40, 64); ("lane 5", 5, 1, 64) ]

(* and all lanes of a 40-thread block, whose warps start on a 40-lane
   prefix mask, and the lanes whose bit 1 is clear (pairs with gaps) *)
let sym_masks = masks @ [ ("prefix", 0, 64, 40); ("scattered", -2, 1, 64) ]

let check_shape ?(masks = masks) ?pre ?fin ?extra (name, code, obs, term) =
  List.iter
    (fun (mname, key, limit, block) ->
      let k = op_kernel ?term ?pre ?fin ?extra ~key ~limit code obs in
      let r0, s0, p0, l0 = run_op ~block Reference k in
      let what = Printf.sprintf "%s (%s)" name mname in
      let same mode =
        (* the states the launch runs on: one serially, one per block
           on the multicore schedule *)
        let tcode = Tcode.decode k in
        let ws = sentinel_states tcode (if mode = Multicore then 2 else 1) in
        let r, s, p, l = run_op ~tcode ~block mode k in
        let m = mode_name mode in
        if not (sentinel_intact tcode ws) then
          Alcotest.failf "%s, %s: a float cell outside the written registers changed" what m;
        (match (r0, r) with
        | Ok c0, Ok c ->
            if c0 <> c then Alcotest.failf "%s, %s: counters differ" what m
        | Error e0, Error e -> check Alcotest.string (what ^ ", failure, " ^ m) e0 e
        | Ok _, Error e -> Alcotest.failf "%s, %s failed: %s" what m e
        | Error e, Ok _ -> Alcotest.failf "%s, %s completed; the reference failed: %s" what m e);
        if mode = Threaded || Result.is_ok r0 then begin
          if s0 <> s then Alcotest.failf "%s, %s: memory differs" what m;
          if mode = Threaded && p0 <> p then Alcotest.failf "%s, %s: site table differs" what m;
          if l0 <> l then Alcotest.failf "%s, %s: L2 differs" what m
        end
      in
      same Threaded;
      same Multicore)
    masks

let shape ?term name code obs = (name, code, obs, term)
let kinds2 = [ (KV, KV); (KV, KS); (KS, KV); (KV, KK); (KK, KV); (KV, KG); (KG, KV); (KS, KS); (KK, KK) ]
let vdst = vr 10 and fdst = vr 11 and sdst = sr 3

(* integer and float destinations, vector and scalar *)
let idsts = [ ("v", vdst); ("s", sdst) ]
let i8 = Types.TInt 8

let alu_shapes =
  let i32 = Types.i32 and i64 = Types.i64 and f32 = Types.f32 and f64 = Types.f64 in
  let bin op ty d a b = ins (Mach.Obin (op, ty)) (Some d) [ a; b ] in
  let cross f = List.concat_map (fun (ka, kb) -> List.map (fun (dn, d) -> f ka kb dn d) idsts) kinds2 in
  let ibin =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun ty ->
            cross (fun ka kb dn d ->
                shape
                  (Printf.sprintf "%s %s %s%s->%s" (Ops.binop_to_string op) (Types.to_string ty)
                     (kname ka) (kname kb) dn)
                  [ bin op ty d (iop 0 ka) (iop 1 kb) ] (OI d)))
          [ i32; i64; i8 ])
      Ops.[ Add; Sub; Mul; SDiv; SRem; And; Or; Xor; Shl; LShr; AShr; SMin; SMax ]
  in
  let fbin =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun ty ->
            cross (fun ka kb dn d ->
                let d = if dn = "v" then fdst else d in
                shape
                  (Printf.sprintf "%s %s %s%s->%s" (Ops.binop_to_string op) (Types.to_string ty)
                     (kname ka) (kname kb) dn)
                  [ bin op ty d (fop 0 ka) (fop 1 kb) ] (OF d)))
          [ f32; f64 ])
      Ops.[ FAdd; FSub; FMul; FDiv; FRem; FMin; FMax ]
  in
  let cmp =
    List.concat_map
      (fun op ->
        cross (fun ka kb dn d ->
            shape
              (Printf.sprintf "icmp %s %s%s->%s" (Ops.cmpop_to_string op) (kname ka) (kname kb) dn)
              [ ins (Mach.Ocmp (op, i32)) (Some d) [ iop 0 ka; iop 1 kb ] ] (OI d))
        @ cross (fun ka kb dn d ->
              shape
                (Printf.sprintf "fcmp %s %s%s->%s" (Ops.cmpop_to_string op) (kname ka) (kname kb) dn)
                [ ins (Mach.Ocmp (op, f64)) (Some d) [ fop 0 ka; fop 1 kb ] ] (OI d)))
      Ops.[ CEq; CNe; CLt; CLe; CGt; CGe ]
  in
  let conds = [ ("V", Mach.Rs (vr 14)); ("S", Mach.Rs (sr 0)); ("K0", kint 0); ("G", Mach.Gs "g") ] in
  let arms = [ (KV, KV); (KV, KK); (KS, KG); (KGbad, KV); (KV, KGbad) ] in
  let sel =
    List.concat_map
      (fun (cn, c) ->
        List.concat_map
          (fun (ka, kb) ->
            List.concat_map
              (fun (dn, d) ->
                let name t = Printf.sprintf "select %s %s ? %s : %s ->%s" t cn (kname ka) (kname kb) dn in
                let fd = if dn = "v" then fdst else d in
                [
                  shape (name "i64") [ ins (Mach.Osel i64) (Some d) [ c; iop 0 ka; iop 1 kb ] ] (OI d);
                  shape (name "f64") [ ins (Mach.Osel f64) (Some fd) [ c; fop 0 ka; fop 1 kb ] ] (OF fd);
                ])
              idsts)
          arms)
      conds
  in
  let casts =
    Ops.
      [
        (SiToFp, f32, i32); (SiToFp, f64, i64); (SiToFp, f32, i8); (FpToSi, i32, f64);
        (FpToSi, i64, f64); (FpToSi, i8, f32); (FpExt, f64, f32); (FpTrunc, f32, f64);
        (Zext, i32, i8); (Zext, i64, i32); (Sext, i32, i8); (Sext, i64, i32); (Trunc, i32, i64);
        (Trunc, i8, i64); (Bitcast, f64, f64); (Bitcast, f64, i64); (Bitcast, i64, f64);
        (Bitcast, i64, i64);
      ]
  in
  let cast =
    List.concat_map
      (fun (op, dty, sty) ->
        List.concat_map
          (fun k ->
            List.map
              (fun (dn, d) ->
                let src = if Types.is_float sty then fop 0 k else iop 0 k in
                let d, o =
                  if Types.is_float dty then ((if dn = "v" then fdst else d), fun d -> OF d)
                  else (d, fun d -> OI d)
                in
                shape
                  (Printf.sprintf "cast %s %s<-%s %s->%s" (Ops.castop_to_string op)
                     (Types.to_string dty) (Types.to_string sty) (kname k) dn)
                  [ ins (Mach.Ocast (op, dty, sty)) (Some d) [ src ] ] (o d))
              idsts)
          [ KV; KS; KK ])
      casts
  in
  let mov =
    List.concat_map
      (fun (dn, d) ->
        List.map
          (fun k -> shape (Printf.sprintf "mov i64 %s->%s" (kname k) dn)
              [ ins (Mach.Omov i64) (Some d) [ iop 0 k ] ] (OI d))
          [ KV; KS; KK; KG; KGbad ]
        @ List.map
            (fun k ->
              let d = if dn = "v" then fdst else d in
              shape (Printf.sprintf "mov f64 %s->%s" (kname k) dn)
                [ ins (Mach.Omov f64) (Some d) [ fop 0 k ] ] (OF d))
            [ KV; KS; KK; KG ])
      idsts
  in
  (* the destination is also a source *)
  let v r = Mach.Rs (vr r) in
  let alias =
    [
      shape "alias add" [ bin Ops.Add i64 (vr 4) (v 4) (v 5) ] (OI (vr 4));
      shape "alias shl" [ bin Ops.Shl i32 (vr 5) (v 4) (v 5) ] (OI (vr 5));
      shape "alias fmul f32" [ bin Ops.FMul f32 (vr 6) (v 6) (v 7) ] (OF (vr 6));
      shape "alias fsub" [ bin Ops.FSub f64 (vr 7) (v 6) (v 7) ] (OF (vr 7));
      shape "alias select" [ ins (Mach.Osel i64) (Some (vr 4)) [ v 14; v 4; v 5 ] ] (OI (vr 4));
      shape "alias trunc" [ ins (Mach.Ocast (Ops.Trunc, i8, i64)) (Some (vr 4)) [ v 4 ] ] (OI (vr 4));
      shape "alias fma"
        [ ins (Mach.Omath ("math.fma", f64)) (Some (vr 6)) [ v 6; v 7; v 6 ] ] (OF (vr 6));
      shape "alias scalar" [ bin Ops.Mul i64 (sr 0) (Mach.Rs (sr 0)) (v 4) ] (OI (sr 0));
    ]
  in
  (* two failing reads: the reference reads the second operand first *)
  let order =
    [
      shape "two missing symbols" [ bin Ops.Add i64 vdst (Mach.Gs "m1") (Mach.Gs "m2") ] (OI vdst);
      shape "two missing symbols, scalar"
        [ bin Ops.Add i64 sdst (Mach.Gs "m1") (Mach.Gs "m2") ] (OI sdst);
      shape "missing symbol compared" [ ins (Mach.Ocmp (Ops.CEq, i64)) (Some vdst) [ v 4; Mach.Gs "m" ] ] (OI vdst);
      shape "missing symbol cast"
        [ ins (Mach.Ocast (Ops.Trunc, i32, i64)) (Some vdst) [ Mach.Gs "m" ] ] (OI vdst);
      shape "float op on an integer type" [ bin Ops.FAdd i64 vdst (v 4) (kint 3) ] (OI vdst);
      shape "float op on an integer type, scalar" [ bin Ops.FAdd i64 sdst (v 4) (kint 3) ] (OI sdst);
    ]
  in
  ibin @ fbin @ cmp @ sel @ cast @ mov @ alias @ order

(* an address whose end, [a + len], wraps past max_int: the bounds
   check must still fail it *)
let near_max = 0x3FFF_FFFF_FFFF_FFFC

let mem_shapes =
  let i32 = Types.i32 and i64 = Types.i64 and f32 = Types.f32 and f64 = Types.f64 in
  let tys = [ Types.TBool; i8; i32; i64; f32; f64; Types.TVoid ] in
  let addrs =
    [ ("V", Mach.Rs (vr 13)); ("S", Mach.Rs (sr 2)); ("K", kint 88); ("G", Mach.Gs "g");
      ("Gbad", Mach.Gs "missing"); ("oob", kint 1_000_000); ("near max_int", kint near_max) ]
  in
  let load =
    List.concat_map
      (fun ty ->
        List.concat_map
          (fun (an, a) ->
            List.map
              (fun (dn, d) ->
                let d, o =
                  if Types.is_float ty then ((if dn = "v" then fdst else d), fun d -> OF d)
                  else (d, fun d -> OI d)
                in
                shape
                  (Printf.sprintf "load %s [%s]->%s" (Types.to_string ty) an dn)
                  [ ins (Mach.Old (Mach.SGlobal, ty)) (Some d) [ a ] ] (o d))
              idsts)
          addrs)
      tys
  in
  let store =
    List.concat_map
      (fun ty ->
        List.concat_map
          (fun (an, a) ->
            List.map
              (fun k ->
                let v = if Types.is_float ty then fop 0 k else iop 0 k in
                shape
                  (Printf.sprintf "store %s %s [%s]" (Types.to_string ty) (kname k) an)
                  [ ins (Mach.Ost (Mach.SGlobal, ty)) None [ v; a ] ] ONone)
              [ KV; KS; KK; KG; KGbad ])
          addrs)
      tys
  in
  let v r = Mach.Rs (vr r) in
  let scratch =
    [
      shape "scratch store and load"
        [
          ins Mach.Oframe (Some (vr 15)) [ kint 8 ];
          ins (Mach.Ost (Mach.SScratch, i64)) None [ v 4; v 15 ];
          ins (Mach.Old (Mach.SScratch, i64)) (Some vdst) [ v 15 ];
        ]
        (OI vdst);
      shape "scratch frame, scalar" [ ins Mach.Oframe (Some sdst) [] ] (OI sdst);
      shape "scratch frame, vector" [ ins Mach.Oframe (Some vdst) [ kint 4 ] ] (OI vdst);
    ]
  in
  let atomics =
    List.concat_map
      (fun (name, ty, vk) ->
        List.concat_map
          (fun (an, a) ->
            List.concat_map
              (fun k ->
                let value = if ty = i32 then iop 1 k else fop 1 k in
                List.map
                  (fun (dn, d, o) ->
                    shape
                      (Printf.sprintf "%s %s [%s]->%s" name (kname k) an dn)
                      [ ins (Mach.Oatomic name) d [ a; value ] ] o)
                  [
                    ("none", None, ONone);
                    ("v", Some (if ty = i32 then vdst else fdst),
                     if ty = i32 then OI vdst else OF fdst);
                    ("s", Some sdst, if ty = i32 then OI sdst else OF sdst);
                  ])
              vk)
          [ ("V", Mach.Rs (vr 13)); ("S", Mach.Rs (sr 2)); ("Gbad", Mach.Gs "missing");
            ("oob", kint 1_000_000); ("near max_int", kint near_max) ])
      [
        ("gpu.atomic.add.i32", i32, [ KV; KK; KGbad ]);
        ("gpu.atomic.add.f32", f32, [ KV; KS; KG ]);
        ("gpu.atomic.add.f64", f64, [ KV; KK ]);
      ]
  in
  let spills =
    [
      shape "spill scalar"
        [ ins (Mach.Ospill_st 0) None [ Mach.Rs (sr 0) ]; ins (Mach.Ospill_ld 0) (Some sdst) [] ]
        (OI sdst);
      shape "spill scalar float"
        [ ins (Mach.Ospill_st 1) None [ Mach.Rs (sr 1) ]; ins (Mach.Ospill_ld 1) (Some sdst) [] ]
        (OF sdst);
      shape "spill vector"
        [ ins (Mach.Ospill_st 1) None [ v 4 ]; ins (Mach.Ospill_ld 1) (Some vdst) [] ] (OI vdst);
      shape "spill vector float"
        [ ins (Mach.Ospill_st 0) None [ v 6 ]; ins (Mach.Ospill_ld 0) (Some fdst) [] ] (OF fdst);
      shape "spill vector to scalar"
        [ ins (Mach.Ospill_st 0) None [ v 4 ]; ins (Mach.Ospill_ld 0) (Some sdst) [] ] (OI sdst);
    ]
  in
  load @ store @ scratch @ atomics @ spills

let misc_shapes =
  let f32 = Types.f32 and f64 = Types.f64 in
  let queries =
    [ "x"; "y"; "z" ]
    |> List.concat_map (fun a ->
           List.map (fun q -> Printf.sprintf "gpu.%s.%s" q a) [ "tid"; "ctaid"; "ntid"; "nctaid" ])
  in
  let query =
    List.concat_map
      (fun q ->
        List.map (fun (dn, d) -> shape (q ^ "->" ^ dn) [ ins (Mach.Oquery q) (Some d) [] ] (OI d)) idsts)
      queries
  in
  let fd dn d = if dn = "v" then fdst else d in
  let math1 =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun ty ->
            List.concat_map
              (fun k ->
                List.map
                  (fun (dn, d) ->
                    let d = fd dn d in
                    shape
                      (Printf.sprintf "%s %s %s->%s" name (Types.to_string ty) (kname k) dn)
                      [ ins (Mach.Omath (name, ty)) (Some d) [ fop 0 k ] ] (OF d))
                  idsts)
              [ KV; KS; KK; KG ])
          [ f32; f64 ])
      [ "math.sqrt"; "math.rsqrt"; "math.exp"; "math.log"; "math.sin"; "math.cos"; "math.fabs";
        "math.floor"; "math.ceil"; "math.tanh"; "math.cbrt" ]
  in
  let math2 =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun ty ->
            List.concat_map
              (fun (ka, kb) ->
                List.map
                  (fun (dn, d) ->
                    let d = fd dn d in
                    shape
                      (Printf.sprintf "%s %s %s%s->%s" name (Types.to_string ty) (kname ka) (kname kb) dn)
                      [ ins (Mach.Omath (name, ty)) (Some d) [ fop 0 ka; fop 1 kb ] ] (OF d))
                  idsts)
              [ (KV, KV); (KV, KK); (KS, KV) ])
          [ f32; f64 ])
      [ "math.pow"; "math.atan2"; "math.hypot" ]
  in
  let fma =
    List.concat_map
      (fun ty ->
        List.concat_map
          (fun (ka, kb, kc) ->
            List.map
              (fun (dn, d) ->
                let d = fd dn d in
                shape
                  (Printf.sprintf "fma %s %s%s%s->%s" (Types.to_string ty) (kname ka) (kname kb) (kname kc) dn)
                  [ ins (Mach.Omath ("math.fma", ty)) (Some d) [ fop 0 ka; fop 1 kb; fop 0 kc ] ] (OF d))
              idsts)
          [ (KV, KV, KV); (KV, KK, KS); (KS, KV, KV); (KK, KK, KK); (KV, KV, KG) ])
      [ f32; f64 ]
  in
  let args =
    List.concat_map
      (fun (dn, d) ->
        List.map
          (fun k ->
            let d, o = if k = 2 then (fd dn d, OF (fd dn d)) else (d, OI d) in
            shape (Printf.sprintf "arg %d->%s" k dn) [ ins (Mach.Oarg k) (Some d) [] ] o)
          [ 0; 1; 2; 3; 4; 5 ])
      idsts
  in
  let branches =
    List.map
      (fun (cn, c) ->
        shape ~term:(Mach.Tcbr (c, "done", "done"))
          ("branch on " ^ cn) [ ins Mach.Obarrier None [] ] ONone)
      [ ("V", Mach.Rs (vr 14)); ("S", Mach.Rs (sr 0)); ("K", kint 0); ("G", Mach.Gs "g");
        ("Gbad", Mach.Gs "missing") ]
  in
  query @ math1 @ math2 @ fma @ args @ branches

let shape_groups = [ ("alu", alu_shapes); ("memory", mem_shapes); ("misc", misc_shapes) ]

let test_shape_group shapes () = List.iter (fun sh -> check_shape sh) shapes

(* ---- symbolic values ---- *)

(* Under its entry mask, Exec keeps integer values that are uniform or
   affine in the lane as a tag (base, stride, width) and evaluates
   index arithmetic, compares, casts and addresses on the tag. These
   shapes build such operands in block "entry" (v16 affine, v17 a
   second affine, v18 uniform), so they reach block "body" symbolic,
   and then read or overwrite them there: under the full and the
   prefix mask on the tag, under the partial, scattered and lane-5
   masks through materialised lanes. [fin] runs in block "done", after
   reconvergence; [extra] blocks sit between "body" and "done". *)
type sym_case = {
  pre : Mach.minstr list;
  fin : Mach.minstr list;
  extra : Mach.mblock list;
  sh : string * Mach.minstr list * obs * Mach.mterm option;
}

let sym_shapes =
  let i32 = Types.i32 and i64 = Types.i64 and f64 = Types.f64 in
  let v r = Mach.Rs (vr r) in
  let bin op ty d a b = ins (Mach.Obin (op, ty)) (Some (vr d)) [ a; b ] in
  let case ?(pre = []) ?(fin = []) ?(extra = []) ?term name code obs =
    { pre; fin; extra; sh = (name, code, obs, term) }
  in
  (* v[r] = tid * stride + base at [ty], from a tid of its own: block
     "entry" has materialised v1, reading it in v8's xor *)
  let affine ?(ty = i64) r ~stride ~base =
    [ ins (Mach.Oquery "gpu.tid.x") (Some (vr r)) []; bin Ops.Mul ty r (v r) (kint stride);
      bin Ops.Add ty r (v r) (kint base) ]
  in
  let tyn = Types.to_string in
  let binops =
    List.concat_map
      (fun op ->
        let strides =
          match op with Ops.Add | Ops.Sub | Ops.Mul | Ops.Shl -> [ 0; 1; -1; 4; 8; 136 ] | _ -> [ 1 ]
        in
        List.concat_map
          (fun ty ->
            List.concat_map
              (fun st ->
                let pre =
                  affine ~ty 16 ~stride:st ~base:(-70) @ affine ~ty 17 ~stride:3 ~base:9
                  @ [ ins (Mach.Omov ty) (Some (vr 18)) [ kint 6 ] ]
                in
                List.map
                  (fun (pn, a, b) ->
                    case ~pre
                      (Printf.sprintf "%s %s stride %d %s" (Ops.binop_to_string op) (tyn ty) st pn)
                      [ bin op ty 10 a b ] (OI vdst))
                  [ ("AU", v 16, v 18); ("UA", v 18, v 16); ("AA", v 16, v 17);
                    ("AS", v 16, Mach.Rs (sr 0)); ("KA", kint 3, v 16); ("AK70", v 16, kint 70) ])
              strides)
          [ i64; i32; i8 ])
      Ops.[ Add; Sub; Mul; Shl; And; Or; Xor; LShr; AShr; SMin; SMax; SDiv; SRem ]
  in
  (* lanes below, inside and above the uniform, and i32 lanes that
     cross 2^31 *)
  let cmps =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun ty ->
            List.concat_map
              (fun (st, base) ->
                let pre = affine ~ty 16 ~stride:st ~base in
                List.concat_map
                  (fun u ->
                    let name o = Printf.sprintf "icmp %s %s %d*tid%+d %s %d" (Ops.cmpop_to_string op) (tyn ty) st base o u in
                    [
                      case ~pre (name "AU") [ ins (Mach.Ocmp (op, ty)) (Some vdst) [ v 16; kint u ] ] (OI vdst);
                      case ~pre (name "UA") [ ins (Mach.Ocmp (op, ty)) (Some vdst) [ kint u; v 16 ] ] (OI vdst);
                    ])
                  [ -1000; 0; 40; 2000 ])
              [ (1, 0); (-3, 100); (0, 5); (0x2000000, 0x70000000) ])
          [ i32; i64 ])
      Ops.[ CEq; CNe; CLt; CLe; CGt; CGe ]
  in
  (* an i64 affine value crossing 2^63 between lanes *)
  let wide =
    let pre =
      affine 16 ~stride:1 ~base:0x3FFF_FFFF_FFFF_FFE0
      @ [ bin Ops.Add i64 16 (v 16) (kint 0x3FFF_FFFF_FFFF_FFFF) ]
    in
    (* v18 = 2^63 - 16, which lane 17 equals *)
    let big = [ ins (Mach.Omov i64) (Some (vr 18)) [ kint 0x3FFF_FFFF_FFFF_FFF8 ]; bin Ops.Add i64 18 (v 18) (v 18) ] in
    [
      case ~pre "i64 lanes crossing 2^63, compared" [ ins (Mach.Ocmp (Ops.CLt, i64)) (Some vdst) [ v 16; kint 0 ] ] (OI vdst);
      case ~pre:(pre @ big) "i64 lanes crossing 2^63, equal to 2^63 - 16"
        [ ins (Mach.Ocmp (Ops.CEq, i64)) (Some vdst) [ v 16; v 18 ] ] (OI vdst);
      case ~pre:(pre @ big) "i64 lanes crossing 2^63, below 2^63 - 16"
        [ ins (Mach.Ocmp (Ops.CLt, i64)) (Some vdst) [ v 16; v 18 ] ] (OI vdst);
      case ~pre "i64 lanes crossing 2^63, added" [ bin Ops.Add i64 10 (v 16) (kint 7) ] (OI vdst);
      case ~pre "i64 lanes crossing 2^63, truncated" [ ins (Mach.Ocast (Ops.Trunc, i32, i64)) (Some vdst) [ v 16 ] ] (OI vdst);
    ]
  in
  let casts =
    List.concat_map
      (fun (st, base) ->
        let pre = affine ~ty:i32 16 ~stride:st ~base in
        let one (cn, op, dty, sty) =
          case ~pre (Printf.sprintf "%s %d*tid%+d" cn st base)
            [ ins (Mach.Ocast (op, dty, sty)) (Some vdst) [ v 16 ] ] (OI vdst)
        in
        List.map one
          Ops.
            [
              ("sext i64<-i32", Sext, i64, i32); ("zext i64<-i32", Zext, i64, i32);
              ("trunc i8<-i32", Trunc, i8, i32); ("sext i32<-i8", Sext, i32, i8);
              ("zext i32<-i8", Zext, i32, i8); ("bitcast i32", Bitcast, i32, i32);
              ("zext i64<-i1", Zext, i64, Types.TBool);
            ]
        @ [
            (* a wrapped i32 read at 64 bits, and again at 32 *)
            case ~pre (Printf.sprintf "sext then add i64 %d*tid%+d" st base)
              [ ins (Mach.Ocast (Ops.Sext, i64, i32)) (Some (vr 17)) [ v 16 ]; bin Ops.Add i64 10 (v 17) (v 17) ]
              (OI vdst);
            case ~pre (Printf.sprintf "add i64 of i32 %d*tid%+d" st base)
              [ bin Ops.Add i64 10 (v 16) (kint 1) ] (OI vdst);
            case ~pre (Printf.sprintf "trunc, sext, add i32 %d*tid%+d" st base)
              [ ins (Mach.Ocast (Ops.Trunc, i8, i32)) (Some (vr 17)) [ v 16 ];
                ins (Mach.Ocast (Ops.Sext, i32, i8)) (Some (vr 17)) [ v 17 ];
                bin Ops.Add i32 10 (v 17) (kint 1) ]
              (OI vdst);
          ])
      [ (1, 5); (0x2000000, 0x70000000); (0x1000000, -0x10000000); (-0x2000000, -0x70000000);
        (0, 0x7fffffff); (3, -1); (-1, 0); (40, 100) ]
  in
  (* v16 = out + tid * stride + base *)
  let addr ~stride ~base = affine 16 ~stride ~base @ [ bin Ops.Add i64 16 (v 16) (v 0) ] in
  let mem =
    (* loads read past the output buffer, which the other block of a
       multicore launch writes at the same time *)
    let loads =
      List.concat_map
        (fun (st, base) ->
          List.map
            (fun ty ->
              let d, o = if Types.is_float ty then (fdst, fun d -> OF d) else (vdst, fun d -> OI d) in
              case ~pre:(addr ~stride:st ~base:(shape_out + base))
                (Printf.sprintf "load %s [out + %d + %d*tid%+d]" (tyn ty) shape_out st base)
                [ ins (Mach.Old (Mach.SGlobal, ty)) (Some d) [ v 16 ] ] (o d))
            [ Types.TBool; i8; i32; i64; Types.f32; f64 ])
        [ (0, 88); (8, 0); (-8, 4000); (4, 16); (64, 0); (100, 8); (136, 0); (1024, 0); (-1024, 10240) ]
    in
    let stores =
      List.concat_map
        (fun (st, base) ->
          List.map
            (fun ty ->
              let value = if Types.is_float ty then v 6 else v 4 in
              case ~pre:(addr ~stride:st ~base)
                (Printf.sprintf "store %s [out + %d*tid%+d]" (tyn ty) st base)
                [ ins (Mach.Ost (Mach.SGlobal, ty)) None [ value; v 16 ] ] ONone)
            [ Types.TBool; i8; i32; i64; f64 ])
        [ (0, 88); (8, 0); (-8, 4000); (129, 0); (1024, 0) ]
    in
    let atomics =
      List.concat_map
        (fun (st, base) ->
          [
            case ~pre:(addr ~stride:st ~base)
              (Printf.sprintf "atomic add i32 [out + %d*tid%+d]" st base)
              [ ins (Mach.Oatomic "gpu.atomic.add.i32") (Some vdst) [ v 16; v 5 ] ] (OI vdst);
            case ~pre:(addr ~stride:st ~base)
              (Printf.sprintf "atomic add f64 [out + %d*tid%+d]" st base)
              [ ins (Mach.Oatomic "gpu.atomic.add.f64") None [ v 16; v 6 ] ] ONone;
          ])
        [ (0, 88); (4, 0); (8, 0); (1024, 0) ]
    in
    (* lanes at max_int - 3 + 8 * tid, and lanes 2^63 apart (Gmem reads
       an address modulo 2^63) *)
    let odd =
      let near = affine 16 ~stride:8 ~base:near_max in
      let apart =
        [ ins (Mach.Oquery "gpu.tid.x") (Some (vr 16)) [];
          bin Ops.Mul i64 16 (v 16) (kint 0x2000_0000_0000_0000); bin Ops.Shl i64 16 (v 16) (kint 2);
          bin Ops.Add i64 16 (v 16) (v 0); bin Ops.Add i64 16 (v 16) (kint shape_out) ]
      in
      [
        case ~pre:near "load i64 [max_int - 3 + 8*tid]" [ ins (Mach.Old (Mach.SGlobal, i64)) (Some vdst) [ v 16 ] ] (OI vdst);
        case ~pre:near "store i64 [max_int - 3 + 8*tid]" [ ins (Mach.Ost (Mach.SGlobal, i64)) None [ v 4; v 16 ] ] ONone;
        case ~pre:near "atomic add i32 [max_int - 3 + 8*tid]"
          [ ins (Mach.Oatomic "gpu.atomic.add.i32") None [ v 16; kint 1 ] ] ONone;
        case ~pre:apart "load i64 [out + 8192 + 2^63*tid]" [ ins (Mach.Old (Mach.SGlobal, i64)) (Some vdst) [ v 16 ] ] (OI vdst);
        case ~pre:apart "store i64 [out + 8192 + 2^63*tid]" [ ins (Mach.Ost (Mach.SGlobal, i64)) None [ v 1; v 16 ] ] ONone;
      ]
    in
    loads @ stores @ atomics @ odd
  in
  (* v16 (5 * tid + 11) overwritten in the body, stored after
     reconvergence: the lanes the body skipped keep their value *)
  let overwrite =
    let pre = affine 16 ~stride:5 ~base:11 and fin = [ st64 16 3 ] in
    List.map
      (fun (n, code) -> case ~pre ~fin ("overwritten in the body by " ^ n) code ONone)
      [
        ("add", [ bin Ops.Add i64 16 (v 16) (kint 1000) ]);
        ("and", [ bin Ops.And i64 16 (v 16) (kint 0xff) ]);
        ("mov", [ ins (Mach.Omov i64) (Some (vr 16)) [ kint 77 ] ]);
        ("arg", [ ins (Mach.Oarg 1) (Some (vr 16)) [] ]);
        ("float arg", [ ins (Mach.Oarg 2) (Some (vr 16)) [] ]);
        ("query", [ ins (Mach.Oquery "gpu.ctaid.x") (Some (vr 16)) [] ]);
        ("tid", [ ins (Mach.Oquery "gpu.tid.x") (Some (vr 16)) [] ]);
        ("frame", [ ins Mach.Oframe (Some (vr 16)) [ kint 8 ] ]);
        ("load", [ ins (Mach.Old (Mach.SGlobal, i64)) (Some (vr 16)) [ v 3 ] ]);
        ("float load", [ ins (Mach.Old (Mach.SGlobal, f64)) (Some (vr 16)) [ v 3 ] ]);
        ("spill", [ ins (Mach.Ospill_st 0) None [ v 5 ]; ins (Mach.Ospill_ld 0) (Some (vr 16)) [] ]);
        ("compare", [ ins (Mach.Ocmp (Ops.CLt, i64)) (Some (vr 16)) [ v 16; kint 100 ] ]);
        ("sext", [ ins (Mach.Ocast (Ops.Sext, i64, i32)) (Some (vr 16)) [ v 16 ] ]);
        ("fptosi", [ ins (Mach.Ocast (Ops.FpToSi, i64, f64)) (Some (vr 16)) [ v 6 ] ]);
        ("select", [ ins (Mach.Osel i64) (Some (vr 16)) [ v 14; v 16; kint 9 ] ]);
        ("atomic", [ ins (Mach.Oatomic "gpu.atomic.add.i32") (Some (vr 16)) [ v 3; kint 1 ] ]);
        ("itself", [ bin Ops.Mul i64 16 (v 16) (v 16) ]);
      ]
  in
  let spills =
    let pre = affine 16 ~stride:(-4) ~base:300 in
    [
      case ~pre "spill a symbolic register"
        [ ins (Mach.Ospill_st 1) None [ v 16 ]; ins (Mach.Ospill_ld 1) (Some vdst) [] ] (OI vdst);
      case ~pre:(pre @ [ ins (Mach.Ospill_st 1) None [ v 16 ] ])
        "spilled under the entry mask, reloaded in the body"
        [ ins (Mach.Ospill_ld 1) (Some vdst) [] ] (OI vdst);
      case ~pre "spilled to a scalar"
        [ ins (Mach.Ospill_st 0) None [ v 16 ]; ins (Mach.Ospill_ld 0) (Some sdst) [] ] (OI sdst);
    ]
  in
  (* block "body" branches on [c] to "t" (stores 1) or "e" (stores 2) *)
  let branches =
    let store k = [ ins (Mach.Ost (Mach.SGlobal, i64)) None [ kint k; v 3 ] ] in
    let extra =
      [ { Mach.mlab = "t"; code = store 1; term = Mach.Tbr "done" };
        { Mach.mlab = "e"; code = store 2; term = Mach.Tbr "done" } ]
    in
    List.map
      (fun (n, pre) ->
        case ~pre ~extra ~term:(Mach.Tcbr (v 17, "t", "e")) ("branch on " ^ n) [] ONone)
      [
        ("an affine register", affine 17 ~stride:1 ~base:0);
        ("a uniform 0", affine 17 ~stride:0 ~base:0);
        ("a uniform 7", affine 17 ~stride:0 ~base:7);
        ("a uniform compare", affine 16 ~stride:1 ~base:0 @ [ ins (Mach.Ocmp (Ops.CLt, i64)) (Some (vr 17)) [ v 16; kint 1000 ] ]);
        ("a divergent compare", affine 16 ~stride:1 ~base:0 @ [ ins (Mach.Ocmp (Ops.CLt, i64)) (Some (vr 17)) [ v 16; kint 10 ] ]);
      ]
  in
  let misc =
    List.map
      (fun q -> case ("query " ^ q) [ ins (Mach.Oquery q) (Some vdst) [] ] (OI vdst))
      [ "gpu.tid.x"; "gpu.tid.y"; "gpu.tid.z"; "gpu.ctaid.x"; "gpu.ntid.x"; "gpu.nctaid.x" ]
    @ [
        case "frame" [ ins Mach.Oframe (Some vdst) [ kint 4 ] ] (OI vdst);
        case "arg" [ ins (Mach.Oarg 1) (Some vdst) [] ] (OI vdst);
        case "bool arg" [ ins (Mach.Oarg 3) (Some vdst) [] ] (OI vdst);
        case ~pre:(affine 16 ~stride:2 ~base:1) "mov" [ ins (Mach.Omov i64) (Some vdst) [ v 16 ] ] (OI vdst);
        case ~pre:(affine 16 ~stride:2 ~base:1) "to a scalar" [ bin Ops.Add i64 3 (v 16) (kint 1) ] (OI sdst);
        case ~pre:(affine 16 ~stride:2 ~base:1) "to float" [ ins (Mach.Ocast (Ops.SiToFp, f64, i64)) (Some fdst) [ v 16 ] ] (OF fdst);
        case ~pre:(affine 16 ~stride:2 ~base:1) "select"
          [ ins (Mach.Osel i64) (Some vdst) [ v 14; v 16; v 1 ] ] (OI vdst);
      ]
  in
  binops @ cmps @ wide @ casts @ mem @ overwrite @ spills @ branches @ misc

let test_sym_shapes () =
  List.iter
    (fun c ->
      let extra = c.extra in
      check_shape ~masks:sym_masks ~pre:c.pre ~fin:c.fin ~extra c.sh)
    sym_shapes

(* ---- random affine index chains ---- *)

(* The index arithmetic kernels run: i = ctaid * ntid + tid in i32,
   j = i * c1 + c2 (i32, wrapping for some constants), widened to i64
   by sext or zext (or computed in i64, truncated to i32 and sign
   extended), less the widened c2, scaled by a shift or a multiply and
   added to a base pointer: a load from there goes to out[i], and when
   the chain is injective a store of i goes there too. Constants near
   2^31 make lanes wrap, and so fail the launch out of range; both
   engines must agree on memory, every counter (L2 hits and misses
   included) and the failure. *)
type chain = {
  c1 : int;
  c2 : int;
  widen : Ops.castop option; (* None: computed in i64, truncated, sign extended *)
  scale : [ `Shl of int | `Mul of int ];
  lty : Types.ty;
  cblock : int;
}

let chain_span = 1 lsl 19

let chain_kernel c =
  let i32 = Types.i32 and i64 = Types.i64 in
  let v r = Mach.Rs (vr r) in
  let bin op ty d a b = ins (Mach.Obin (op, ty)) (Some (vr d)) [ a; b ] in
  let w1 = match c.widen with None -> i64 | Some _ -> i32 in
  let widen d x =
    match c.widen with
    | Some op -> [ ins (Mach.Ocast (op, i64, i32)) (Some (vr d)) [ x ] ]
    | None ->
        [ ins (Mach.Ocast (Ops.Trunc, i32, i64)) (Some (vr d)) [ x ];
          ins (Mach.Ocast (Ops.Sext, i64, i32)) (Some (vr d)) [ v d ] ]
  in
  let scaled = match c.scale with `Shl k -> bin Ops.Shl i64 7 (v 6) (kint k) | `Mul m -> bin Ops.Mul i64 7 (v 6) (kint m) in
  let width = Types.size_of c.lty in
  let injective = c.c1 <> 0 && (match c.scale with `Shl k -> 1 lsl k >= 8 | `Mul m -> abs m >= 8) in
  let code =
    [
      ins (Mach.Oarg 0) (Some (vr 0)) [];
      ins (Mach.Oarg 1) (Some (vr 1)) [];
      ins (Mach.Oquery "gpu.tid.x") (Some (vr 2)) [];
      ins (Mach.Oquery "gpu.ctaid.x") (Some (vr 3)) [];
      ins (Mach.Oquery "gpu.ntid.x") (Some (vr 4)) [];
      bin Ops.Mul i32 3 (v 3) (v 4);
      bin Ops.Add i32 3 (v 3) (v 2);
      bin Ops.Mul w1 5 (v 3) (kint c.c1);
      bin Ops.Add w1 5 (v 5) (kint c.c2);
      ins (Mach.Omov w1) (Some (vr 8)) [ kint c.c2 ];
    ]
    @ widen 6 (v 5) @ widen 9 (v 8)
    @ [
        bin Ops.Sub i64 6 (v 6) (v 9);
        scaled;
        bin Ops.Add i64 7 (v 7) (v 1);
        ins (Mach.Old (Mach.SGlobal, c.lty)) (Some (vr 10)) [ v 7 ];
        ins (Mach.Ocast (Ops.Sext, i64, i32)) (Some (vr 11)) [ v 3 ];
        bin Ops.Shl i64 11 (v 11) (kint 3);
        bin Ops.Add i64 11 (v 11) (v 0);
        ins (Mach.Ost (Mach.SGlobal, c.lty)) None [ v 10; v 11 ];
      ]
    @ (if injective && width <= 8 then [ ins (Mach.Ost (Mach.SGlobal, Types.i64)) None [ v 3; v 7 ] ] else [])
  in
  {
    Mach.sym = "chain";
    blocks = [ { Mach.mlab = "entry"; code; term = Mach.Tret } ];
    params = [];
    arg_tys = [ Types.ptr Types.i64; Types.ptr Types.i64 ];
    vregs = 12; sregs = 1; frame = 0; spill_slots = 0; launch_bounds = None;
    max_pressure_v = 0; max_pressure_s = 0;
  }

let chain_input = lazy (Bytes.init (2 * chain_span) (fun k -> Char.chr ((k * 151) lxor (k lsr 9) land 0xff)))

(* One launch of a chain under [mode]: the outcome, and the arena *)
let run_chain mode c =
  let dev = Device.mi250x in
  let mem = Gmem.create ~capacity:(4 * chain_span) () and l2 = L2cache.create dev in
  let out = Gmem.alloc mem (8 * 2 * c.cblock) in
  let inp = Gmem.alloc mem (2 * chain_span) in
  Bytes.blit (Lazy.force chain_input) 0 mem.Gmem.data (Int64.to_int inp) (2 * chain_span);
  let k = chain_kernel c in
  let r =
    match
      launch_mode mode ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:2 ~block:c.cblock
        ~args:[| Konst.kint ~bits:64 out; Konst.kint ~bits:64 (Int64.add inp (Int64.of_int chain_span)) |]
    with
    | r -> Ok r.Exec.counters
    | exception e -> Error (Printexc.to_string e)
  in
  (r, Bytes.copy mem.Gmem.data)

let chain_gen =
  let open QCheck.Gen in
  let c1 = oneofl [ 0; 1; -1; 2; 3; 8; -5; 0x100; 0x1000000; 0x40000000 ] in
  let c2 =
    oneof
      [ oneofl [ 0; 5; -7; 0x7FFFFFF0; -0x7FFFFFF0; 0x7FFFFF00; 0x3FFFFFFF; -0x80000000 ];
        map (fun x -> x - 0x80000000) (int_bound 0xFFFFFFFF) ]
  in
  let widen = oneofl [ Some Ops.Sext; Some Ops.Zext; None ] in
  let scale = oneof [ map (fun k -> `Shl k) (int_bound 5); map (fun m -> `Mul m) (oneofl [ 1; 2; 4; 8; 12; 16; 200; -8 ]) ] in
  let lty = oneofl [ Types.TInt 8; Types.i32; Types.i64; Types.f64 ] in
  map
    (fun (c1, c2, widen, (scale, lty, cblock)) -> { c1; c2; widen; scale; lty; cblock })
    (quad c1 c2 widen (triple scale lty (int_range 1 160)))

let print_chain c =
  Printf.sprintf "c1=%d c2=%d widen=%s scale=%s ty=%s block=%d" c.c1 c.c2
    (match c.widen with Some op -> Ops.castop_to_string op | None -> "i64+trunc+sext")
    (match c.scale with `Shl k -> Printf.sprintf "shl %d" k | `Mul m -> Printf.sprintf "mul %d" m)
    (Types.to_string c.lty) c.cblock

let qcheck_affine_chains =
  QCheck.Test.make ~name:"affine index chains: reference = threaded = multicore" ~count:150
    (QCheck.make ~print:print_chain chain_gen)
    (fun c ->
      let r0, m0 = run_chain Reference c in
      List.for_all
        (fun mode ->
          let r, m = run_chain mode c in
          match (r0, r) with
          | Ok c0, Ok c -> c0 = c && Bytes.equal m0 m
          | Error e0, Error e -> e0 = e && (mode = Multicore || Bytes.equal m0 m)
          | _ -> false)
        [ Threaded; Multicore ])

(* ---- f32 rounding through the warp state's float32 cell ---- *)

(* Random 64-bit patterns, with the cases a float32 conversion treats
   specially forced in: NaNs with payloads, signed zeros and
   infinities, double and float32 subnormals, values past the float32
   range, and exact ties between two float32s (which round to even). *)
let f32_bits_gen =
  let open QCheck.Gen in
  let sign = map (fun b -> if b then Int64.min_int else 0L) bool in
  let with_sign g = map2 Int64.logor sign g in
  let mant = map (fun m -> Int64.logand m 0xfffffffffffffL) ui64 in
  let exp e m = Int64.logor (Int64.shift_left (Int64.of_int e) 52) m in
  let tie =
    (* a float32 widened, plus half a float32 ulp: exactly between two *)
    map2
      (fun f low ->
        let d = Int64.bits_of_float (Int32.float_of_bits f) in
        Int64.add d (if low then 0x10000000L else Int64.neg 0x10000000L))
      (map Int32.of_int (int_range 0x00800000 0x7f7fffff))
      bool
  in
  frequency
    [
      (4, ui64);
      (1, with_sign (map (fun m -> exp 0x7ff (Int64.logor m 1L)) mant));
      (1, with_sign (return 0L));
      (1, with_sign (return (exp 0x7ff 0L)));
      (1, with_sign mant);
      (1, with_sign (map2 exp (int_range (1023 - 160) (1023 - 120)) mant));
      (1, with_sign (map2 exp (int_range (1023 + 120) (1023 + 135)) mant));
      (2, with_sign tie);
    ]

let qcheck_f32_round =
  let cell = Tcode.f32_cell () in
  QCheck.Test.make ~name:"float32 cell rounding = Util.to_f32, bit for bit" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "0x%016Lx") f32_bits_gen)
    (fun bits ->
      let x = Int64.float_of_bits bits in
      Int64.equal
        (Int64.bits_of_float (Exec.f32_round cell x))
        (Int64.bits_of_float (Proteus_support.Util.to_f32 x)))

(* ---- warp states reused across the multicore schedule ---- *)

(* Each domain of a multicore launch runs its blocks on a warp state
   taken from the program, so once the first launch has compiled them,
   launches allocate nothing on the major heap: 20 launches of a
   4-block kernel on 2 domains stay under the serve gate's 8 direct
   major words per launch (see test_serve). The blocks loop long
   enough that both domains take part. *)
let test_multicore_reuse_allocation () =
  let k =
    compile_kernel
      {|__global__ void f(double* out, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          double acc = (double)i;
          for (int j = 0; j < n; j++) { acc = acc * 0.99 + (double)j; }
          out[i] = acc;
        }|}
      "f"
  in
  let p = Tcode.decode k in
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let out = Gmem.alloc mem (256 * 8) in
  let launch () =
    Exec.launch ~domains:2 ~tcode:p ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid:4
      ~block:64 ~args:[| Konst.kint ~bits:64 out; Konst.ki32 300 |]
  in
  check Alcotest.string "multicore schedule" "multicore" (launch ()).Exec.engine;
  let launches = 20 in
  Gc.full_major ();
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  for _ = 1 to launches do
    ignore (launch ())
  done;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let direct (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
  let major = (direct g1 -. direct g0) /. float_of_int launches in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f direct major words per launch < 8" major)
    true (major < 8.0);
  Alcotest.(check bool) "at most one idle state per domain" true
    (List.length (Atomic.get p.Tcode.states) <= 2)

(* ---- the arena range rule ---- *)

(* An arena starts at [Gmem.initial_bytes] and doubles on demand, and
   an access is in range exactly when it lies below the arena's current
   length. [grown_arena] takes a default arena to 128 KB through two
   allocations, checking that the growth kept every byte the 64 KB
   arena held (past the break included) and zeroed the new tail. *)
let grown_arena () =
  let mem = Gmem.create () in
  let first = Gmem.initial_bytes in
  let a = Gmem.alloc mem 40_000 in
  for i = 64 to first - 1 do
    Bytes.set mem.Gmem.data i (Char.chr ((i * 7) land 0xff))
  done;
  let b = Gmem.alloc mem 60_000 in
  check Alcotest.int "grown to 128 KB" (1 lsl 17) (Bytes.length mem.Gmem.data);
  let kept = ref true and zero = ref true in
  for i = 64 to first - 1 do
    if Bytes.get mem.Gmem.data i <> Char.chr ((i * 7) land 0xff) then kept := false
  done;
  for i = first to (1 lsl 17) - 1 do
    if Bytes.get mem.Gmem.data i <> '\000' then zero := false
  done;
  Alcotest.(check bool) "growth keeps the old bytes" true !kept;
  Alcotest.(check bool) "growth zeroes the new tail" true !zero;
  (mem, a, b)

let range_ldst =
  lazy
    (compile_kernel
       {|__global__ void ldst(double* src, double* dst, double* out, int n) {
           int i = blockIdx.x * blockDim.x + threadIdx.x;
           if (i < n) { out[i] = 2.0 * (double)i; }
           if (i == n) { *dst = *src + 1.0; }
         }|}
       "ldst")

let range_atomic =
  lazy
    (compile_kernel
       {|__global__ void bump(float* acc, double* out, int n) {
           int i = blockIdx.x * blockDim.x + threadIdx.x;
           if (i < n) { out[i] = (double)i; }
           if (i == n) { atomicAdd(acc, 1.5f); }
         }|}
       "bump")

(* One launch on a fresh grown arena, lane 0 of block 1 touching the
   arena's end [back] bytes from it ([`Load], [`Store] or [`Atomic]):
   the counters and [out] with the word at the end, or the failure
   with the L2 model's totals. *)
let range_launch mode what back =
  let dev = Device.mi250x in
  let mem, out, _ = grown_arena () and l2 = L2cache.create dev in
  let len = Bytes.length mem.Gmem.data in
  let edge = Int64.of_int (len - back) and inside = Int64.of_int (len - 8) in
  let n = 64 in
  let k, args =
    match what with
    | `Load -> (range_ldst, [| edge; inside |])
    | `Store -> (range_ldst, [| inside; edge |])
    | `Atomic -> (range_atomic, [| edge |])
  in
  let args =
    Array.append (Array.map (Konst.kint ~bits:64) args) [| Konst.kint ~bits:64 out; Konst.ki32 n |]
  in
  match
    launch_mode mode ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) (Lazy.force k) ~grid:2
      ~block:64 ~args
  with
  | r ->
      let tail = Gmem.read_f64 mem inside and atom = Gmem.read_f32 mem (Int64.of_int (len - 4)) in
      let outs = List.init n (fun i -> Gmem.read_f64 mem (Int64.add out (Int64.of_int (8 * i)))) in
      Ok (r.Exec.counters, r.Exec.engine, tail, atom, outs)
  | exception Failure msg -> Error (msg, l2.L2cache.hits, l2.L2cache.misses)

let test_arena_range_rule () =
  let mem, _, b = grown_arena () in
  let len = Bytes.length mem.Gmem.data in
  Alcotest.(check bool) "the break lies below the end" true (mem.Gmem.brk < len - 8);
  check Alcotest.int "a read past the break is zero" 0 (Gmem.read_u8 mem (Int64.of_int (len - 1)));
  check (Alcotest.float 0.0) "the allocation that grew it reads zero past the old end" 0.0
    (Gmem.read_f64 mem (Int64.add b 30_000L));
  (try
     ignore (Gmem.read_u8 mem (Int64.of_int len));
     Alcotest.fail "a read at the end succeeded"
   with Failure _ -> ());
  List.iter
    (fun (what, name, width) ->
      (* the last in-range address: every engine completes the same way *)
      let r0 = range_launch Reference what width in
      (match r0 with
      | Ok (_, _, tail, atom, _) ->
          if what = `Atomic then check (Alcotest.float 0.0) "atomic at the end" 1.5 atom
          else check (Alcotest.float 0.0) (name ^ " at the end") 1.0 tail
      | Error (e, _, _) -> Alcotest.failf "%s at the end failed: %s" name e);
      List.iter
        (fun mode ->
          let r = range_launch mode what width in
          Alcotest.(check bool)
            (Printf.sprintf "%s at the end, %s: counters and memory" name (mode_name mode))
            true
            (match (r0, r) with
            | Ok (c0, _, t0, a0, o0), Ok (c, _, t, a, o) -> c0 = c && t0 = t && a0 = a && o0 = o
            | _ -> false))
        [ Threaded; Multicore ];
      (* one byte further: the same failure everywhere, and the same L2
         totals serially (the multicore schedule replays no trace of a
         failed chunk) *)
      let e0 = range_launch Reference what (width - 1) in
      List.iter
        (fun mode ->
          match (e0, range_launch mode what (width - 1)) with
          | Error (m0, h0, x0), Error (m, h, x) ->
              check Alcotest.string (Printf.sprintf "%s past the end, %s" name (mode_name mode)) m0 m;
              if mode = Threaded then
                Alcotest.(check (pair int int))
                  (Printf.sprintf "%s past the end, L2 totals" name) (h0, x0) (h, x)
          | _ -> Alcotest.failf "%s one byte past the end did not fail on every engine" name)
        [ Threaded; Multicore ])
    [ (`Load, "load", 8); (`Store, "store", 8); (`Atomic, "atomic", 4) ];
  (* the load/store kernel really ran the multicore schedule *)
  match range_launch Multicore `Load 8 with
  | Ok (_, engine, _, _, _) -> check Alcotest.string "schedule" "multicore" engine
  | Error (e, _, _) -> Alcotest.failf "multicore load failed: %s" e

(* ---- multicore line traces ---- *)

(* A multicore launch on 4 domains runs its grid in chunks of 16
   blocks. Each block appends its cache lines to the trace buffer of
   the warp state it ran on, and the chunk's traces replay in block
   order through the shared L2 once the chunk is done. [lines_kernel]
   gives block 0 ~125x the lines of every other block (250 loop trips
   of 5 lines against one read and one write of 5 lines), and the grid
   has 3 chunks and a 1-block tail: ~1,700 lines a launch, so the state
   that runs block 0 grows its buffer to 2,048 and never again. [bad]
   names a block that reads out of range. *)
let lines_kernel =
  lazy
    (compile_kernel
       {|__global__ void lines(double* a, double* out, int heavy, int bad) {
           int b = blockIdx.x;
           int t = threadIdx.x;
           int reps = 1;
           if (b == 0) { reps = heavy; }
           double s = 0.0;
           for (int j = 0; j < reps; j++) { s = s + a[j * 64 + t]; }
           if (b == bad) { s = s + a[t + 100000000]; }
           out[b * 64 + t] = s;
         }|}
       "lines")

let lines_grid = (3 * 16) + 1
let lines_heavy = 250

(* One launch of [lines_kernel] on a fresh device: the output and the
   counters, or the failure message. *)
let lines_launch ?tcode ?(grid = lines_grid) ?(heavy = lines_heavy) ?(bad = -1) mode =
  let dev = Device.mi250x in
  let mem = Gmem.create () and l2 = L2cache.create dev in
  let a = Gmem.alloc mem (lines_heavy * 64 * 8) and out = Gmem.alloc mem (grid * 64 * 8) in
  for i = 0 to (lines_heavy * 64) - 1 do
    Gmem.write_f64 mem (Int64.add a (Int64.of_int (8 * i))) (float_of_int (i mod 97))
  done;
  match
    launch_mode ?tcode mode ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) (Lazy.force lines_kernel)
      ~grid ~block:64
      ~args:[| Konst.kint ~bits:64 a; Konst.kint ~bits:64 out; Konst.ki32 heavy; Konst.ki32 bad |]
  with
  | r ->
      let snap =
        String.init (grid * 64 * 8) (fun i -> Char.chr (Gmem.read_u8 mem (Int64.add out (Int64.of_int i))))
      in
      Ok (snap, r.Exec.counters, r.Exec.engine)
  | exception Failure msg -> Error msg

let same_run what r0 r =
  match (r0, r) with
  | Ok (s0, c0, _), Ok (s, c, _) ->
      check Alcotest.string (what ^ ": output") s0 s;
      Alcotest.(check bool) (what ^ ": counters") true (c0 = c);
      Alcotest.(check bool) (what ^ ": L2 traffic") true (c.Counters.l2_hits > 0 && c.Counters.l2_misses > 0)
  | Error e0, Error e -> check Alcotest.string (what ^ ": failure") e0 e
  | Ok _, Error e -> Alcotest.failf "%s failed: %s" what e
  | Error e, Ok _ -> Alcotest.failf "%s completed; the reference failed: %s" what e

let lines_of = function Ok (_, c, _) -> c.Counters.mem_lines | Error e -> Alcotest.failf "failed: %s" e

let test_multicore_traces () =
  (* the premise: block 0 records over 100x the lines of another block *)
  let heavy_block = lines_of (lines_launch ~grid:1 Reference) in
  let light_block = lines_of (lines_launch ~grid:2 Reference) - heavy_block in
  Alcotest.(check bool)
    (Printf.sprintf "block 0 has %d lines, the others %d" heavy_block light_block)
    true (heavy_block >= 100 * light_block);
  let p = Tcode.decode (Lazy.force lines_kernel) in
  let expect = lines_launch Reference in
  same_run "serial" expect (lines_launch ~tcode:p Threaded);
  for i = 1 to 4 do
    let r = lines_launch ~tcode:p Multicore in
    (match r with
    | Ok (_, _, e) -> check Alcotest.string "schedule" "multicore" e
    | Error _ -> ());
    same_run (Printf.sprintf "multicore launch %d" i) expect r
  done;
  (* A state whose buffer holds more lines than the whole launch
     records (the one that ran block 0 does) never grows it again: the
     next launch must append into that very buffer. *)
  let total = lines_of expect in
  let big =
    List.filter_map
      (fun (w : Tcode.wstate) ->
        let t = w.Tcode.wl.Tcode.trace in
        if Array.length t >= total then Some (w, t) else None)
      (Atomic.get p.Tcode.states)
  in
  Alcotest.(check bool) "a state holds a buffer for the whole launch" true (big <> []);
  same_run "multicore launch 5" expect (lines_launch ~tcode:p Multicore);
  List.iter
    (fun ((w : Tcode.wstate), t) ->
      Alcotest.(check bool) "the launch reused the state's buffer" true (w.Tcode.wl.Tcode.trace == t))
    big;
  Alcotest.(check bool) "idle states hold no lines" true
    (List.for_all (fun (w : Tcode.wstate) -> w.Tcode.wl.Tcode.tlen = 0) (Atomic.get p.Tcode.states));
  (* a block failing mid-chunk fails the launch as the reference does,
     and the launches after it are unaffected *)
  let bad = 16 + 4 in
  same_run "failing launch" (lines_launch ~bad Reference) (lines_launch ~tcode:p ~bad Multicore);
  same_run "after the failure" expect (lines_launch ~tcode:p Multicore);
  same_run "serial after the failure" expect (lines_launch ~tcode:p Threaded);
  (* two domains launching the shared program at once *)
  let doms =
    List.init 2 (fun _ ->
        Domain.spawn (fun () -> List.init 3 (fun _ -> lines_launch ~tcode:p Multicore)))
  in
  List.iteri
    (fun d dom ->
      List.iteri (fun i r -> same_run (Printf.sprintf "domain %d launch %d" d i) expect r) (Domain.join dom))
    doms

(* ---- whole-application differential: the full HeCBench suite ---- *)

(* Run an app end to end (AOT-compiled, so only the executor varies)
   under one engine and return everything observable: program output,
   simulated wall clock, and the per-launch profiles (counters +
   timing report per kernel launch, most recent first). *)
let run_app_mode (a : App.t) mode =
  let exe = Harness.compile_app a Device.Amd Proteus_driver.Driver.Aot in
  let rt = Gpurt.create (Device.by_vendor Device.Amd) in
  (match mode with
  | Reference ->
      rt.Gpurt.exec_launch <- (fun ?domains:_ ?tcode:_ -> Refexec.launch)
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
          Alcotest.test_case "failed launches free their scratch" `Quick
            test_failed_launch_frees_scratch;
          Alcotest.test_case "multicore launches reuse warp states" `Quick
            test_multicore_reuse_allocation;
          Alcotest.test_case "arena range rule" `Quick test_arena_range_rule;
          Alcotest.test_case "multicore traces reuse the states' buffers" `Quick
            test_multicore_traces;
          qtest qcheck_f32_round;
          qtest qcheck_affine_chains;
        ] );
      ( "shapes",
        List.map
          (fun (name, shapes) -> Alcotest.test_case name `Quick (test_shape_group shapes))
          shape_groups
        @ [ Alcotest.test_case "symbolic" `Quick test_sym_shapes ] );
      ( "decode",
        List.map
          (fun ((name, _) as c) -> Alcotest.test_case name `Quick (test_decode_total_case c))
          decode_total_cases
        @ [ Alcotest.test_case "malformed Mach is a decode error" `Quick test_decode_malformed ] );
      ( "hecbench",
        List.map
          (fun (a : App.t) ->
            Alcotest.test_case
              (Printf.sprintf "%s: 3 engines agree" a.App.name)
              `Quick (app_differential a))
          Suite.apps );
    ]
