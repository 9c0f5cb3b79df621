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
    match
      launch_mode ~tcode:p
        (if reference then Reference else Threaded)
        ~device:dev ~mem ~l2 ~symbols:(fun _ -> 0L) k ~grid ~block:64 ~args
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
   s1 = 2.5, s2 = out; the lanes with (tid lxor key) < limit enter *)
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
    b Ops.Xor i64 8 (v 1) (kint key);
    ins (Mach.Ocmp (Ops.CLt, i64)) (Some (vr 9)) [ v 8; kint limit ];
  ]

type obs = OI of Mach.reg | OF of Mach.reg | ONone

let op_kernel ?(term = Mach.Tbr "done") ~key ~limit code obs =
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
        { Mach.mlab = "entry"; code = op_entry ~key ~limit;
          term = Mach.Tcbr (Mach.Rs (vr 9), "body", "done") };
        { Mach.mlab = "body"; code = code @ observe; term };
        { Mach.mlab = "done"; code = []; term = Mach.Tret };
      ];
    params = [];
    arg_tys = [ Types.ptr Types.i64; Types.i64; Types.f64 ];
    vregs = 16;
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

(* One launch of [k] under [mode] (profile armed unless multicore): the
   outcome, the output buffer (pre-filled with a byte pattern), the
   site table and the L2 model afterwards. *)
let run_op mode k =
  let mem = Gmem.create ~capacity:(1 lsl 15) () and l2 = L2cache.create shape_dev in
  let out = Gmem.alloc mem shape_out in
  for i = 0 to shape_out - 1 do
    Gmem.write_u8 mem (Int64.add out (Int64.of_int i)) ((i * 37) + (i / 64) land 0xff)
  done;
  let launch () =
    match
      launch_mode mode ~device:shape_dev ~mem ~l2 ~symbols:shape_symbols k ~grid:2 ~block:64
        ~args:[| Konst.kint ~bits:64 out; Konst.ki64 5; Konst.kf64 2.5; Konst.kbool true; Konst.KNull |]
    with
    | r -> Ok r.Exec.counters
    | exception e -> Error (Printexc.to_string e)
  in
  let res, sites = if mode = Multicore then (launch (), []) else profiled launch in
  let snap = String.init shape_out (fun i -> Char.chr (Gmem.read_u8 mem (Int64.add out (Int64.of_int i)))) in
  (res, snap, sites, l2)

let masks = [ ("full", 0, 64); ("partial", 3, 40); ("lane 5", 5, 1) ]

let check_shape (name, code, obs, term) =
  List.iter
    (fun (mname, key, limit) ->
      let k = op_kernel ?term ~key ~limit code obs in
      let r0, s0, p0, l0 = run_op Reference k in
      let what = Printf.sprintf "%s (%s)" name mname in
      let same mode =
        let r, s, p, l = run_op mode k in
        let m = mode_name mode in
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

let mem_shapes =
  let i32 = Types.i32 and i64 = Types.i64 and f32 = Types.f32 and f64 = Types.f64 in
  let tys = [ Types.TBool; i8; i32; i64; f32; f64; Types.TVoid ] in
  let addrs =
    [ ("V", Mach.Rs (vr 13)); ("S", Mach.Rs (sr 2)); ("K", kint 88); ("G", Mach.Gs "g");
      ("Gbad", Mach.Gs "missing"); ("oob", kint 1_000_000) ]
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
            ("oob", kint 1_000_000) ])
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

let test_shape_group shapes () = List.iter check_shape shapes

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
          qtest qcheck_f32_round;
        ] );
      ( "shapes",
        List.map
          (fun (name, shapes) -> Alcotest.test_case name `Quick (test_shape_group shapes))
          shape_groups );
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
