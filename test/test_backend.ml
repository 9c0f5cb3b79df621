(* Backend tests: uniformity analysis, instruction selection, register
   allocation (with and without pressure), PTX round-tripping and the
   vendor register-budget rules. *)

open Proteus_support
open Proteus_ir
open Proteus_frontend
open Proteus_backend

let check = Alcotest.check

let device_of src =
  let m = (Compile.compile ~vendor:Lower.Cuda src).Compile.device in
  ignore (Proteus_opt.Pipeline.optimize_o3 m);
  m

(* ---- uniformity ---- *)

let test_uniformity_basic () =
  let m =
    device_of
      {|__global__ void k(float* v, int n, float a) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          int scale = n * 2;
          if (i < n) { v[i] = a * (float)scale + (float)i; }
        }|}
  in
  let f = Ir.find_func m "k" in
  let uni = Uniformity.compute f in
  (* find the defs: tid query divergent; n*2 uniform *)
  let div_of_call name =
    let r = ref None in
    Ir.iter_instrs f (fun i ->
        match i with
        | Ir.ICall (Some d, q, _) when q = name -> r := Some (Uniformity.is_divergent uni d)
        | _ -> ());
    !r
  in
  check Alcotest.(option bool) "tid.x divergent" (Some true) (div_of_call "gpu.tid.x");
  check Alcotest.(option bool) "ctaid.x uniform" (Some false) (div_of_call "gpu.ctaid.x");
  (* n*2: a Mul or Shl with uniform input *)
  let uniform_scale = ref false in
  Ir.iter_instrs f (fun i ->
      match i with
      | Ir.IBin (d, (Ops.Mul | Ops.Shl), Ir.Reg src, _)
        when not (Uniformity.is_divergent uni src) ->
          if not (Uniformity.is_divergent uni d) then uniform_scale := true
      | _ -> ());
  Alcotest.(check bool) "n*2 stays uniform" true !uniform_scale

let test_uniformity_control_dependence () =
  (* a phi fed by constants under a divergent branch is divergent *)
  let m =
    device_of
      {|__global__ void k(int* v, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          int tag = 0;
          if (i < n / 2) { tag = 1; } else { tag = 2; }
          v[i] = tag;
        }|}
  in
  let f = Ir.find_func m "k" in
  let uni = Uniformity.compute f in
  let phi_div = ref None in
  Ir.iter_instrs f (fun i ->
      match i with
      | Ir.IPhi (d, _) -> phi_div := Some (Uniformity.is_divergent uni d)
      | Ir.ISelect (d, _, _, _) -> phi_div := Some (Uniformity.is_divergent uni d)
      | _ -> ());
  check Alcotest.(option bool) "phi under divergent branch" (Some true) !phi_div;
  (* a divergent branch's region is its then-side only: not the branch
     block, not the join, and nothing under a later uniform branch *)
  let m =
    device_of
      {|__global__ void k(int* v, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) { v[i] = 1; }
          if (n > 4) { v[n] = 2; }
          v[i + n] = 3;
        }|}
  in
  let f = Ir.find_func m "k" in
  let uni = Uniformity.compute f in
  let storing k =
    (List.find
       (fun (b : Ir.block) ->
         List.exists
           (function Ir.IStore (Ir.Imm c, _) -> Konst.as_int c = k | _ -> false)
           b.Ir.insts)
       f.Ir.blocks)
      .Ir.label
  in
  let entry = (List.hd f.Ir.blocks).Ir.label in
  check Alcotest.(list string) "divergent branch blocks" [ entry ]
    (Util.Sset.elements uni.Uniformity.divergent_branch_blocks);
  check Alcotest.(list string) "divergent region" [ storing 1L ]
    (Util.Sset.elements uni.Uniformity.divergent_region);
  Alcotest.(check bool) "uniform-branch side outside the region" false
    (Uniformity.in_divergent_region uni (storing 2L));
  Alcotest.(check bool) "join outside the region" false
    (Uniformity.in_divergent_region uni (storing 3L))

(* ---- isel ---- *)

let daxpy_src =
  {|__global__ void daxpy(double a, double* x, double* y, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      if (i < n) { y[i] = a * x[i] + y[i]; }
    }|}

let test_isel_structure () =
  let m = device_of daxpy_src in
  let f = Ir.find_func m "daxpy" in
  let mf = Isel.lower_func m f in
  check Alcotest.string "symbol" "daxpy" mf.Mach.sym;
  check Alcotest.int "4 kernel args" 4 (List.length mf.Mach.arg_tys);
  (* entry block starts with kernarg loads *)
  let entry = List.hd mf.Mach.blocks in
  let args =
    List.filter (fun (i : Mach.minstr) -> match i.Mach.op with Mach.Oarg _ -> true | _ -> false)
      entry.Mach.code
  in
  check Alcotest.int "kernarg loads" 4 (List.length args);
  Alcotest.(check bool) "has loads" true
    (List.exists
       (fun (b : Mach.mblock) ->
         List.exists
           (fun (i : Mach.minstr) -> match i.Mach.op with Mach.Old _ -> true | _ -> false)
           b.Mach.code)
       mf.Mach.blocks)

let test_isel_frame_for_arrays () =
  let m =
    device_of
      {|__global__ void k(float* out) {
          float tmp[8];
          int i = threadIdx.x;
          tmp[i % 8] = (float)i;
          out[i] = tmp[(i + 1) % 8];
        }|}
  in
  let mf = Isel.lower_func m (Ir.find_func m "k") in
  check Alcotest.int "8 floats of frame" 32 mf.Mach.frame;
  (* array accesses classified as scratch *)
  Alcotest.(check bool) "scratch loads present" true
    (List.exists
       (fun (b : Mach.mblock) ->
         List.exists
           (fun (i : Mach.minstr) ->
             match i.Mach.op with Mach.Old (Mach.SScratch, _) -> true | _ -> false)
           b.Mach.code)
       mf.Mach.blocks)

(* A loop whose 1001 header phis form a shift chain (p_i <- p_(i+1)
   on the latch edge): every latch copy reads the destination of the
   next, so sequentialising them retires one copy per round, and all
   1001 must be placed. *)
let test_isel_phi_chain () =
  let n = 1001 in
  let f = Ir.create_func ~kind:Ir.Kernel "chain" [ ("n", Types.i64) ] Types.TVoid in
  let b = Builder.create f in
  let entry = Builder.current_block b in
  let header = Builder.new_block b "header" in
  let latch = Builder.new_block b "latch" in
  let exit = Builder.new_block b "exit" in
  Builder.br b header.Ir.label;
  let p = Array.init n (fun _ -> Ir.fresh_reg f Types.i64) in
  header.Ir.insts <-
    List.init n (fun i ->
        let next = if i + 1 < n then Ir.Reg p.(i + 1) else Ir.Imm (Konst.ki64 1) in
        Ir.IPhi (p.(i), [ (entry.Ir.label, Ir.Imm (Konst.ki64 i)); (latch.Ir.label, next) ]));
  Builder.position_at b header;
  let c = Builder.cmp b Ops.CLt (Ir.Reg p.(0)) (Ir.Reg (snd (List.hd f.Ir.params))) in
  Builder.cond_br b c latch.Ir.label exit.Ir.label;
  Builder.position_at b latch;
  Builder.br b header.Ir.label;
  Builder.position_at b exit;
  Builder.ret b None;
  let m =
    { Ir.mid = "chain"; mname = "chain"; mtarget = Ir.TDevice; globals = []; funcs = [ f ];
      annotations = []; ctors = []; mgen = 0 }
  in
  let mf = Isel.lower_func m f in
  let mb = List.find (fun (mb : Mach.mblock) -> mb.Mach.mlab = latch.Ir.label) mf.Mach.blocks in
  check Alcotest.int "latch copies" n
    (List.length
       (List.filter (fun (i : Mach.minstr) -> match i.Mach.op with Mach.Omov _ -> true | _ -> false)
          mb.Mach.code))

(* ---- register caps ---- *)

let test_gcn_caps () =
  check Alcotest.int "AOT default" 96 (Gcn.vgpr_cap None);
  check Alcotest.int "LB 128" 256 (Gcn.vgpr_cap (Some (128, 1)));
  check Alcotest.int "LB 256" 256 (Gcn.vgpr_cap (Some (256, 1)));
  check Alcotest.int "LB 1024" 128 (Gcn.vgpr_cap (Some (1024, 1)))

let test_ptxas_caps () =
  check Alcotest.int "default heuristic" 85 (Ptxas.reg_cap None);
  check Alcotest.int "LB 128" 255 (Ptxas.reg_cap (Some (128, 1)));
  check Alcotest.int "LB 1024" 128 (Ptxas.reg_cap (Some (1024, 1)))

(* ---- register allocation ---- *)

(* a kernel with ~20 mutually-live doubles *)
let pressure_src =
  let terms = List.init 20 (fun j ->
      Printf.sprintf "double t%d = v[i + %d] * %d.5 + (double)i;" j j (j + 1))
  in
  let reduce =
    String.concat " + " (List.init 20 (fun j -> Printf.sprintf "t%d * t%d" j ((j + 7) mod 20)))
  in
  Printf.sprintf
    {|__global__ void hot(double* v, double* out, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n - 32) {
          %s
          out[i] = %s;
        }
      }|}
    (String.concat "\n" terms) reduce

let alloc_with cap =
  let m = device_of pressure_src in
  let mf = Isel.lower_func m (Ir.find_func m "hot") in
  Regalloc.apply mf
    { Regalloc.cap_v = cap; cap_s = 102; rematerialize = false;
      reg_units = (fun ty -> max 1 (Types.size_of ty / 4)) };
  mf

let test_regalloc_no_spill_with_big_cap () =
  let mf = alloc_with 256 in
  check Alcotest.int "no spills" 0 mf.Mach.spill_slots;
  Alcotest.(check bool) "uses a sane number of registers" true
    (mf.Mach.vregs > 10 && mf.Mach.vregs <= 256)

let test_regalloc_spills_under_pressure () =
  let free = alloc_with 256 in
  let tight = alloc_with 32 in
  Alcotest.(check bool) "spills appear" true (tight.Mach.spill_slots > 0);
  Alcotest.(check bool)
    (Printf.sprintf "pressure measured (%d)" free.Mach.max_pressure_v)
    true
    (free.Mach.max_pressure_v > 32)

(* spilled code must still compute the same thing: execute both via the
   GPU executor and compare the output buffers *)
let run_mfunc mf ~n =
  let dev = Proteus_gpu.Device.mi250x in
  let mem = Proteus_gpu.Gmem.create () in
  let l2 = Proteus_gpu.L2cache.create dev in
  let v = Proteus_gpu.Gmem.alloc mem ((n + 64) * 8) in
  let out = Proteus_gpu.Gmem.alloc mem (n * 8) in
  for i = 0 to n + 63 do
    Proteus_gpu.Gmem.write_f64 mem (Int64.add v (Int64.of_int (i * 8)))
      (0.01 *. float_of_int i)
  done;
  let args = [| Konst.kint ~bits:64 v; Konst.kint ~bits:64 out; Konst.ki32 n |] in
  ignore
    (Proteus_gpu.Exec.launch ~device:dev ~mem ~l2
       ~symbols:(fun s -> Alcotest.failf "symbol %s" s)
       mf ~grid:((n + 63) / 64) ~block:64 ~args);
  List.init n (fun i -> Proteus_gpu.Gmem.read_f64 mem (Int64.add out (Int64.of_int (i * 8))))

let test_spilled_code_correct () =
  let n = 128 in
  let a = run_mfunc (alloc_with 256) ~n in
  let b = run_mfunc (alloc_with 32) ~n in
  List.iter2
    (fun x y ->
      if x <> y then Alcotest.failf "spilled kernel diverged: %.17g vs %.17g" x y)
    a b

(* ---- PTX round trip ---- *)

let test_ptx_roundtrip () =
  let m = device_of daxpy_src in
  let ptx = Ptx.emit m in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the kernel" true (contains ptx "daxpy");
  let parsed = Ptx.parse ptx in
  check Alcotest.int "one kernel parsed" 1 (List.length parsed.Ptx.pfuncs);
  let mf = List.hd parsed.Ptx.pfuncs in
  check Alcotest.string "name" "daxpy" mf.Mach.sym;
  check Alcotest.int "args" 4 (List.length mf.Mach.arg_tys);
  (* emitting the parsed function again is a fixpoint *)
  let ptx2 = Ptx.emit_machine [ mf ] in
  let parsed2 = Ptx.parse ptx2 in
  let count_instrs (f : Mach.mfunc) =
    List.fold_left (fun a (b : Mach.mblock) -> a + List.length b.Mach.code) 0 f.Mach.blocks
  in
  check Alcotest.int "instruction count stable" (count_instrs mf)
    (count_instrs (List.hd parsed2.Ptx.pfuncs))

let test_ptx_src_syntax () =
  List.iter
    (fun s ->
      let src = Ptx.parse_src s in
      check Alcotest.string "roundtrip" s (Ptx.src_str src))
    [ "%v3"; "%s12"; "#s32:-5"; "#s64:123456789"; "#b:1"; "#null"; "@glob" ]

let test_ptxas_assembles () =
  let m = device_of daxpy_src in
  let ptx = Ptx.emit m in
  let obj = Ptxas.compile ptx in
  check Alcotest.int "one kernel" 1 (List.length obj.Mach.kernels);
  let k = Mach.find_kernel obj "daxpy" in
  (* after SASS unification there is no scalar class *)
  check Alcotest.int "no scalar registers" 0 k.Mach.sregs;
  Alcotest.(check bool) "physical registers bounded" true (k.Mach.vregs <= 255)

let test_remat_reduces_movs () =
  let m = device_of daxpy_src in
  let mf1 = Isel.lower_func m (Ir.find_func m "daxpy") in
  let mf2 = Isel.lower_func m (Ir.find_func m "daxpy") in
  let count (f : Mach.mfunc) =
    List.fold_left (fun a (b : Mach.mblock) -> a + List.length b.Mach.code) 0 f.Mach.blocks
  in
  Regalloc.apply mf1
    { Regalloc.cap_v = 255; cap_s = 102; rematerialize = false;
      reg_units = (fun _ -> 1) };
  Regalloc.apply mf2
    { Regalloc.cap_v = 255; cap_s = 102; rematerialize = true;
      reg_units = (fun _ -> 1) };
  Alcotest.(check bool) "remat never adds instructions" true (count mf2 <= count mf1)

(* ---- object encode/decode ---- *)

let gcn_obj m = fst (Proteus_runtime.Toolchain.compile ~vendor:Proteus_gpu.Device.Amd m)

let test_obj_roundtrip () =
  let m = device_of daxpy_src in
  let obj = gcn_obj m in
  let obj = { obj with Mach.sections = [ (".jit.daxpy", "some bitcode bytes") ] } in
  let bytes = Mach.encode_obj obj in
  let obj' = Mach.decode_obj bytes in
  check Alcotest.int "kernels" 1 (List.length obj'.Mach.kernels);
  check Alcotest.(list (pair string string)) "sections survive"
    [ (".jit.daxpy", "some bitcode bytes") ]
    obj'.Mach.sections;
  let k = Mach.find_kernel obj' "daxpy" in
  let k0 = Mach.find_kernel obj "daxpy" in
  check Alcotest.int "vregs preserved" k0.Mach.vregs k.Mach.vregs;
  check Alcotest.int "blocks preserved" (List.length k0.Mach.blocks)
    (List.length k.Mach.blocks)

(* codegen reads its module without changing it: Isel splits critical
   edges on a clone, so a module compiles the same way every time
   (bench micro times codegen on one O3 module) *)
let test_codegen_pure () =
  let m =
    device_of
      {|__global__ void k(double* y, int n) {
          int i = blockIdx.x * blockDim.x + threadIdx.x;
          if (i < n) { y[i] = 2.0 * y[i]; }
        }|}
  in
  let before = Irpp.module_to_string m in
  let gcn = Mach.encode_obj (gcn_obj m) in
  let ptx = Ptx.emit m in
  check Alcotest.string "module unchanged" before (Irpp.module_to_string m);
  check Alcotest.string "GCN object repeats" gcn (Mach.encode_obj (gcn_obj m));
  check Alcotest.string "PTX repeats" ptx (Ptx.emit m)

(* ---- the allocator against the reference it replaced ---- *)

let encode_mfunc mf =
  let w = Util.Bytesio.W.create () in
  Mach.encode_mfunc w mf;
  Util.Bytesio.W.contents w

let copy_mfunc mf = Mach.decode_mfunc (Util.Bytesio.R.create (encode_mfunc mf))

(* Unallocated kernels of a device module on both vendor paths: isel
   output as GCN allocates it, and PTX emitted, parsed and unified as
   ptxas allocates it. *)
let unallocated (m : Ir.modul) =
  let gcn =
    List.filter_map
      (fun (f : Ir.func) ->
        if f.Ir.kind = Ir.Kernel && not f.Ir.is_decl then Some (`Gcn, Isel.lower_func m f)
        else None)
      m.Ir.funcs
  in
  let ptx =
    List.map
      (fun mf ->
        Ptxas.unify_classes mf;
        (`Ptx, mf))
      (Ptx.parse (Ptx.emit m)).Ptx.pfuncs
  in
  gcn @ ptx

let alloc_config path (mf : Mach.mfunc) cap rematerialize =
  match path with
  | `Gcn ->
      {
        Regalloc.cap_v = Option.value cap ~default:(Gcn.vgpr_cap mf.Mach.launch_bounds);
        cap_s = Gcn.sgpr_cap;
        rematerialize;
        reg_units = Gcn.reg_units;
      }
  | `Ptx ->
      {
        Regalloc.cap_v = Option.value cap ~default:(Ptxas.reg_cap mf.Mach.launch_bounds);
        cap_s = 8;
        rematerialize;
        reg_units = Ptxas.reg_units;
      }

let differential_modules () =
  let o3 m =
    ignore (Proteus_opt.Pipeline.optimize_o3 m);
    m
  in
  let hecbench =
    List.concat_map
      (fun (a : Proteus_hecbench.App.t) ->
        List.map
          (fun vendor ->
            o3 (Compile.compile ~name:a.Proteus_hecbench.App.name ~vendor a.source).Compile.device)
          [ Lower.Hip; Lower.Cuda ])
      Proteus_hecbench.Suite.apps
  in
  let fuzz =
    List.init 200 (fun seed ->
        let k = Proteus_fuzz.Gen.kernel ~seed ~max_stmts:12 in
        let m =
          Compile.compile_device_only ~name:"fuzz"
            (Proteus_fuzz.Pp.program_to_string k.Proteus_fuzz.Gen.prog)
        in
        if seed mod 2 = 1 then o3 m else m)
  in
  (hecbench @ [ o3 (Proteus_core.Serve.build_module 16) ]) @ fuzz

(* A scalar register live into a divergent region's join widens to the
   whole region. In compiled code such a register is also live inside
   the region (a scalar defined on both sides and read at the join would
   be a divergent phi, hence a vector register), so only a hand-built
   kernel tells the join rule apart. Here s1 is defined on both sides
   of a branch on a vector register and read at the join; widening it
   to the region start makes it overlap s4, which dies inside the
   region. *)
let divergent_join_kernel () =
  let s id = { Mach.rid = id; rcls = Mach.CS } and v id = { Mach.rid = id; rcls = Mach.CV } in
  let mov d k = { Mach.op = Mach.Omov Types.i32; dst = Some d; srcs = [ Mach.Ki (Konst.ki32 k) ] } in
  let store x =
    { Mach.op = Mach.Ost (Mach.SGlobal, Types.i32); dst = None; srcs = [ Mach.Rs x; Mach.Rs (s 0) ] }
  in
  let block mlab code term = { Mach.mlab; code; term } in
  {
    Mach.sym = "divergent_join";
    blocks =
      [
        block "b0"
          [ { Mach.op = Mach.Oquery "gpu.tid.x"; dst = Some (v 0); srcs = [] };
            { Mach.op = Mach.Oarg 0; dst = Some (s 0); srcs = [] } ]
          (Mach.Tcbr (Mach.Rs (v 0), "b1", "b2"));
        block "b1" [ mov (s 4) 5; store (s 4); mov (s 1) 1 ] (Mach.Tbr "b3");
        block "b2" [ mov (s 1) 2 ] (Mach.Tbr "b3");
        block "b3" [ store (s 1) ] Mach.Tret;
      ];
    params = []; arg_tys = [ Types.ptr Types.i32 ]; vregs = 1; sregs = 5; frame = 0;
    spill_slots = 0; launch_bounds = None; max_pressure_v = 0; max_pressure_s = 0;
  }

(* Every HeCBench kernel from HIP and CUDA, Serve's kernel family, 200
   generated kernels (O3 on every other one) and the hand-built kernel
   above, on both vendor paths (the hand-built one on GCN's), under the
   default cap and seven tighter or looser ones, with and without
   rematerialization: Regalloc must produce the reference's
   Mach bytes, which carry the code, vregs/sregs, spill_slots and the
   pressure maxima. The tight caps drive the spill and steal paths. *)
let test_regalloc_matches_reference () =
  let caps = [ None; Some 12; Some 16; Some 24; Some 32; Some 48; Some 64; Some 128 ] in
  let allocs = ref 0 and spilling = ref 0 and mismatches = ref [] in
  Refalloc.steals := 0;
  List.iter
    (fun (path, mf) ->
      List.iter
        (fun cap ->
          List.iter
            (fun remat ->
              let cfg = alloc_config path mf cap remat in
              let a = copy_mfunc mf and b = copy_mfunc mf in
              Regalloc.apply a cfg;
              Refalloc.apply b
                {
                  Refalloc.cap_v = cfg.Regalloc.cap_v;
                  cap_s = cfg.cap_s;
                  rematerialize = remat;
                  reg_units = cfg.reg_units;
                };
              incr allocs;
              if b.Mach.spill_slots > 0 then incr spilling;
              if encode_mfunc a <> encode_mfunc b then
                mismatches :=
                  Printf.sprintf "%s/%s cap %s remat %b" mf.Mach.sym
                    (match path with `Gcn -> "gcn" | `Ptx -> "ptx")
                    (match cap with Some c -> string_of_int c | None -> "default")
                    remat
                  :: !mismatches)
            [ false; true ])
        caps)
    ((`Gcn, divergent_join_kernel ()) :: List.concat_map unallocated (differential_modules ()));
  Printf.printf "regalloc differential: %d allocations, %d with spills, %d steals, %d mismatches\n"
    !allocs !spilling !Refalloc.steals (List.length !mismatches);
  (match List.rev !mismatches with
  | [] -> ()
  | first :: _ as all ->
      Alcotest.failf "%d of %d allocations differ from the reference, first: %s"
        (List.length all) !allocs first);
  Alcotest.(check bool) "covers thousands of allocations" true (!allocs >= 5000);
  Alcotest.(check bool) "reaches the spill path" true (!spilling > 0);
  Alcotest.(check bool) "reaches the steal path" true (!Refalloc.steals > 0)

(* Words allocated per Mach instruction must not grow with register
   pressure. Three synthetic 4,000-instruction kernels in which each
   value stays live for [width] instructions: 16 and 200 simultaneously
   live values in one block, and 200 across blocks of eight
   instructions. Words are counted on the minor heap plus those
   allocated directly in the major heap (arrays past 256 words).
   Measured: 49, 49 and 65 words per instruction. The blocky kernel
   pays one live-in bitset per block, a word per 32 registers, so its
   figure grows with registers x blocks / instructions. The list-based
   allocator this replaced (test/refalloc.ml) measured 624, 5,572 and
   5,614: it re-sorted the whole active list on every insert. The bound
   is 1.5x the width-16 figure. *)
let synthetic ~width ~block_len ~len =
  let v id = { Mach.rid = id; rcls = Mach.CV } in
  let blocks = ref [] and code = ref [] in
  let flush last =
    let lab = Printf.sprintf "b%d" (List.length !blocks) in
    let term =
      if last then Mach.Tret else Mach.Tbr (Printf.sprintf "b%d" (List.length !blocks + 1))
    in
    blocks := { Mach.mlab = lab; code = List.rev !code; term } :: !blocks;
    code := []
  in
  let acc = v len in
  for k = 0 to len - 1 do
    let ins =
      if k < width then
        { Mach.op = Mach.Omov Types.i32; dst = Some (v k); srcs = [ Mach.Ki (Konst.ki32 k) ] }
      else
        (* retire the value defined [width] instructions ago *)
        {
          Mach.op = Mach.Obin (Ops.Add, Types.i32);
          dst = Some (v k);
          srcs = [ Mach.Rs (v (k - width)); Mach.Rs acc ];
        }
    in
    code := ins :: !code;
    if (k + 1) mod block_len = 0 && k < len - 1 then flush false
  done;
  code :=
    { Mach.op = Mach.Ost (Mach.SGlobal, Types.i32); dst = None;
      srcs = List.init width (fun j -> Mach.Rs (v (len - 1 - j))) }
    :: !code;
  flush true;
  {
    Mach.sym = "synthetic"; blocks = List.rev !blocks; params = []; arg_tys = [];
    vregs = len + 1; sregs = 0; frame = 0; spill_slots = 0; launch_bounds = None;
    max_pressure_v = 0; max_pressure_s = 0;
  }

let words_per_instr mf =
  let n = Mach.instr_count mf in
  let cfg =
    { Regalloc.cap_v = 256; cap_s = 102; rematerialize = false; reg_units = Gcn.reg_units }
  in
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = allocated () in
  Regalloc.apply mf cfg;
  (allocated () -. w0) /. float_of_int n

let test_regalloc_allocation_flat () =
  let len = 4000 in
  let narrow = words_per_instr (synthetic ~width:16 ~block_len:len ~len) in
  let wide = words_per_instr (synthetic ~width:200 ~block_len:len ~len) in
  let blocky = words_per_instr (synthetic ~width:200 ~block_len:8 ~len) in
  Printf.printf "regalloc words per instruction: %.1f, %.1f, %.1f\n" narrow wide blocky;
  let bound = 1.5 *. narrow in
  List.iter
    (fun (what, w) ->
      if w > bound then
        Alcotest.failf "%s: %.1f words per instruction, over 1.5x the %.1f at width 16" what w
          narrow)
    [ ("width 200", wide); ("width 200 in 8-instruction blocks", blocky) ]

let () =
  Alcotest.run "backend"
    [
      ( "uniformity",
        [
          Alcotest.test_case "tid divergent, block-level uniform" `Quick test_uniformity_basic;
          Alcotest.test_case "control dependence" `Quick test_uniformity_control_dependence;
        ] );
      ( "isel",
        [
          Alcotest.test_case "structure" `Quick test_isel_structure;
          Alcotest.test_case "frames for local arrays" `Quick test_isel_frame_for_arrays;
          Alcotest.test_case "a 1001-phi shift chain keeps every copy" `Quick test_isel_phi_chain;
        ] );
      ( "caps",
        [
          Alcotest.test_case "GCN budgets" `Quick test_gcn_caps;
          Alcotest.test_case "ptxas budgets" `Quick test_ptxas_caps;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "no spill with big cap" `Quick test_regalloc_no_spill_with_big_cap;
          Alcotest.test_case "spills under pressure" `Quick test_regalloc_spills_under_pressure;
          Alcotest.test_case "spilled code is correct" `Quick test_spilled_code_correct;
          Alcotest.test_case "rematerialization" `Quick test_remat_reduces_movs;
          Alcotest.test_case "matches the reference allocator" `Quick
            test_regalloc_matches_reference;
          Alcotest.test_case "allocation per instruction is flat" `Quick
            test_regalloc_allocation_flat;
        ] );
      ( "ptx",
        [
          Alcotest.test_case "emit/parse roundtrip" `Quick test_ptx_roundtrip;
          Alcotest.test_case "operand syntax" `Quick test_ptx_src_syntax;
          Alcotest.test_case "ptxas assembles" `Quick test_ptxas_assembles;
        ] );
      ("objects", [ Alcotest.test_case "encode/decode" `Quick test_obj_roundtrip ]);
      ("codegen", [ Alcotest.test_case "leaves its module unchanged" `Quick test_codegen_pure ]);
    ]
