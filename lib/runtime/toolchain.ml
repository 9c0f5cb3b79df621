(* The vendor toolchains. The two differ at one decision: the AMDGPU
   backend lowers device IR straight to a binary object, while NVPTX
   emits PTX text that NVIDIA's assembler (our Ptxas) lowers to the
   binary. Embedding into a fatbinary keeps custom sections (such as
   Proteus's .jit.<kernel>) on AMD and DISCARDS them on NVIDIA, which
   is why the Proteus plugin must smuggle extracted IR through device
   globals on that path (Sec. 3.2). *)

open Proteus_ir
open Proteus_backend
open Proteus_gpu

(* Compile every kernel of a device module (device functions must have
   been inlined by the optimizer). Returns the loadable object, which
   keeps the module's non-extern globals, and the PTX text ("" on AMD),
   whose size feeds the compile-time cost model. *)
let compile ~(vendor : Device.vendor) (m : Ir.modul) : Mach.obj * string =
  let globals = List.filter (fun (g : Ir.gvar) -> not g.Ir.gextern) m.Ir.globals in
  match vendor with
  | Device.Amd ->
      let kernels =
        List.filter_map
          (fun (f : Ir.func) ->
            if f.Ir.kind = Ir.Kernel && not f.Ir.is_decl then Some (Gcn.lower_kernel m f)
            else None)
          m.Ir.funcs
      in
      ({ Mach.okind = Mach.VGcn; kernels; oglobals = globals; sections = [] }, "")
  | Device.Nvidia ->
      let ptx = Ptx.emit m in
      (Ptxas.compile ~globals ptx, ptx)

(* Fatbinary embedding. *)
let embed ~(vendor : Device.vendor) (obj : Mach.obj) : Mach.obj =
  match vendor with
  | Device.Amd -> obj
  | Device.Nvidia -> { obj with Mach.sections = [] }
