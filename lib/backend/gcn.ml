(* AMD GCN-like target: lowers device IR straight to a binary object
   (no intermediate assembly step, matching the AMDGPU backend).

   The vector-register cap models the paper's launch-bounds mechanism:
   without launch_bounds the compiler must assume the maximum block size
   (1024 threads) and allocates conservatively; with launch_bounds(T)
   the per-thread budget grows as T shrinks. 64-bit values occupy two
   32-bit register units, as on real GCN. *)

open Proteus_ir

let wave_size = 64
let vgpr_file_units = 131072 (* 32-bit VGPR units per CU usable by one block's waves *)
let default_block_assumption = 1024

(* Without launch bounds the HIP toolchain assumes the maximum block
   size (1024) and additionally reserves VGPRs to keep more than one
   wave resident, which observed behaviour puts near 96 usable VGPRs;
   with launch_bounds(T) the budget grows toward the 256 architectural
   limit. *)
let vgpr_cap (lb : (int * int) option) =
  match lb with
  | None -> min 96 (vgpr_file_units / default_block_assumption)
  | Some (t, _) -> min 256 (vgpr_file_units / max (max t wave_size) 1)

let sgpr_cap = 102

let reg_units ty = max 1 (Types.size_of ty / 4)

let lower_kernel (m : Ir.modul) (f : Ir.func) : Mach.mfunc =
  let mf = Isel.lower_func m f in
  let cfg =
    {
      Regalloc.cap_v = vgpr_cap mf.Mach.launch_bounds;
      cap_s = sgpr_cap;
      rematerialize = false;
      reg_units;
    }
  in
  Regalloc.apply mf cfg;
  mf
