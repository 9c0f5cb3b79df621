(* Parsing of the annotate("jit", ...) attribute table (the IR-level
   llvm.global.annotations equivalent). *)

open Proteus_ir

type jit_annotation = {
  kernel : string; (* kernel symbol (device) or stub symbol (host) *)
  spec_args : int list; (* 1-based argument indices to specialize *)
}

let stub_prefix = "__stub_"

let is_stub s =
  String.length s > String.length stub_prefix
  && String.sub s 0 (String.length stub_prefix) = stub_prefix

let kernel_of_stub s =
  if is_stub s then String.sub s (String.length stub_prefix) (String.length s - String.length stub_prefix)
  else s

let jit_annotations (m : Ir.modul) : jit_annotation list =
  List.filter_map
    (fun (a : Ir.annotation) ->
      if a.Ir.akey = "jit" then Some { kernel = a.Ir.afunc; spec_args = a.Ir.aargs }
      else None)
    m.Ir.annotations

let find_for (m : Ir.modul) (fname : string) : jit_annotation option =
  List.find_opt (fun a -> a.kernel = fname) (jit_annotations m)

(* Encode spec-arg indices as a bitmask baked into rewritten call sites
   (argument 1 -> bit 0). *)
let mask_of_args (args : int list) : int64 =
  List.fold_left
    (fun acc i ->
      if i >= 1 && i <= 64 then Int64.logor acc (Int64.shift_left 1L (i - 1)) else acc)
    0L args

(* The argument indices of the set bits, ascending. Each step takes
   the lowest set bit and clears it, so the walk visits only set bits;
   the bits below it count its index. *)
let args_of_mask (mask : int64) : int list =
  let rec go m =
    if Int64.equal m 0L then []
    else
      let low = Int64.logand m (Int64.neg m) in
      (Proteus_support.Util.popcount64 (Int64.pred low) + 1) :: go (Int64.logxor m low)
  in
  go mask
