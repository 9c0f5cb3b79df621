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

(* Walk the mask from bit 63 down, consing each set bit's argument
   index, so the list comes out ascending with no intermediate list. *)
let args_of_mask (mask : int64) : int list =
  let rec go bit acc =
    if bit < 0 then acc
    else
      let set = not (Int64.equal (Int64.logand mask (Int64.shift_left 1L bit)) 0L) in
      go (bit - 1) (if set then (bit + 1) :: acc else acc)
  in
  go 63 []
