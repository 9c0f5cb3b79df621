(* Device global memory: a flat byte arena with a bump/free-list
   allocator. Addresses are plain int64 offsets (address 0 is kept
   unmapped so null dereferences fail loudly).

   Every arena - a device context's, a host program's, a serve
   tenant's - starts at [initial_bytes] and doubles when an allocation
   needs more. An access is in range exactly when it lies in
   [1, size), where size is the arena's current length: the bytes
   between the break and that end read as zeros, and one byte past it
   fails. A correct program touches only what it allocated, so it sees
   no difference from a larger arena. No HeCBench cell uses more than
   270 KB of device memory, while zero-filling a 16 MB device and a
   16 MB host arena would be most of a cold run's major-heap
   allocation. *)

open Proteus_support
open Proteus_ir

type t = {
  mutable data : Bytes.t;
  mutable brk : int;
  mutable free_lists : (int * int) list; (* (addr, size) freed chunks *)
  mutable allocated : (int * int) list; (* live allocations, for free() *)
}

(* the break starts past the null guard, so no capacity is below it *)
let null_guard = 64
let initial_bytes = 1 lsl 16

let create ?(capacity = initial_bytes) () =
  {
    data = Bytes.make (max capacity null_guard) '\000';
    brk = null_guard;
    free_lists = [];
    allocated = [];
  }

(* Grow to at least [n] bytes by doubling. The old bytes are copied
   into an uninitialised buffer and only the new tail is zeroed. *)
let ensure t n =
  let len = Bytes.length t.data in
  if n > len then begin
    let cap = ref len in
    while !cap < n do
      cap := !cap * 2
    done;
    let nd = Bytes.create !cap in
    Bytes.blit t.data 0 nd 0 len;
    Bytes.fill nd len (!cap - len) '\000';
    t.data <- nd
  end

let alloc t size =
  let size = Util.round_up (max size 1) 16 in
  match List.find_opt (fun (_, s) -> s >= size) t.free_lists with
  | Some ((addr, s) as chunk) ->
      t.free_lists <- List.filter (fun c -> c <> chunk) t.free_lists;
      if s > size then t.free_lists <- (addr + size, s - size) :: t.free_lists;
      t.allocated <- (addr, size) :: t.allocated;
      Int64.of_int addr
  | None ->
      let addr = t.brk in
      ensure t (addr + size);
      t.brk <- addr + size;
      t.allocated <- (addr, size) :: t.allocated;
      Int64.of_int addr

let free t addr =
  let a = Int64.to_int addr in
  match List.assoc_opt a t.allocated with
  | Some size ->
      t.allocated <- List.remove_assoc a t.allocated;
      t.free_lists <- (a, size) :: t.free_lists
  | None -> () (* double free or foreign pointer: ignored, like cudaFree *)

(* [a > length - len], not [a + len > length]: the sum wraps for an
   address near max_int *)
let check t addr len =
  let a = Int64.to_int addr in
  if a <= 0 || a > Bytes.length t.data - len then
    Util.failf "device memory access out of range: 0x%x (+%d)" a len

let read_i64 t addr =
  check t addr 8;
  Bytes.get_int64_le t.data (Int64.to_int addr)

let write_i64 t addr v =
  check t addr 8;
  Bytes.set_int64_le t.data (Int64.to_int addr) v

let read_i32 t addr =
  check t addr 4;
  Bytes.get_int32_le t.data (Int64.to_int addr)

let write_i32 t addr v =
  check t addr 4;
  Bytes.set_int32_le t.data (Int64.to_int addr) v

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.data (Int64.to_int addr))

let write_u8 t addr v =
  check t addr 1;
  Bytes.set t.data (Int64.to_int addr) (Char.chr (v land 0xff))

let read_f64 t addr = Int64.float_of_bits (read_i64 t addr)
let write_f64 t addr v = write_i64 t addr (Int64.bits_of_float v)
let read_f32 t addr = Int32.float_of_bits (read_i32 t addr)
let write_f32 t addr v = write_i32 t addr (Int32.bits_of_float v)

(* Typed access in terms of IR types (pointers load/store as i64). *)
let read t (ty : Types.ty) addr : Konst.t =
  match ty with
  | Types.TBool -> Konst.kbool (read_u8 t addr <> 0)
  | Types.TInt 8 -> Konst.kint ~bits:8 (Int64.of_int (read_u8 t addr))
  | Types.TInt 32 -> Konst.kint ~bits:32 (Int64.of_int32 (read_i32 t addr))
  | Types.TInt _ -> Konst.kint ~bits:64 (read_i64 t addr)
  | Types.TFloat 32 -> Konst.kf32 (read_f32 t addr)
  | Types.TFloat _ -> Konst.kf64 (read_f64 t addr)
  | Types.TPtr _ -> Konst.kint ~bits:64 (read_i64 t addr)
  | Types.TVoid | Types.TArr _ ->
      Util.failf "Gmem.read: cannot read %s" (Types.to_string ty)

let write t (ty : Types.ty) addr (v : Konst.t) : unit =
  match ty with
  | Types.TBool -> write_u8 t addr (if Konst.as_bool v then 1 else 0)
  | Types.TInt 8 -> write_u8 t addr (Int64.to_int (Konst.as_int v))
  | Types.TInt 32 -> write_i32 t addr (Int64.to_int32 (Konst.as_int v))
  | Types.TInt _ -> write_i64 t addr (Konst.as_int v)
  | Types.TFloat 32 -> write_f32 t addr (Konst.as_float v)
  | Types.TFloat _ -> write_f64 t addr (Konst.as_float v)
  | Types.TPtr _ -> write_i64 t addr (Konst.as_int v)
  | Types.TVoid | Types.TArr _ ->
      Util.failf "Gmem.write: cannot write %s" (Types.to_string ty)

(* Bulk copies for cudaMemcpy-style operations between arenas. *)
let blit ~(src : t) ~(src_addr : int64) ~(dst : t) ~(dst_addr : int64) ~(len : int) =
  check src src_addr (max len 1);
  check dst dst_addr (max len 1);
  Bytes.blit src.data (Int64.to_int src_addr) dst.data (Int64.to_int dst_addr) len

let used_bytes t = t.brk
