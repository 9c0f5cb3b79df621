(* Core GPU runtime shared by the CUDA and HIP shims: device memory
   management, module loading (with device-global allocation), kernel
   registration and launching, and per-kernel profiling history. *)

open Proteus_support
open Proteus_ir
open Proteus_backend
open Proteus_gpu

type profile = {
  psym : string;
  pcounters : Counters.t;
  preport : Timing.report;
  pvregs : int;
  psregs : int;
  pspills : int;
}

type loaded_module = {
  lobj : Mach.obj;
  lsymbols : (string, int64) Hashtbl.t;
}

type ctx = {
  device : Device.t;
  mem : Gmem.t;
  l2 : L2cache.t;
  clock : Clock.t;
  cost : Costmodel.t;
  mutable modules : loaded_module list;
  (* registration: host stub address -> kernel symbol *)
  stub_to_sym : (int64, string) Hashtbl.t;
  registered_vars : (string, unit) Hashtbl.t;
  mutable profiles : profile list; (* most recent first *)
  mutable launches : int;
  (* decoded-code cache: kernel symbol -> threaded program. Entries are
     validated by physical equality of the decoded [Mach.mfunc], so a
     respecialized kernel under the same symbol re-decodes instead of
     running stale code. *)
  tcodes : (string, Tcode.program) Hashtbl.t;
  (* block-level parallelism for the executor; 0 = automatic
     (PROTEUS_EXEC_DOMAINS or the domain count the OS recommends) *)
  mutable exec_domains : int;
  (* the executor every kernel launch runs on: [Exec.launch]. The
     whole-application differential test swaps in the reference
     interpreter here. *)
  mutable exec_launch :
    ?domains:int ->
    ?tcode:Tcode.program ->
    device:Device.t ->
    mem:Gmem.t ->
    l2:L2cache.t ->
    symbols:(string -> int64) ->
    Mach.mfunc ->
    grid:int ->
    block:int ->
    args:Konst.t array ->
    Exec.launch_result;
}

let create ?(cost = Costmodel.default) (device : Device.t) : ctx =
  {
    device;
    mem = Gmem.create ();
    l2 = L2cache.create device;
    clock = Clock.create ();
    cost;
    modules = [];
    stub_to_sym = Hashtbl.create 16;
    registered_vars = Hashtbl.create 16;
    profiles = [];
    launches = 0;
    tcodes = Hashtbl.create 16;
    exec_domains = 0;
    exec_launch = Exec.launch;
  }

let charge_api ctx = Clock.advance ctx.clock ctx.cost.Costmodel.api_call_s

(* ---- memory ---- *)

let dmalloc ctx bytes =
  charge_api ctx;
  Gmem.alloc ctx.mem bytes

let dfree ctx addr =
  charge_api ctx;
  Gmem.free ctx.mem addr

(* ---- module loading ---- *)

let init_global ctx (g : Ir.gvar) : int64 =
  let size = max (Types.size_of g.Ir.gty) 1 in
  let addr = Gmem.alloc ctx.mem size in
  (match g.Ir.ginit with
  | Ir.InitZero -> ()
  | Ir.InitString s ->
      String.iteri
        (fun i ch -> Gmem.write_u8 ctx.mem (Int64.add addr (Int64.of_int i)) (Char.code ch))
        s
  | Ir.InitConsts ks ->
      let elem_ty = match g.Ir.gty with Types.TArr (e, _) -> e | t -> t in
      let esz = Types.size_of elem_ty in
      List.iteri
        (fun i k -> Gmem.write ctx.mem elem_ty (Int64.add addr (Int64.of_int (i * esz))) k)
        ks);
  addr

let load_module ctx (obj : Mach.obj) : loaded_module =
  let lsymbols = Hashtbl.create 8 in
  List.iter
    (fun (g : Ir.gvar) -> Hashtbl.replace lsymbols g.Ir.gname (init_global ctx g))
    obj.Mach.oglobals;
  let lm = { lobj = obj; lsymbols } in
  ctx.modules <- lm :: ctx.modules;
  let bytes = String.length (Mach.encode_obj obj) in
  Clock.advance ctx.clock (float_of_int bytes *. ctx.cost.Costmodel.module_load_per_byte_s);
  lm

(* Look up a kernel across loaded modules, most recently loaded first. *)
let find_kernel ctx sym : (loaded_module * Mach.mfunc) option =
  let rec go = function
    | [] -> None
    | lm :: rest -> (
        match Mach.find_kernel_opt lm.lobj sym with
        | Some k -> Some (lm, k)
        | None -> go rest)
  in
  go ctx.modules

(* Does any loaded module carry an executable copy of [sym]? The JIT's
   fault-containment path checks this before falling back to AOT. *)
let has_kernel ctx sym : bool = find_kernel ctx sym <> None

let get_symbol_address ctx name : int64 option =
  let rec go = function
    | [] -> None
    | lm :: rest -> (
        match Hashtbl.find_opt lm.lsymbols name with
        | Some a -> Some a
        | None -> go rest)
  in
  go ctx.modules

(* Resolve a symbol for machine-code execution: device globals first. *)
let symbols_fn ctx name =
  match get_symbol_address ctx name with
  | Some a -> a
  | None -> Util.failf "device symbol %s not found in any loaded module" name

(* ---- registration (mirrors __cudaRegisterFunction / Var) ---- *)

let register_function ctx ~stub_addr ~sym =
  Hashtbl.replace ctx.stub_to_sym stub_addr sym

let register_var ctx name = Hashtbl.replace ctx.registered_vars name ()

let sym_of_stub ctx stub_addr =
  match Hashtbl.find_opt ctx.stub_to_sym stub_addr with
  | Some s -> Some s
  | None -> None

(* ---- memcpy ---- *)

let memcpy_h2d ctx ~(host : Gmem.t) ~src ~dst ~bytes =
  Gmem.blit ~src:host ~src_addr:src ~dst:ctx.mem ~dst_addr:dst ~len:bytes;
  Clock.advance ctx.clock (Costmodel.xfer ctx.cost bytes)

let memcpy_d2h ctx ~(host : Gmem.t) ~src ~dst ~bytes =
  Gmem.blit ~src:ctx.mem ~src_addr:src ~dst:host ~dst_addr:dst ~len:bytes;
  Clock.advance ctx.clock (Costmodel.xfer ctx.cost bytes)

let memcpy_d2d ctx ~src ~dst ~bytes =
  Gmem.blit ~src:ctx.mem ~src_addr:src ~dst:ctx.mem ~dst_addr:dst ~len:bytes;
  Clock.advance ctx.clock (float_of_int bytes /. (ctx.device.Device.mem_bw *. ctx.device.Device.clock_ghz *. 1e9) +. 2.0e-6)

(* Read back a device-resident global (used by the CUDA Proteus path to
   pull embedded LLVM IR out of device memory, cuModuleGetGlobal-style).
   Only reads: the caller charges the transfer ([Costmodel.xfer]) to
   whichever clock its work runs on. *)
let read_device_bytes ctx addr len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (Gmem.read_u8 ctx.mem (Int64.add addr (Int64.of_int i))))
  done;
  Bytes.to_string b

(* ---- kernel launch ---- *)

(* Fetch (or build) the threaded-code program for [k]. Callers that
   already hold a decoded program (the JIT's code cache attaches one to
   each cache entry) pass it via [?tcode]; otherwise the per-context
   symbol table answers, re-decoding only when the kernel under that
   symbol changed. *)
let get_tcode ctx ?tcode (k : Mach.mfunc) : Tcode.program =
  match tcode with
  | Some p when p.Tcode.tf == k -> p
  | _ -> (
      match Hashtbl.find_opt ctx.tcodes k.Mach.sym with
      | Some p when p.Tcode.tf == k -> p
      | _ ->
          let p = Tcode.decode k in
          Hashtbl.replace ctx.tcodes k.Mach.sym p;
          p)

let launch_mfunc ctx ?tcode (k : Mach.mfunc) ~grid ~block ~(args : Konst.t array) :
    unit =
  Clock.advance ctx.clock ctx.cost.Costmodel.launch_s;
  let tcode = get_tcode ctx ?tcode k in
  let domains = if ctx.exec_domains > 0 then Some ctx.exec_domains else None in
  let result =
    ctx.exec_launch ?domains ~tcode ~device:ctx.device ~mem:ctx.mem ~l2:ctx.l2
      ~symbols:(symbols_fn ctx) k ~grid ~block ~args
  in
  let report =
    Timing.kernel_time ctx.device k result.Exec.counters
      ~blocks:result.Exec.blocks_launched
  in
  Clock.advance ctx.clock report.Timing.duration_s;
  ctx.launches <- ctx.launches + 1;
  ctx.profiles <-
    {
      psym = k.Mach.sym;
      pcounters = result.Exec.counters;
      preport = report;
      pvregs = k.Mach.vregs;
      psregs = k.Mach.sregs;
      pspills = k.Mach.spill_slots;
    }
    :: ctx.profiles

let launch_kernel ctx ~sym ~grid ~block ~(args : Konst.t array) : unit =
  match find_kernel ctx sym with
  | Some (_, k) -> launch_mfunc ctx k ~grid ~block ~args
  | None -> Util.failf "launch of unknown kernel %s" sym

(* Aggregate profile data per kernel symbol (for Figs 7-11). *)
let profiles_for ctx sym = List.filter (fun p -> p.psym = sym) ctx.profiles

let total_kernel_time ctx =
  List.fold_left (fun acc p -> acc +. p.preport.Timing.duration_s) 0.0 ctx.profiles
