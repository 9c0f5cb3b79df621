(* Compiler driver: source text -> AOT-compiled "executable" (host IR
   module + embedded fatbinary), optionally with the Proteus plugin
   enabled; and a program runner that executes the host module against a
   fresh simulated GPU with the Proteus JIT runtime installed. *)

open Proteus_support
open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu
open Proteus_runtime
open Proteus_core

type mode = Aot | Proteus

type exe = {
  name : string;
  vendor : Device.vendor;
  mode : mode;
  host : Ir.modul;
  fatbin : Mach.obj;
  source : string;
  ptx_bytes : int;
  (* build metrics (Fig. 5) *)
  build_wall_s : float; (* real wall-clock of this AOT compilation *)
  build_work : int; (* optimizer work units spent at build time *)
}

let frontend_vendor = function
  | Device.Amd -> Lower.Hip
  | Device.Nvidia -> Lower.Cuda

(* AOT compilation: split compile, optionally run the Proteus plugin
   (device extraction before optimization; host rewriting), O3-optimize
   both sides, compile the device side with the vendor backend, embed. *)
let compile ?(name = "app") ?(diagnostics = true) ?(werror = false)
    ?(advise = false) ~(vendor : Device.vendor) ~(mode : mode) (source : string) : exe =
  let t0 = Unix.gettimeofday () in
  let u = Compile.compile ~name ~vendor:(frontend_vendor vendor) source in
  let device = u.Compile.device and host = u.Compile.host in
  let sections =
    match mode with
    | Proteus ->
        let r = Plugin.run_device ~diagnostics ~werror ~advise ~vendor device in
        Plugin.run_host ~inferred:r.Plugin.inferred ~vendor host;
        r.Plugin.dsections
    | Aot -> []
  in
  let dev_stats = Proteus_opt.Pipeline.optimize_o3 device in
  let host_stats = Proteus_opt.Pipeline.optimize_o3 host in
  let obj, ptx = Toolchain.compile ~vendor device in
  let fatbin = Toolchain.embed ~vendor { obj with Mach.sections = sections } in
  Verify.verify_module host;
  {
    name;
    vendor;
    mode;
    host;
    fatbin;
    source;
    ptx_bytes = String.length ptx;
    build_wall_s = Unix.gettimeofday () -. t0;
    build_work = dev_stats.Proteus_opt.Pass.work + host_stats.Proteus_opt.Pass.work;
  }

type run_result = {
  exit_code : int;
  output : string;
  end_to_end_s : float; (* simulated *)
  kernel_time_s : float; (* simulated time spent in kernels *)
  jit : Stats.t option;
  cache_bytes : int; (* persistent cache size after the run *)
  rt : Gpurt.ctx; (* post-run context, for profiling reports *)
}

(* Execute a compiled program on a fresh simulated device. *)
let run ?(config = Config.default) ?(cost = Costmodel.default) (exe : exe) : run_result =
  let device = Device.by_vendor exe.vendor in
  let rt = Gpurt.create ~cost device in
  (* loading the executable loads the embedded fatbinary *)
  let _lm = Gpurt.load_module rt exe.fatbin in
  let jit =
    match exe.mode with Proteus -> Some (Jit.create ~config rt exe.vendor) | Aot -> None
  in
  let extra =
    Option.map (fun j -> fun h name args -> Jit.host_hook j h name args) jit
  in
  let result = Hostexec.run ?extra rt exe.host in
  {
    exit_code = result.Hostexec.exit_code;
    output = result.Hostexec.output;
    end_to_end_s = result.Hostexec.end_to_end_s;
    kernel_time_s = Gpurt.total_kernel_time rt;
    jit = Option.map (fun j -> j.Jit.stats) jit;
    cache_bytes =
      (match jit with Some j -> Cachestore.persistent_size j.Jit.cache | None -> 0);
    rt;
  }

let _ = Util.failf
