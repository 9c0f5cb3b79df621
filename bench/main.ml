(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table 1-3, Figures 3-11) on the simulated AMD and NVIDIA
   devices, plus bechamel micro-benchmarks of the real (wall-clock)
   costs of the JIT pipeline stages.

   Usage: main.exe [all|table1|table2|table3|fig3|fig4|fig5|fig6|
                    fig7|fig8|fig9|fig10|fig11|micro|--analyze|
                    --inject-faults] [--json FILE]

   --json FILE additionally writes a machine-readable summary: wall
   time per executed target plus every (app, vendor, method) cell
   measured during the run (simulated e2e/kernel milliseconds), so
   performance work can diff runs numerically instead of scraping the
   printed tables.

   --analyze times the KernelSan static analyses over every bundled
   program. --inject-faults runs the HeCBench suite with a
   deterministic fault forced at every JIT stage in turn and exits
   non-zero unless every program completes with AOT-identical output
   (robustness gate).                                                *)

open Proteus_gpu
open Proteus_hecbench
module Json = Proteus_support.Json

let vname = function Device.Amd -> "AMD" | Device.Nvidia -> "NVIDIA"
let vendors = [ Device.Amd; Device.Nvidia ]

(* --json rows: every per-(app, vendor) section row starts with these
   two fields, and times are written in milliseconds (a NaN from an
   n/a cell prints as null) *)
let cell_fields name vendor = [ ("app", Json.Str name); ("vendor", Json.Str (vname vendor)) ]
let json_ms (s : float) = Json.Num (s *. 1e3)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Shared sweep: every (app, vendor, method) cell, computed once.      *)

let sweep_cache : (string, Harness.measurement) Hashtbl.t = Hashtbl.create 64

let cell (a : App.t) vendor meth : Harness.measurement =
  let key =
    Printf.sprintf "%s/%s/%s" a.App.name (vname vendor) (Harness.method_name meth)
  in
  match Hashtbl.find_opt sweep_cache key with
  | Some m -> m
  | None ->
      let m = Harness.run a vendor meth in
      Hashtbl.replace sweep_cache key m;
      m

let methods = [ Harness.AOT; Harness.Proteus_cold; Harness.Proteus_warm ]

(* The paper reports the mean of three runs with <1.64% stderr; the
   simulator is deterministic, so repeated runs are identical and we
   report +/-0.00%. *)
let fmt_time m =
  if m.Harness.na then "N/A"
  else Printf.sprintf "%.4f+-0.00%%" (m.Harness.e2e_s *. 1e3)

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: Benchmark programs";
  Printf.printf "%-10s %-28s %s\n" "Benchmark" "Domain" "Input";
  List.iter
    (fun (a : App.t) ->
      Printf.printf "%-10s %-28s %s\n" a.App.name a.App.domain a.App.input_desc)
    Suite.apps

let table2 () =
  header "Table 2: End-to-end execution time (ms, simulated) per program and method";
  List.iter
    (fun vendor ->
      Printf.printf "\n[%s]\n%-10s" (vname vendor) "";
      List.iter (fun (a : App.t) -> Printf.printf " %16s" a.App.name) Suite.apps;
      Printf.printf "\n";
      let meths =
        methods @ (if vendor = Device.Nvidia then [ Harness.Jitify_m ] else [])
      in
      List.iter
        (fun meth ->
          Printf.printf "%-10s" (Harness.method_name meth);
          List.iter
            (fun a -> Printf.printf " %16s" (fmt_time (cell a vendor meth)))
            Suite.apps;
          Printf.printf "\n")
        meths)
    vendors

let fig3 () =
  header "Figure 3: End-to-end speedup over AOT (incl. JIT overhead)";
  List.iter
    (fun vendor ->
      Printf.printf "\n[%s]\n%-10s %10s %10s%s\n" (vname vendor) "" "Proteus"
        "Proteus+$"
        (if vendor = Device.Nvidia then "     Jitify" else "");
      List.iter
        (fun (a : App.t) ->
          let aot = cell a vendor Harness.AOT in
          let sp m =
            if m.Harness.na then "       N/A"
            else Printf.sprintf "%10.2f" (aot.Harness.e2e_s /. m.Harness.e2e_s)
          in
          Printf.printf "%-10s %s %s%s\n" a.App.name
            (sp (cell a vendor Harness.Proteus_cold))
            (sp (cell a vendor Harness.Proteus_warm))
            (if vendor = Device.Nvidia then " " ^ sp (cell a vendor Harness.Jitify_m)
             else ""))
        Suite.apps)
    vendors

let fig4 () =
  header "Figure 4: Kernel-only speedup over AOT (excl. JIT overhead), NVIDIA";
  Printf.printf "%-10s %10s %10s %10s\n" "" "Proteus" "Proteus+$" "Jitify";
  List.iter
    (fun (a : App.t) ->
      let aot = cell a Device.Nvidia Harness.AOT in
      let sp m =
        if m.Harness.na then "       N/A"
        else Printf.sprintf "%10.2f" (aot.Harness.kernel_s /. m.Harness.kernel_s)
      in
      Printf.printf "%-10s %s %s %s\n" a.App.name
        (sp (cell a Device.Nvidia Harness.Proteus_cold))
        (sp (cell a Device.Nvidia Harness.Proteus_warm))
        (sp (cell a Device.Nvidia Harness.Jitify_m)))
    Suite.apps

(* AOT compilation slowdown with JIT extensions: real wall-clock of our
   own pipeline, with/without the Proteus plugin; for Jitify the
   header-only template library must be parsed into every TU, emulated
   with a generated header whose footprint mirrors jitify.hpp's. *)
let fig5 () =
  header "Figure 5: Slowdown of AOT compilation with JIT extensions (real wall time)";
  let jitify_header =
    String.concat "\n"
      (List.init 400 (fun i ->
           Printf.sprintf
             "__device__ double __jitify_tmpl_%d(double x, double y) { return x * %d.0 + y / (x * x + %d.0); }"
             i (i + 1) (i + 2)))
  in
  let measure f =
    let runs =
      List.init 3 (fun _ ->
          let t0 = Unix.gettimeofday () in
          f ();
          Unix.gettimeofday () -. t0)
    in
    List.nth (List.sort compare runs) 1
  in
  Printf.printf "%-10s %-7s %9s %9s %9s %9s %9s\n" "" "" "plain(s)" "proteus" "slowdn"
    "jitify" "slowdn";
  List.iter
    (fun vendor ->
      List.iter
        (fun (a : App.t) ->
          let plain =
            measure (fun () ->
                ignore
                  (Proteus_driver.Driver.compile ~name:a.App.name ~vendor
                     ~mode:Proteus_driver.Driver.Aot a.App.source))
          in
          let proteus =
            measure (fun () ->
                ignore
                  (Proteus_driver.Driver.compile ~name:a.App.name ~vendor
                     ~mode:Proteus_driver.Driver.Proteus a.App.source))
          in
          let jitify =
            if vendor = Device.Nvidia && a.App.supports_jitify then
              Some
                (measure (fun () ->
                     ignore
                       (Proteus_driver.Driver.compile ~name:a.App.name ~vendor
                          ~mode:Proteus_driver.Driver.Aot
                          (jitify_header ^ "\n" ^ a.App.source))))
            else None
          in
          Printf.printf "%-10s %-7s %9.4f %9.4f %8.2fx %9s %9s\n" a.App.name
            (vname vendor) plain proteus (proteus /. plain)
            (match jitify with Some j -> Printf.sprintf "%9.4f" j | None -> "N/A")
            (match jitify with
            | Some j -> Printf.sprintf "%8.2fx" (j /. plain)
            | None -> "N/A"))
        Suite.apps)
    vendors

let fig6 () =
  header "Figure 6: Speedup over AOT with specialization disabled (JIT overhead only)";
  let config = Proteus_core.Config.mode_none in
  (* extra column: the same overhead-only run with the PROTEUS_VERIFY=1
     gate on, so the verification cost shows up next to the JIT cost *)
  let vconfig = { config with Proteus_core.Config.verify_jit = true } in
  List.iter
    (fun vendor ->
      Printf.printf "\n[%s]\n%-10s %10s %10s %10s\n" (vname vendor) "" "no-cache"
        "cached" "+verify";
      List.iter
        (fun (a : App.t) ->
          let aot = Harness.run a vendor Harness.AOT in
          let cold = Harness.run ~config a vendor Harness.Proteus_cold in
          let warm = Harness.run ~config a vendor Harness.Proteus_warm in
          let verif = Harness.run ~config:vconfig a vendor Harness.Proteus_cold in
          Printf.printf "%-10s %10.2f %10.2f %10.2f\n" a.App.name
            (aot.Harness.e2e_s /. cold.Harness.e2e_s)
            (aot.Harness.e2e_s /. warm.Harness.e2e_s)
            (aot.Harness.e2e_s /. verif.Harness.e2e_s))
        Suite.apps)
    vendors

let table3 () =
  header "Table 3: Maximal code cache size";
  Printf.printf "%-8s" "Machine";
  List.iter (fun (a : App.t) -> Printf.printf " %10s" a.App.name) Suite.apps;
  Printf.printf "\n";
  List.iter
    (fun vendor ->
      Printf.printf "%-8s" (vname vendor);
      List.iter
        (fun a ->
          let m = cell a vendor Harness.Proteus_warm in
          Printf.printf " %10s"
            (if m.Harness.na then "N/A"
             else Proteus_support.Util.human_bytes m.Harness.cache_bytes))
        Suite.apps;
      Printf.printf "\n")
    vendors

(* ------------------------------------------------------------------ *)
(* Detailed per-kernel analyses (Figures 7-11).                        *)

let analysis_line (p : Harness.kernel_profile) =
  Printf.printf
    "  %-10s %-7s dur=%9.6fms vregs=%3d sregs=%3d spills=%3d valu/item=%9.1f salu/wave=%7.1f inst/warp=%9.1f vfetch/item=%6.1f sfetch/wave=%6.1f l2hit=%5.3f ipc=%5.2f valubusy=%4.2f stall=%4.2f\n"
    p.Harness.ksym p.Harness.mode (p.Harness.duration_s *. 1e3) p.Harness.vregs
    p.Harness.sregs p.Harness.spill_slots
    (Counters.valu_insts_per_item p.Harness.counters)
    (Counters.salu_insts_per_wave p.Harness.counters)
    (Counters.inst_per_warp p.Harness.counters)
    (Counters.vfetch_per_item p.Harness.counters)
    (Counters.sfetch_per_wave p.Harness.counters)
    p.Harness.l2_hit p.Harness.ipc p.Harness.valu_busy p.Harness.stall_frac

let analysis ?(vendors = vendors) title app_name =
  header title;
  let a = Suite.find app_name in
  List.iter
    (fun vendor ->
      Printf.printf "[%s]\n" (vname vendor);
      List.iter
        (fun mode -> List.iter analysis_line (Harness.analyze a vendor mode))
        Harness.all_modes)
    vendors

let fig7 () = analysis "Figure 7: In-depth analysis of the ADAM benchmark" "adam"
let fig8 () = analysis "Figure 8: In-depth analysis for FEY-KAC" "fey-kac"
let fig9 () = analysis "Figure 9: In-depth analysis for the WSM5 benchmark" "wsm5"
let fig10 () = analysis "Figure 10: In-depth analysis for the RSBench benchmark" "rsbench"

let fig11 () =
  (* the paper reports SW4CK on AMD only (NVIDIA shows no improvement) *)
  analysis ~vendors:[ Device.Amd ]
    "Figure 11: In-depth analysis of the SW4CK benchmark on AMD" "sw4ck"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: real wall-clock cost of pipeline stages. *)

let micro () =
  header "Micro-benchmarks (bechamel; real wall-clock of our pipeline)";
  let open Bechamel in
  let daxpy_src =
    {|
__global__ __attribute__((annotate("jit", 1, 4)))
void daxpy(double a, double* x, double* y, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { y[i] = a * x[i] + y[i]; }
}
int main() { return 0; }
|}
  in
  let unit_ir () =
    Proteus_frontend.Compile.compile ~name:"bench" ~vendor:Proteus_frontend.Lower.Cuda
      daxpy_src
  in
  let u = unit_ir () in
  let bitcode =
    Proteus_core.Extract.bitcode_of_kernel u.Proteus_frontend.Compile.device "daxpy"
  in
  let test_frontend =
    Test.make ~name:"frontend:parse+lower daxpy"
      (Staged.stage (fun () -> ignore (unit_ir ())))
  in
  let test_bitcode =
    Test.make ~name:"bitcode:decode daxpy kernel"
      (Staged.stage (fun () -> ignore (Proteus_ir.Bitcode.decode_module bitcode)))
  in
  let test_o3 =
    Test.make ~name:"opt:decode+O3 pipeline on daxpy"
      (Staged.stage (fun () ->
           (* O3 rewrites its module in place, so every run decodes a
              fresh one *)
           let m = Proteus_ir.Bitcode.decode_module bitcode in
           ignore (Proteus_opt.Pipeline.optimize_o3 m)))
  in
  (* codegen reads its module without changing it (Isel lowers a clone
     of each function), so one O3 module serves every timed run *)
  let o3 = Proteus_ir.Bitcode.decode_module bitcode in
  ignore (Proteus_opt.Pipeline.optimize_o3 o3);
  let test_gcn =
    Test.make ~name:"backend:GCN codegen daxpy"
      (Staged.stage (fun () ->
           ignore (Proteus_runtime.Toolchain.compile ~vendor:Device.Amd o3)))
  in
  let test_ptx =
    Test.make ~name:"backend:PTX emit+ptxas daxpy"
      (Staged.stage (fun () ->
           ignore (Proteus_runtime.Toolchain.compile ~vendor:Device.Nvidia o3)))
  in
  (* daxpy is too small to show how codegen scales: SW4CK's five
     kernels (~2,400 Mach instructions, heavy register pressure) *)
  let sw4ck_device vendor =
    let a = List.find (fun (a : App.t) -> a.App.name = "SW4CK") Suite.apps in
    (Proteus_frontend.Compile.compile ~name:a.App.name ~vendor a.App.source)
      .Proteus_frontend.Compile.device
  in
  let sw4ck = sw4ck_device Proteus_frontend.Lower.Cuda in
  ignore (Proteus_opt.Pipeline.optimize_o3 sw4ck);
  (* O3 alone on a real kernel: every run optimizes a fresh clone of
     the unoptimised module (a shallow copy, cheap next to O3) *)
  let test_o3_sw4ck =
    let m = sw4ck_device Proteus_frontend.Lower.Hip in
    Test.make ~name:"opt:O3 SW4CK (AMD device)"
      (Staged.stage (fun () ->
           ignore (Proteus_opt.Pipeline.optimize_o3 (Proteus_ir.Ir.clone_module m))))
  in
  (* serve_k3 as a serve-churn miss compiles it: decoded from its
     bitcode, argument 1 folded to 5, launch bounds for blocks of 32 *)
  let serve_bitcode =
    Proteus_core.Extract.bitcode_of_kernel (Proteus_core.Serve.build_module 4)
      (Proteus_core.Serve.kernel_sym 3)
  in
  let serve_spec () =
    let open Proteus_core in
    let m = Proteus_ir.Bitcode.decode_module serve_bitcode in
    Specialize.apply Config.default m ~kernel:(Serve.kernel_sym 3)
      ~spec_values:[ (1, Proteus_ir.Konst.ki64 5) ]
      ~block:32
      ~resolve_global:(fun g -> failwith ("serve kernel reads global " ^ g));
    m
  in
  (* O3 on a small kernel, where the fixed cost of each pass run
     dominates: a fresh clone per run *)
  let test_o3_serve =
    let m = serve_spec () in
    Test.make ~name:"opt:O3 serve kernel (AMD, specialized)"
      (Staged.stage (fun () ->
           ignore (Proteus_opt.Pipeline.optimize_o3 (Proteus_ir.Ir.clone_module m))))
  in
  (* the rest of that miss: decoding the bitcode, GCN codegen of the
     O3 module, and the cache insert, which encodes the object (memory
     tier only, so no disk write) *)
  let test_bitcode_serve =
    Test.make ~name:"bitcode:decode serve kernel"
      (Staged.stage (fun () -> ignore (Proteus_ir.Bitcode.decode_module serve_bitcode)))
  in
  let serve_o3 = serve_spec () in
  ignore (Proteus_opt.Pipeline.optimize_o3 serve_o3);
  let test_gcn_serve =
    Test.make ~name:"backend:GCN codegen serve kernel"
      (Staged.stage (fun () ->
           ignore (Proteus_runtime.Toolchain.compile ~vendor:Device.Amd serve_o3)))
  in
  let test_insert_serve =
    let open Proteus_core in
    let obj, _ = Proteus_runtime.Toolchain.compile ~vendor:Device.Amd serve_o3 in
    let store = Cachestore.create ~vendor:Device.Amd () in
    let key =
      Speckey.compute ~mid:"bench" ~sym:(Serve.kernel_sym 3)
        ~spec_values:[ (1, Proteus_ir.Konst.ki64 5) ]
        ~launch_bounds:(Some 32)
    in
    Test.make ~name:"cache:insert serve kernel (memory tier)"
      (Staged.stage (fun () -> ignore (Cachestore.insert store key obj)))
  in
  let test_gcn_sw4ck =
    Test.make ~name:"backend:GCN codegen SW4CK"
      (Staged.stage (fun () ->
           ignore (Proteus_runtime.Toolchain.compile ~vendor:Device.Amd sw4ck)))
  in
  let test_ptx_sw4ck =
    Test.make ~name:"backend:PTX emit+ptxas SW4CK"
      (Staged.stage (fun () ->
           ignore (Proteus_runtime.Toolchain.compile ~vendor:Device.Nvidia sw4ck)))
  in
  (* the executor alone: an AOT app's heaviest launch (most
     warp-instructions), replayed with its decoded program on a copy
     of the device memory it started from, restored before every run *)
  let exec_case name vendor =
    let a = List.find (fun (a : App.t) -> a.App.name = name) Suite.apps in
    let exe = Harness.compile_app a vendor Proteus_driver.Driver.Aot in
    let rt = Proteus_runtime.Gpurt.create (Device.by_vendor vendor) in
    let run = rt.Proteus_runtime.Gpurt.exec_launch and heaviest = ref None in
    rt.Proteus_runtime.Gpurt.exec_launch <-
      (fun ?domains ?tcode ~device ~mem ~l2 ~symbols f ~grid ~block ~args ->
        let image = Bytes.sub mem.Gmem.data 0 mem.Gmem.brk in
        let r = run ?domains ?tcode ~device ~mem ~l2 ~symbols f ~grid ~block ~args in
        let w = r.Exec.counters.Counters.warp_instrs in
        (match !heaviest with
        | Some (w', _) when w' >= w -> ()
        | _ -> heaviest := Some (w, (image, device, symbols, f, grid, block, args)));
        r);
    ignore (Proteus_runtime.Gpurt.load_module rt exe.Proteus_driver.Driver.fatbin);
    ignore (Proteus_runtime.Hostexec.run rt exe.Proteus_driver.Driver.host);
    let image, device, symbols, f, grid, block, args =
      match !heaviest with Some (_, l) -> l | None -> failwith (name ^ ": no launch")
    in
    let mem = Gmem.create ~capacity:(2 * Bytes.length image) () in
    mem.Gmem.brk <- Bytes.length image;
    let l2 = L2cache.create device and tcode = Tcode.decode f in
    Test.make
      ~name:(Printf.sprintf "gpu:exec %s (%s)" name (vname vendor))
      (Staged.stage (fun () ->
           Bytes.blit image 0 mem.Gmem.data 0 (Bytes.length image);
           ignore
             (Exec.launch ~domains:1 ~tcode ~device ~mem ~l2 ~symbols f ~grid ~block ~args)))
  in
  let test_exec_sw4ck = exec_case "SW4CK" Device.Amd in
  let test_exec_adam = exec_case "ADAM" Device.Nvidia in
  (* the warm-launch path: a cache hit on a one-tenant Serve whose one
     kernel was compiled before timing starts (key, lookup, Stats, the
     decoded program, a 2-warp kernel). The context keeps a profile
     record per launch; dropping them every 1,024 launches keeps the
     heap the same size from sample to sample. *)
  let test_warm_hit =
    let sv = Proteus_core.Serve.create ~tenants:1 ~kernels:1 () in
    Proteus_core.Serve.launch sv ~tenant:0 ~kernel:0;
    let rt = (Proteus_core.Serve.jit sv ~tenant:0).Proteus_core.Jit.rt in
    Test.make ~name:"proteus:warm hit (serve kernel, AMD)"
      (Staged.stage (fun () ->
           Proteus_core.Serve.launch sv ~tenant:0 ~kernel:0;
           if rt.Proteus_runtime.Gpurt.launches land 1023 = 0 then
             rt.Proteus_runtime.Gpurt.profiles <- []))
  in
  let test_hash =
    Test.make ~name:"cache:specialization hash"
      (Staged.stage (fun () ->
           ignore
             (Proteus_core.Speckey.compute ~mid:"bench" ~sym:"daxpy"
                ~spec_values:[ (1, Proteus_ir.Konst.kf64 2.0) ]
                ~launch_bounds:(Some 256))))
  in
  let tests =
    [
      test_frontend; test_bitcode; test_bitcode_serve; test_o3; test_o3_sw4ck; test_o3_serve;
      test_gcn; test_gcn_serve; test_ptx; test_gcn_sw4ck; test_ptx_sw4ck; test_insert_serve;
      test_exec_sw4ck; test_exec_adam; test_warm_hit; test_hash;
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/run\n" name est
        | _ -> Printf.printf "  %-32s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)
(* KernelSan static analysis cost (--analyze): real wall-clock of the
   frontend and of the four analysis passes over every bundled program,
   next to the finding counts - the AOT-time price of the diagnostics
   and the per-kernel price paid by the PROTEUS_VERIFY=1 gate.        *)

let analyze_bench () =
  header "KernelSan static analysis cost (real wall time per program)";
  let targets =
    List.map (fun (a : App.t) -> (a.App.name, a.App.source)) Suite.apps
    @ List.map
        (fun (e : Proteus_examples.Sources.t) ->
          (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
        Proteus_examples.Sources.all
  in
  Printf.printf "%-14s %8s %11s %11s %9s\n" "" "kernels" "compile" "analyze"
    "findings";
  let tot_compile = ref 0.0 and tot_analyze = ref 0.0 in
  List.iter
    (fun (name, source) ->
      let t0 = Unix.gettimeofday () in
      let m = Proteus_frontend.Compile.compile_device_only ~name ~debug:true source in
      let t1 = Unix.gettimeofday () in
      let findings = Proteus_analysis.Kernelsan.analyze_module m in
      let t2 = Unix.gettimeofday () in
      let kernels =
        List.length
          (List.filter
             (fun (f : Proteus_ir.Ir.func) ->
               f.Proteus_ir.Ir.kind = Proteus_ir.Ir.Kernel
               && f.Proteus_ir.Ir.blocks <> [])
             m.Proteus_ir.Ir.funcs)
      in
      tot_compile := !tot_compile +. (t1 -. t0);
      tot_analyze := !tot_analyze +. (t2 -. t1);
      Printf.printf "%-14s %8d %9.2fms %9.2fms %9d\n" name kernels
        ((t1 -. t0) *. 1e3)
        ((t2 -. t1) *. 1e3)
        (List.length findings))
    targets;
  Printf.printf "%-14s %8s %9.2fms %9.2fms\n" "total" ""
    (!tot_compile *. 1e3) (!tot_analyze *. 1e3)

(* ------------------------------------------------------------------ *)
(* SpecAdvisor policy comparison (--advise, Fig. 6 style): run every
   app cold under PROTEUS_SPEC_POLICY=all, advise and none, and check
   the policy contract — advised specialization is bit-identical to
   full specialization while compiling no more kernels and holding no
   more cache entries (it may hold fewer: arguments the advisor scored
   below threshold stop multiplying keys). Any output divergence or a
   compile/entry regression fails the run (exit 1).                   *)

let advise_rows : Json.t list ref = ref []

let advise_bench () =
  header "SpecAdvisor policy: full vs advised vs no specialization (Proteus, cold)";
  let open Proteus_core in
  let failures = ref 0 in
  Printf.printf "%-9s %-7s %13s %16s %10s %8s %10s %7s\n" "" "" "all cmp/hit"
    "advise cmp/hit" "none cmp" "entries" "skipped" "output";
  List.iter
    (fun vendor ->
      List.iter
        (fun (a : App.t) ->
          let run_policy policy =
            Harness.run
              ~config:{ Config.default with Config.spec_policy = policy }
              a vendor Harness.Proteus_cold
          in
          let m_all = run_policy Config.Spec_all in
          let m_adv = run_policy Config.Spec_advise in
          let m_none = run_policy Config.Spec_none in
          let st (m : Harness.measurement) =
            match m.Harness.stats with
            | Some s -> s
            | None -> Stats.create ()
          in
          let compiles m = (st m).Stats.compiles in
          let hits m = (st m).Stats.mem_hits + (st m).Stats.disk_hits in
          let entries m = Stats.cache_entries_total (st m) in
          let c_all = compiles m_all and c_adv = compiles m_adv in
          let e_all = entries m_all and e_adv = entries m_adv in
          let skipped = (st m_adv).Stats.spec_skipped_args in
          let ok =
            m_all.Harness.ok && m_adv.Harness.ok && m_none.Harness.ok
            && m_adv.Harness.output = m_all.Harness.output
            && m_none.Harness.output = m_all.Harness.output
            && c_adv <= c_all && e_adv <= e_all
          in
          if not ok then incr failures;
          advise_rows :=
            Json.Obj
              (cell_fields a.App.name vendor
              @ [
                  ("ok", Json.Bool ok);
                  ("compiles_all", Json.int c_all);
                  ("compiles_advise", Json.int c_adv);
                  ("compiles_none", Json.int (compiles m_none));
                  ("cache_entries_all", Json.int e_all);
                  ("cache_entries_advise", Json.int e_adv);
                  ("hits_all", Json.int (hits m_all));
                  ("hits_advise", Json.int (hits m_adv));
                  ("skipped_args", Json.int skipped);
                  ("advise_ms", json_ms (st m_adv).Stats.advise_time_s);
                ])
            :: !advise_rows;
          Printf.printf "%-9s %-7s %8d/%-4d %11d/%-4d %10d %4d/%-3d %10d %7s\n"
            a.App.name (vname vendor) c_all (hits m_all) c_adv (hits m_adv)
            (compiles m_none) e_all e_adv skipped
            (if ok then "same" else "DIFF"))
        Suite.apps)
    vendors;
  if !failures > 0 then begin
    Printf.printf "\n%d advise-policy cell(s) regressed\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fault-injection sweep (--inject-faults): run the whole HeCBench
   suite with a failure forced at every JIT stage in turn and verify
   the robustness contract — every program completes with output
   identical to the AOT baseline, and the failures appear in Stats as
   contained fallbacks. Any crash or output divergence fails the run
   (exit 1), so automation can gate on it. The verify and
   specialize-corrupt points run with the PROTEUS_VERIFY=1 gate on;
   for those, containment additionally requires counted verify
   rejections (corruption detected, not silently executed).
   The one pressure point, disk-full, is absorbed by dropping the
   persistent cache tier rather than by the fallback path, so its
   containment contract is output equivalence plus a counted disk
   degrade, with no requirement that launches fell back.              *)

let inject_faults () =
  header "Fault-injection sweep: AOT-equivalence under per-stage JIT failures";
  let open Proteus_core in
  let failures = ref 0 in
  let cell_count = ref 0 in
  List.iter
    (fun vendor ->
      List.iter
        (fun (a : App.t) ->
          let aot = Harness.run a vendor Harness.AOT in
          List.iter
            (fun point ->
              incr cell_count;
              let base =
                { Config.default with Config.fault_plan = [ (point, Fault.Always) ] }
              in
              let needs_gate =
                point = Fault.Verify || point = Fault.Specialize_corrupt
              in
              let config =
                if needs_gate then { base with Config.verify_jit = true } else base
              in
              let tag =
                Printf.sprintf "%-8s %-7s fault=%-18s" a.App.name (vname vendor)
                  (Fault.point_name point)
              in
              match Harness.run ~config a vendor Harness.Proteus_cold with
              | m ->
                  let same = m.Harness.output = aot.Harness.output in
                  let contained =
                    match m.Harness.stats with
                    | Some s ->
                        if point = Fault.Disk_full then
                          (* absorbed by the store: the run must have
                             dropped its disk tier, not fallen back *)
                          s.Stats.disk_degrades > 0
                        else
                          s.Stats.fallbacks + s.Stats.quarantined_launches
                          >= s.Stats.jit_launches
                          && Stats.failures_total s > 0
                          && (not needs_gate || s.Stats.verify_rejections > 0)
                    | None -> false
                  in
                  if same && m.Harness.ok && contained then
                    Printf.printf "%s ok  (fallbacks=%d quarantined=%d)\n" tag
                      (match m.Harness.stats with Some s -> s.Stats.fallbacks | None -> 0)
                      (match m.Harness.stats with
                      | Some s -> s.Stats.quarantined_launches
                      | None -> 0)
                  else begin
                    incr failures;
                    Printf.printf "%s FAILED (output-match=%b ok=%b contained=%b)\n" tag
                      same m.Harness.ok contained
                  end
              | exception e ->
                  incr failures;
                  Printf.printf "%s CRASHED (%s)\n" tag (Printexc.to_string e))
            Fault.all_points)
        Suite.apps)
    vendors;
  Printf.printf "\n%d/%d cells survived injected faults\n" (!cell_count - !failures)
    !cell_count;
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* PerfLint validation (--perf-validate): compare the static
   transaction-class prediction for every global-memory site against
   the executor's per-site measurement on all six HeCBench
   apps under AOT. The static side replicates the exact AOT device
   pipeline (frontend -> O3 -> backend input), so structural site keys
   (kernel sym, block label, mem-op ordinal, kind) line up with what
   the machine code executes. The gate is >= 90% interval agreement
   per app x vendor.                                                  *)

let perf_rows : Json.t list ref = ref []

let perf_validate () =
  header
    "PerfLint validation: static vs measured transaction classes (AOT, all apps)";
  let module Pl = Proteus_analysis.Perflint in
  let failures = ref 0 in
  Printf.printf "%-9s %-7s %7s %8s %7s %9s  %s\n" "" "" "static" "matched"
    "agreed" "accuracy" "per-class matched/agreed";
  List.iter
    (fun vendor ->
      List.iter
        (fun (a : App.t) ->
          let u =
            Proteus_frontend.Compile.compile ~name:a.App.name
              ~vendor:(Proteus_driver.Driver.frontend_vendor vendor)
              a.App.source
          in
          ignore (Proteus_opt.Pipeline.optimize_o3 u.Proteus_frontend.Compile.device);
          let sites = Pl.classify_module u.Proteus_frontend.Compile.device in
          let tbl = Counters.create_sites () in
          Counters.site_profile := Some tbl;
          let m =
            Fun.protect
              ~finally:(fun () -> Counters.site_profile := None)
              (fun () -> Harness.run a vendor Harness.AOT)
          in
          let v = Pl.validate ~device:(Device.by_vendor vendor) sites tbl in
          let acc = Pl.accuracy_pct v in
          let ok = m.Harness.ok && acc >= 90.0 in
          if not ok then incr failures;
          (* static_sites: classifiable (non-scratch) static sites;
             matched: of those, executed at least once; accuracy:
             percent, 100.0 when nothing matched *)
          perf_rows :=
            Json.Obj
              (cell_fields a.App.name vendor
              @ [
                  ("static_sites", Json.int v.Pl.v_static);
                  ("matched", Json.int v.Pl.v_matched);
                  ("agreed", Json.int v.Pl.v_agree);
                  ("accuracy", Json.Num acc);
                  ( "classes",
                    Json.Obj
                      (List.map
                         (fun (c, mm, g) ->
                           (c, Json.Obj [ ("matched", Json.int mm); ("agreed", Json.int g) ]))
                         v.Pl.v_by_class) );
                ])
            :: !perf_rows;
          Printf.printf "%-9s %-7s %7d %8d %7d %8.1f%%  %s%s\n" a.App.name
            (vname vendor) v.Pl.v_static v.Pl.v_matched v.Pl.v_agree acc
            (String.concat " "
               (List.map
                  (fun (c, mm, g) -> Printf.sprintf "%s=%d/%d" c mm g)
                  v.Pl.v_by_class))
            (if ok then "" else "  GATE FAILED");
          (* disagreeing sites, for diagnosis *)
          List.iter
            (fun (r : Pl.site_cmp) ->
              if not r.Pl.c_agree then
                Printf.printf
                  "    disagree %s/%%%s#%d %s: static %s, measured %s \
                   (%.2f lines/issue over %d issues%s)\n"
                  r.Pl.c_site.Pl.ss_sym r.Pl.c_site.Pl.ss_block
                  r.Pl.c_site.Pl.ss_ord
                  (Pl.kind_name r.Pl.c_site.Pl.ss_kind)
                  (Pl.class_name r.Pl.c_site.Pl.ss_class)
                  (Pl.class_name r.Pl.c_measured) r.Pl.c_lines r.Pl.c_issues
                  (if r.Pl.c_full then ", full-mask" else ""))
            v.Pl.v_rows)
        Suite.apps)
    vendors;
  if !failures > 0 then begin
    Printf.printf "\n%d perf-validation cell(s) below the 90%% gate\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* transval: translation validation of the O3 pipeline (PR 10).  For
   every bundled program (six HeCBench apps + four examples) x vendor,
   each kernel's O3 form must be proven semantically equivalent to its
   unoptimized IR by the symbolic validator.  Any refuted kernel fails
   the run (exit 1); an unproven kernel is reported but tolerated -
   the validator is deliberately incomplete.                          *)

let tv_rows : Json.t list ref = ref []

let transval_bench () =
  header "TransVal: O0 vs O3 translation validation (all bundled programs)";
  let module Tv = Proteus_analysis.Transval in
  let progs =
    List.map (fun (a : App.t) -> (a.App.name, a.App.source)) Suite.apps
    @ List.map
        (fun (e : Proteus_examples.Sources.t) ->
          (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
        Proteus_examples.Sources.all
  in
  let refuted_total = ref 0 in
  Printf.printf "%-14s %-7s %7s %7s %9s %8s %9s\n" "" "" "kernels" "proven"
    "unproven" "refuted" "time";
  List.iter
    (fun vendor ->
      List.iter
        (fun (name, source) ->
          let u =
            Proteus_frontend.Compile.compile ~name ~debug:true
              ~vendor:(Proteus_driver.Driver.frontend_vendor vendor) source
          in
          let reference = u.Proteus_frontend.Compile.device in
          let candidate = Proteus_ir.Ir.clone_module reference in
          ignore (Proteus_opt.Pipeline.optimize_o3 candidate);
          let t0 = Unix.gettimeofday () in
          let verdicts = Tv.check_module_pair ~reference ~candidate () in
          let dt = Unix.gettimeofday () -. t0 in
          let n p = List.length (List.filter (fun (_, v) -> p v) verdicts) in
          let proven = n (function Tv.Proven -> true | _ -> false) in
          let unproven = n (function Tv.Unproven _ -> true | _ -> false) in
          let refuted = n (function Tv.Refuted _ -> true | _ -> false) in
          refuted_total := !refuted_total + refuted;
          tv_rows :=
            Json.Obj
              (cell_fields name vendor
              @ [
                  ("kernels", Json.int (List.length verdicts));
                  ("proven", Json.int proven);
                  ("unproven", Json.int unproven);
                  ("refuted", Json.int refuted);
                  (* validation wall time for the whole program *)
                  ("validate_ms", json_ms dt);
                ])
            :: !tv_rows;
          Printf.printf "%-14s %-7s %7d %7d %9d %8d %7.1fms%s\n" name
            (vname vendor) (List.length verdicts) proven unproven refuted
            (dt *. 1e3)
            (if refuted > 0 then "  GATE FAILED" else "");
          List.iter
            (fun (sym, v) ->
              match v with
              | Tv.Proven -> ()
              | v -> Printf.printf "    %s: %s\n" sym (Tv.verdict_to_string v))
            verdicts)
        progs)
    vendors;
  if !refuted_total > 0 then begin
    Printf.printf "\n%d kernel(s) refuted - optimization pipeline is unsound\n"
      !refuted_total;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* tier: tiered compilation (PR 8) -- cold-launch latency with and
   without the background tier-up pipeline.  Per (app, vendor) we run
   AOT, non-tiered Proteus (cold cache) and tiered Proteus (cold cache,
   tier_threshold 1 so every reused key tiers up).  Outputs
   must be bit-identical across all three, the tiered first JIT launch
   must not be slower than the blocking one (tier 0 dispatches the AOT
   artifact instead of waiting on O3), the steady-state launch overhead
   must match the all-O3 path, and at least one background compile must
   have been published.  Any violation fails the run (exit 1).        *)

let tier_rows : Json.t list ref = ref []

let tier_bench () =
  header "Tiered compilation: cold-launch latency, tier off vs on (Proteus, cold)";
  let open Proteus_core in
  let failures = ref 0 in
  Printf.printf "%-9s %-7s %14s %14s %8s %7s %10s %7s\n" "" ""
    "first off/tier" "steady off/tier" "tierups" "tier0" "swap p50" "output";
  List.iter
    (fun vendor ->
      List.iter
        (fun (a : App.t) ->
          let m_aot = Harness.run a vendor Harness.AOT in
          let m_off = Harness.run a vendor Harness.Proteus_cold in
          let m_tier =
            Harness.run
              ~config:
                { Config.default with Config.tier = true; tier_threshold = 1 }
              a vendor Harness.Proteus_cold
          in
          let st (m : Harness.measurement) =
            match m.Harness.stats with Some s -> s | None -> Stats.create ()
          in
          let s_off = st m_off and s_tier = st m_tier in
          let swap_p50 =
            let open Proteus_support in
            if Hist.count s_tier.Stats.swap_hist = 0 then nan
            else Hist.p50 s_tier.Stats.swap_hist
          in
          let ok =
            m_aot.Harness.ok && m_off.Harness.ok && m_tier.Harness.ok
            && m_tier.Harness.output = m_off.Harness.output
            && m_tier.Harness.output = m_aot.Harness.output
            && s_tier.Stats.first_launch_s <= s_off.Stats.first_launch_s +. 1e-9
            && s_tier.Stats.steady_launch_s
               <= (s_off.Stats.steady_launch_s *. 1.5) +. 1e-9
            && s_tier.Stats.tierups >= 1
            && s_tier.Stats.tier_launches >= 1
          in
          if not ok then incr failures;
          tier_rows :=
            Json.Obj
              (cell_fields a.App.name vendor
              @ [
                  ("ok", Json.Bool ok);
                  ("first_launch_ms_off", json_ms s_off.Stats.first_launch_s);
                  ("first_launch_ms_tier", json_ms s_tier.Stats.first_launch_s);
                  ("steady_launch_ms_off", json_ms s_off.Stats.steady_launch_s);
                  ("steady_launch_ms_tier", json_ms s_tier.Stats.steady_launch_s);
                  ("tierup_count", Json.int s_tier.Stats.tierups);
                  ("tier_launches", Json.int s_tier.Stats.tier_launches);
                  (* null when no tier-up was published *)
                  ("swap_latency_ms", json_ms swap_p50);
                  ("compiles_off", Json.int s_off.Stats.compiles);
                  ("compiles_tier", Json.int s_tier.Stats.compiles);
                ])
            :: !tier_rows;
          Printf.printf "%-9s %-7s %6.2f/%-7.2f %6.3f/%-7.3f %8d %7d %9.2fms %7s\n"
            a.App.name (vname vendor)
            (s_off.Stats.first_launch_s *. 1e3)
            (s_tier.Stats.first_launch_s *. 1e3)
            (s_off.Stats.steady_launch_s *. 1e3)
            (s_tier.Stats.steady_launch_s *. 1e3)
            s_tier.Stats.tierups s_tier.Stats.tier_launches (swap_p50 *. 1e3)
            (if ok then "same" else "DIFF"))
        Suite.apps)
    vendors;
  if !failures > 0 then begin
    Printf.printf "\n%d tier cell(s) regressed\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* serve: multi-tenant JIT service under a seeded Zipf workload.
   Default is a million launches over 4 tenants sharded across 4
   domains (PROTEUS_SERVE_LAUNCHES shrinks it for CI); the ok gate
   additionally replays every tenant's stream serially in a fresh
   single-tenant runtime (outputs must be bit-identical) and runs a
   smaller fault-isolation pass (corrupting tenant T0's specializer
   must leave T1..'s outputs untouched). *)

let serve_summary : Json.t option ref = ref None

let serve_bench () =
  header "Multi-tenant serve: shared store, seeded Zipf workload";
  let open Proteus_core in
  let module Workload = Proteus_fuzz.Workload in
  let launches = Proteus_support.(Knob.get Knob.serve_launches) in
  let tenants = 4 and kernels = 16 and seed = 42 and skew = 1.1 and domains = 4 in
  let w = Workload.generate ~seed ~tenants ~kernels ~launches ~skew in
  let t0 = Unix.gettimeofday () in
  let sv = Serve.create ~tenants ~kernels () in
  Serve.run_sharded sv ~domains w.Workload.schedule;
  Serve.finish sv;
  let wall = Unix.gettimeofday () -. t0 in
  Serve.print_report sv;
  (* gate 1: concurrent outputs bit-identical to serial replay *)
  let replay_identical =
    let ok = ref true in
    for tn = 0 to tenants - 1 do
      if Serve.output sv ~tenant:tn
         <> Serve.replay_output sv ~tenant:tn w.Workload.schedule
      then begin
        ok := false;
        Printf.printf "serve: tenant %s diverged from serial replay\n"
          (Serve.tenant_name sv ~tenant:tn)
      end
    done;
    !ok
  in
  (* gate 2: fault isolation — corrupt T0's specializer under the
     verify gate; the other tenants' outputs must equal a clean run's *)
  let isolation_ok =
    let iso_launches = min launches 20_000 in
    let wi =
      Workload.generate ~seed:(seed + 1) ~tenants ~kernels ~launches:iso_launches
        ~skew
    in
    let config = { Config.default with Config.verify_jit = true } in
    let faulty =
      Serve.create ~config ~tenants ~kernels
        ~tenant_faults:[ ("T0", [ (Fault.Specialize_corrupt, Fault.Always) ]) ]
        ()
    in
    Serve.run faulty wi.Workload.schedule;
    Serve.finish faulty;
    let clean = Serve.create ~config ~tenants ~kernels () in
    Serve.run clean wi.Workload.schedule;
    Serve.finish clean;
    let ok = ref true in
    for tn = 0 to tenants - 1 do
      if Serve.output faulty ~tenant:tn <> Serve.output clean ~tenant:tn
      then begin
        ok := false;
        Printf.printf "serve: fault in T0 leaked into tenant %s\n"
          (Serve.tenant_name faulty ~tenant:tn)
      end
    done;
    !ok
  in
  let ok =
    replay_identical && isolation_ok && (Serve.total sv).Serve.to_launches = launches
  in
  Printf.printf
    "serve: %d launches, %d domains in %.1fs (%.0f launches/s); replay %s, \
     isolation %s\n"
    launches domains wall
    (float_of_int launches /. wall)
    (if replay_identical then "identical" else "DIVERGED")
    (if isolation_ok then "held" else "LEAKED");
  serve_summary :=
    Some
      (Json.Obj
         ([
           ("tenants", Json.int tenants);
           ("kernels", Json.int kernels);
           ("launches", Json.int launches);
           ("seed", Json.int seed);
           ("skew", Json.Num skew);
           ("domains", Json.int domains);
           ("ok", Json.Bool ok);
           ("replay_identical", Json.Bool replay_identical);
           ("isolation_ok", Json.Bool isolation_ok);
           ("wall_s", Json.Num wall);
         ]
         @ Serve.report_json sv));
  if not ok then begin
    Printf.printf "\nserve gate failed\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* --json: machine-readable run summary.                               *)

let write_json path ~(target_times : (string * float) list) ~(total_s : float) =
  let cells =
    Hashtbl.fold (fun _ m acc -> m :: acc) sweep_cache []
    |> List.sort (fun (a : Harness.measurement) b ->
           compare (a.Harness.app, a.Harness.meth) (b.Harness.app, b.Harness.meth))
  in
  let cell_json (m : Harness.measurement) =
    Json.Obj
      (cell_fields m.Harness.app m.Harness.vendor
      @ [
          ("method", Json.Str m.Harness.meth);
          ("na", Json.Bool m.Harness.na);
          ("e2e_ms", json_ms m.Harness.e2e_s);
          ("kernel_ms", json_ms m.Harness.kernel_s);
          ("jit_overhead_ms", json_ms m.Harness.jit_overhead_s);
          ("cache_bytes", Json.int m.Harness.cache_bytes);
        ])
  in
  (* each target's section is present when that target ran, its rows
     sorted by (app, vendor) *)
  let section name rows =
    let key r = (Json.field r "app", Json.field r "vendor") in
    if rows = [] then []
    else [ (name, Json.Arr (List.sort (fun a b -> compare (key a) (key b)) rows)) ]
  in
  let doc =
    Json.Obj
      ([
         ("targets", Json.Obj (List.rev_map (fun (t, s) -> (t, Json.Num s)) target_times));
         ("total_wall_s", Json.Num total_s);
         ("cells", Json.Arr (List.map cell_json cells));
       ]
      @ section "advise" !advise_rows
      @ section "perf" !perf_rows
      @ section "transval" !tv_rows
      @ section "tier" !tier_rows
      @ match !serve_summary with Some s -> [ ("serve", s) ] | None -> [])
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[json summary written to %s]\n" path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec split_json acc = function
    | "--json" :: file :: rest -> (List.rev_append acc rest, Some file)
    | x :: rest -> split_json (x :: acc) rest
    | [] -> (List.rev acc, None)
  in
  let targets, json_file = split_json [] args in
  (* several targets may be listed, e.g. `bench advise perf-validate` *)
  let targets = match targets with [] -> [ "all" ] | ts -> ts in
  let target_times = ref [] in
  let t0 = Unix.gettimeofday () in
  (* a target listed twice accumulates into one entry *)
  let timed name f =
    let s = Unix.gettimeofday () in
    f ();
    let before = Option.value ~default:0.0 (List.assoc_opt name !target_times) in
    target_times :=
      (name, before +. Unix.gettimeofday () -. s) :: List.remove_assoc name !target_times
  in
  let run = function
    | "table1" -> timed "table1" table1
    | "table2" -> timed "table2" table2
    | "table3" -> timed "table3" table3
    | "fig3" -> timed "fig3" fig3
    | "fig4" -> timed "fig4" fig4
    | "fig5" -> timed "fig5" fig5
    | "fig6" -> timed "fig6" fig6
    | "fig7" -> timed "fig7" fig7
    | "fig8" -> timed "fig8" fig8
    | "fig9" -> timed "fig9" fig9
    | "fig10" -> timed "fig10" fig10
    | "fig11" -> timed "fig11" fig11
    | "micro" -> timed "micro" micro
    | "--analyze" | "analyze" -> timed "analyze" analyze_bench
    | "--advise" | "advise" -> timed "advise" advise_bench
    | "--inject-faults" | "inject-faults" | "faults" ->
        timed "inject-faults" inject_faults
    | "--perf-validate" | "perf-validate" | "perf" ->
        timed "perf-validate" perf_validate
    | "--transval" | "transval" -> timed "transval" transval_bench
    | "--tier" | "tier" -> timed "tier" tier_bench
    | "--serve" | "serve" -> timed "serve" serve_bench
    | "all" ->
        timed "table1" table1;
        timed "table2" table2;
        timed "fig3" fig3;
        timed "fig4" fig4;
        timed "fig5" fig5;
        timed "fig6" fig6;
        timed "table3" table3;
        timed "fig7" fig7;
        timed "fig8" fig8;
        timed "fig9" fig9;
        timed "fig10" fig10;
        timed "fig11" fig11;
        timed "advise" advise_bench;
        timed "tier" tier_bench;
        timed "micro" micro
    | w ->
        Printf.eprintf
          "unknown target %s (use \
           all|table1|table2|table3|fig3..fig11|micro|--analyze|--advise|--tier|--serve|--perf-validate|--transval|--inject-faults)\n"
          w;
        exit 2
  in
  List.iter run targets;
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\n[bench completed in %.1fs wall]\n" total;
  match json_file with
  | Some path -> write_json path ~target_times:!target_times ~total_s:total
  | None -> ()
