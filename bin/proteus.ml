(* proteus - command-line driver for the simulated Proteus stack.

   Subcommands:
     compile FILE   AOT-compile a Kernel-C program, optionally with the
                    Proteus plugin; dump IR / device code / PTX
     run FILE       compile and execute on the simulated GPU
     bench NAME     run one HeCBench mini-app under every method
     devices        list simulated devices                           *)

open Cmdliner
open Proteus_gpu

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A frontend error (lexing, parsing, typing a source file) is a
   diagnostic about the user's program, not an internal error: print it
   at its position in [file] and exit 1. *)
let frontend file f =
  try f ()
  with Proteus_frontend.Ast.Error (p, msg) ->
    Printf.eprintf "%s:%d:%d: error: %s\n" file p.Proteus_frontend.Ast.line p.col msg;
    exit 1

(* The device module the analysis commands read, with source locations. *)
let device_module name source =
  frontend name (fun () ->
      Proteus_frontend.Compile.compile_device_only ~name ~debug:true source)

let vendor_conv =
  let parse = function
    | "amd" | "hip" -> Ok Device.Amd
    | "nvidia" | "cuda" -> Ok Device.Nvidia
    | s -> Error (`Msg (Printf.sprintf "unknown vendor %s (amd|nvidia)" s))
  in
  let print fmt v =
    Format.pp_print_string fmt (match v with Device.Amd -> "amd" | Device.Nvidia -> "nvidia")
  in
  Arg.conv (parse, print)

let vendor_arg =
  Arg.(value & opt vendor_conv Device.Amd & info [ "vendor"; "V" ] ~doc:"Target GPU vendor (amd|nvidia).")

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let proteus_flag =
  Arg.(value & flag & info [ "proteus" ] ~doc:"Enable the Proteus plugin (JIT-enabled executable).")

(* ---- compile ---- *)

let compile_cmd =
  let dump_host = Arg.(value & flag & info [ "dump-host" ] ~doc:"Print host IR.") in
  let dump_device = Arg.(value & flag & info [ "dump-device" ] ~doc:"Print device IR.") in
  let dump_ptx = Arg.(value & flag & info [ "dump-ptx" ] ~doc:"Print PTX (NVIDIA).") in
  let dump_mach =
    Arg.(value & flag & info [ "dump-mach" ] ~doc:"Print machine code of kernels.")
  in
  let werror =
    Arg.(value & flag & info [ "werror" ]
           ~doc:"Fail the build if KernelSan reports any finding (Proteus mode).")
  in
  let advise =
    Arg.(value & flag & info [ "advise" ]
           ~doc:"Let SpecAdvisor infer annotate(\"jit\") metadata for unannotated \
                 kernels (Proteus mode).")
  in
  let run file vendor proteus werror advise dump_host dump_device dump_ptx dump_mach =
    let source = read_file file in
    let mode = if proteus then Proteus_driver.Driver.Proteus else Proteus_driver.Driver.Aot in
    let exe =
      try
        frontend file (fun () ->
            Proteus_driver.Driver.compile ~name:(Filename.basename file) ~werror ~advise
              ~vendor ~mode source)
      with Proteus_core.Plugin.Werror msg ->
        Printf.eprintf "proteus: error: %s\n" msg;
        exit 1
    in
    Printf.printf "compiled %s for %s (%s): %d kernels, %d sections, wall %.1fms\n" file
      (match vendor with Device.Amd -> "AMD" | Device.Nvidia -> "NVIDIA")
      (if proteus then "Proteus" else "AOT")
      (List.length exe.Proteus_driver.Driver.fatbin.Proteus_backend.Mach.kernels)
      (List.length exe.Proteus_driver.Driver.fatbin.Proteus_backend.Mach.sections)
      (exe.Proteus_driver.Driver.build_wall_s *. 1e3);
    if dump_host then
      print_string (Proteus_ir.Irpp.module_to_string exe.Proteus_driver.Driver.host);
    if dump_device || dump_ptx then begin
      let u =
        Proteus_frontend.Compile.compile ~name:(Filename.basename file)
          ~vendor:(Proteus_driver.Driver.frontend_vendor vendor)
          source
      in
      if dump_device then
        print_string (Proteus_ir.Irpp.module_to_string u.Proteus_frontend.Compile.device);
      if dump_ptx then begin
        ignore (Proteus_opt.Pipeline.optimize_o3 u.Proteus_frontend.Compile.device);
        print_string (Proteus_backend.Ptx.emit u.Proteus_frontend.Compile.device)
      end
    end;
    if dump_mach then
      List.iter
        (fun k -> print_string (Proteus_backend.Mach.mfunc_to_string k))
        exe.Proteus_driver.Driver.fatbin.Proteus_backend.Mach.kernels
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"AOT-compile a Kernel-C program")
    Term.(
      const run $ file_arg $ vendor_arg $ proteus_flag $ werror $ advise $ dump_host
      $ dump_device $ dump_ptx $ dump_mach)

(* ---- analyze ---- *)

let analyze_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Kernel-C source files to analyze.")
  in
  let bundled =
    Arg.(value & flag & info [ "bundled" ]
           ~doc:"Also analyze the bundled HeCBench mini-apps and examples.")
  in
  let all =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Print conservative info-level findings too.")
  in
  let werror =
    Arg.(value & flag & info [ "werror" ]
           ~doc:"Exit non-zero on any reported finding, not just errors.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("machine", `Machine); ("sarif", `Sarif) ]) `Text
         & info [ "format" ]
             ~doc:"Output format: $(b,text), $(b,machine) (tab-separated, \
                   deterministic order) or $(b,sarif) (SARIF 2.1.0 JSON).")
  in
  let go files bundled all werror format =
    let open Proteus_analysis in
    let targets =
      List.map (fun f -> (f, read_file f)) files
      @
      if bundled then
        List.map
          (fun (a : Proteus_hecbench.App.t) ->
            (a.Proteus_hecbench.App.name, a.Proteus_hecbench.App.source))
          Proteus_hecbench.Suite.apps
        @ List.map
            (fun (e : Proteus_examples.Sources.t) ->
              (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
            Proteus_examples.Sources.all
      else []
    in
    if targets = [] then begin
      prerr_endline "proteus analyze: no input (pass FILE arguments or --bundled)";
      exit 2
    end;
    let shown_total = ref 0 and error_total = ref 0 in
    let per_file =
      List.map
        (fun (name, source) ->
          let m = device_module name source in
          let findings = Kernelsan.analyze_module m in
          let shown = Kernelsan.reportable ~all findings in
          shown_total := !shown_total + List.length shown;
          error_total := !error_total + List.length (Kernelsan.errors findings);
          (name, shown))
        targets
    in
    (match format with
    | `Text ->
        List.iter
          (fun (name, shown) ->
            List.iter (fun fd -> print_endline (Finding.to_string ~file:name fd)) shown)
          per_file
    | `Machine ->
        List.iter
          (fun (name, shown) ->
            List.iter
              (fun fd -> print_endline (Finding.to_machine ~file:name fd))
              (Finding.dedup_sort shown))
          per_file
    | `Sarif -> print_endline (Finding.to_sarif ~tool:"kernelsan" per_file));
    if format = `Text then
      Printf.printf "analyzed %d program(s): %d finding(s) shown, %d error(s)\n"
        (List.length targets) !shown_total !error_total;
    if !error_total > 0 || (werror && !shown_total > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the KernelSan static analyses (barrier divergence, shared-memory \
             races, out-of-bounds accesses) over kernel code")
    Term.(const go $ files $ bundled $ all $ werror $ format)

(* ---- advise ---- *)

let advise_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Kernel-C source files to advise on.")
  in
  let bundled =
    Arg.(value & flag & info [ "bundled" ]
           ~doc:"Also advise on the bundled HeCBench mini-apps and examples.")
  in
  let threshold =
    Arg.(value
         & opt float Proteus_analysis.Specadvisor.default_threshold
         & info [ "threshold" ]
             ~doc:"Minimum impact score for an argument to be recommended.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("machine", `Machine) ]) `Text
         & info [ "format" ]
             ~doc:"Output format: $(b,text) or $(b,machine) (JSON).")
  in
  let auto =
    Arg.(value & flag & info [ "auto-annotate" ]
           ~doc:"Rewrite the given FILEs in place, inserting \
                 __attribute__((annotate(\"jit\", ...))) on unannotated kernels with a \
                 non-empty recommendation. Idempotent: annotated kernels are skipped.")
  in
  let go files bundled threshold format auto =
    let open Proteus_analysis in
    let targets =
      List.map (fun f -> (f, read_file f)) files
      @
      if bundled then
        List.map
          (fun (a : Proteus_hecbench.App.t) ->
            (a.Proteus_hecbench.App.name, a.Proteus_hecbench.App.source))
          Proteus_hecbench.Suite.apps
        @ List.map
            (fun (e : Proteus_examples.Sources.t) ->
              (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
            Proteus_examples.Sources.all
      else []
    in
    if targets = [] then begin
      prerr_endline "proteus advise: no input (pass FILE arguments or --bundled)";
      exit 2
    end;
    let advised =
      List.map
        (fun (name, source) ->
          let m = device_module name source in
          (name, source, Specadvisor.advise_module ~threshold m))
        targets
    in
    (match format with
    | `Text ->
        List.iter
          (fun (name, _, reports) ->
            List.iter (fun k -> print_string (Specadvisor.to_string ~file:name k)) reports)
          advised;
        Printf.printf "advised %d program(s), %d kernel(s)\n" (List.length advised)
          (List.fold_left (fun acc (_, _, ks) -> acc + List.length ks) 0 advised)
    | `Machine ->
        print_endline
          (Proteus_support.Json.to_string
             (Specadvisor.json_of_programs
                (List.map (fun (name, _, ks) -> (name, ks)) advised))));
    if auto then
      List.iter
        (fun (name, source, reports) ->
          (* only real files can be rewritten; bundled sources are skipped *)
          if Sys.file_exists name then begin
            let advice =
              List.map (fun k -> (k.Specadvisor.kernel, Specadvisor.recommended_args k)) reports
            in
            let rewritten, kernels =
              Proteus_frontend.Rewrite.auto_annotate source ~advice
            in
            if kernels <> [] then begin
              let oc = open_out_bin name in
              output_string oc rewritten;
              close_out oc
            end;
            (* idempotence check: a second pass must plan no insertions *)
            (match Proteus_frontend.Rewrite.auto_annotate rewritten ~advice with
            | _, [] -> ()
            | _, again ->
                Printf.eprintf "proteus advise: rewrite of %s not idempotent (%s)\n" name
                  (String.concat ", " again);
                exit 1);
            Printf.printf "%s: annotated %d kernel(s)%s\n" name (List.length kernels)
              (if kernels = [] then "" else ": " ^ String.concat ", " kernels)
          end)
        advised
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Rank kernel arguments by specialization profitability (SpecAdvisor): \
             what folds, which branches prune and which loops unroll if the JIT pins \
             each argument; optionally auto-annotate sources")
    Term.(const go $ files $ bundled $ threshold $ format $ auto)

(* ---- perflint ---- *)

let perflint_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Kernel-C source files to analyze.")
  in
  let bundled =
    Arg.(value & flag & info [ "bundled" ]
           ~doc:"Also analyze the bundled HeCBench mini-apps and examples.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("machine", `Machine); ("sarif", `Sarif) ]) `Text
         & info [ "format" ]
             ~doc:"Output format: $(b,text) (per-kernel cost report), $(b,machine) \
                   (tab-separated findings, deterministic order) or $(b,sarif) \
                   (SARIF 2.1.0 JSON).")
  in
  let go files bundled vendor format =
    let open Proteus_analysis in
    let targets =
      List.map (fun f -> (f, read_file f)) files
      @
      if bundled then
        List.map
          (fun (a : Proteus_hecbench.App.t) ->
            (a.Proteus_hecbench.App.name, a.Proteus_hecbench.App.source))
          Proteus_hecbench.Suite.apps
        @ List.map
            (fun (e : Proteus_examples.Sources.t) ->
              (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
            Proteus_examples.Sources.all
      else []
    in
    if targets = [] then begin
      prerr_endline "proteus perflint: no input (pass FILE arguments or --bundled)";
      exit 2
    end;
    let device = Device.by_vendor vendor in
    let results =
      List.map
        (fun (name, source) ->
          let m = device_module name source in
          (name, Perflint.report_module ~device m))
        targets
    in
    match format with
    | `Text ->
        List.iter
          (fun (name, rs) ->
            List.iter (fun r -> print_string (Perflint.to_string ~file:name r)) rs)
          results;
        Printf.printf "perflint: %d program(s), %d kernel(s), %d finding(s)\n"
          (List.length results)
          (List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 results)
          (List.fold_left
             (fun acc (_, rs) ->
               acc + List.length (Perflint.findings_of_reports rs))
             0 results)
    | `Machine ->
        List.iter
          (fun (name, rs) ->
            List.iter
              (fun fd -> print_endline (Finding.to_machine ~file:name fd))
              (Finding.dedup_sort (Perflint.findings_of_reports rs)))
          results
    | `Sarif ->
        print_endline
          (Finding.to_sarif ~tool:"perflint"
             (List.map
                (fun (name, rs) -> (name, Perflint.findings_of_reports rs))
                results))
  in
  Cmd.v
    (Cmd.info "perflint"
       ~doc:"Static memory-performance and occupancy analysis: classify every \
             load/store as coalesced/strided/broadcast/scattered, estimate \
             shared-memory bank conflicts, register-pressure occupancy and \
             divergence cost per kernel")
    Term.(const go $ files $ bundled $ vendor_arg $ format)

(* ---- transval ---- *)

let transval_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Kernel-C source files to validate.")
  in
  let bundled =
    Arg.(value & flag & info [ "bundled" ]
           ~doc:"Also validate the bundled HeCBench mini-apps and examples.")
  in
  let all =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Report proven kernels (text) and info-level unproven \
                 findings (machine/sarif) too, not just refutations.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("machine", `Machine); ("sarif", `Sarif) ]) `Text
         & info [ "format" ]
             ~doc:"Output format: $(b,text) (per-kernel verdicts), $(b,machine) \
                   (tab-separated findings, deterministic order) or $(b,sarif) \
                   (SARIF 2.1.0 JSON).")
  in
  let go files bundled all format =
    let open Proteus_analysis in
    let targets =
      List.map (fun f -> (f, read_file f)) files
      @
      if bundled then
        List.map
          (fun (a : Proteus_hecbench.App.t) ->
            (a.Proteus_hecbench.App.name, a.Proteus_hecbench.App.source))
          Proteus_hecbench.Suite.apps
        @ List.map
            (fun (e : Proteus_examples.Sources.t) ->
              (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
            Proteus_examples.Sources.all
      else []
    in
    if targets = [] then begin
      prerr_endline "proteus transval: no input (pass FILE arguments or --bundled)";
      exit 2
    end;
    (* Validate the O3 pipeline against the unoptimized IR of every
       kernel: the reference keeps its dbg.loc markers so refutations
       carry source provenance. *)
    let results =
      List.map
        (fun (name, source) ->
          let reference = device_module name source in
          let candidate = Proteus_ir.Ir.clone_module reference in
          ignore (Proteus_opt.Pipeline.optimize_o3 candidate);
          (name, Transval.check_module_pair ~reference ~candidate ()))
        targets
    in
    let count p =
      List.fold_left
        (fun acc (_, vs) ->
          acc + List.length (List.filter (fun (_, v) -> p v) vs))
        0 results
    in
    let proven = count (function Transval.Proven -> true | _ -> false) in
    let unproven = count (function Transval.Unproven _ -> true | _ -> false) in
    let refuted = count (function Transval.Refuted _ -> true | _ -> false) in
    let findings_of vs =
      List.filter_map
        (fun (sym, v) ->
          match v with
          | Transval.Proven -> None
          | Transval.Unproven _ when not all -> None
          | v -> Transval.finding_of_verdict ~sym v)
        vs
    in
    (match format with
    | `Text ->
        List.iter
          (fun (name, vs) ->
            List.iter
              (fun (sym, v) ->
                match v with
                | Transval.Proven when not all -> ()
                | v ->
                    Printf.printf "%s/%s: %s\n" name sym
                      (Transval.verdict_to_string v))
              vs)
          results;
        Printf.printf
          "transval: %d program(s), %d kernel(s): %d proven, %d unproven, %d refuted\n"
          (List.length results)
          (proven + unproven + refuted)
          proven unproven refuted
    | `Machine ->
        List.iter
          (fun (name, vs) ->
            List.iter
              (fun fd -> print_endline (Finding.to_machine ~file:name fd))
              (Finding.dedup_sort (findings_of vs)))
          results
    | `Sarif ->
        print_endline
          (Finding.to_sarif ~tool:"transval"
             (List.map (fun (name, vs) -> (name, findings_of vs)) results)));
    if refuted > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "transval"
       ~doc:"Symbolic translation validation: prove the O3 optimization \
             pipeline preserved every kernel's semantics (per-lane value and \
             memory-effect equivalence with loop cutpoints), reporting \
             proven/unproven/refuted per kernel")
    Term.(const go $ files $ bundled $ all $ format)

(* ---- run ---- *)

let run_cmd =
  let no_rcf = Arg.(value & flag & info [ "no-rcf" ] ~doc:"Disable runtime constant folding.") in
  let no_lb = Arg.(value & flag & info [ "no-lb" ] ~doc:"Disable dynamic launch bounds.") in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~doc:"Persistent cache directory.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print JIT statistics.") in
  let go file vendor proteus no_rcf no_lb cache_dir stats =
    let source = read_file file in
    let mode = if proteus then Proteus_driver.Driver.Proteus else Proteus_driver.Driver.Aot in
    let exe =
      frontend file (fun () ->
          Proteus_driver.Driver.compile ~name:(Filename.basename file) ~vendor ~mode source)
    in
    let config =
      {
        Proteus_core.Config.default with
        Proteus_core.Config.enable_rcf = not no_rcf;
        enable_lb = not no_lb;
        use_mem_cache = true;
        persistent_dir = cache_dir;
      }
    in
    let r = Proteus_driver.Driver.run ~config exe in
    print_string r.Proteus_driver.Driver.output;
    Printf.printf "[exit %d; simulated end-to-end %.4f ms; kernels %.4f ms]\n"
      r.Proteus_driver.Driver.exit_code
      (r.Proteus_driver.Driver.end_to_end_s *. 1e3)
      (r.Proteus_driver.Driver.kernel_time_s *. 1e3);
    (if stats then
       match r.Proteus_driver.Driver.jit with
       | Some s ->
           Printf.printf "[%s]\n" (Proteus_core.Stats.to_string s);
           (* fault-containment report: only when something happened *)
           if s.Proteus_core.Stats.fallbacks > 0 then
             Printf.printf "[fallbacks to AOT: %d (%s)]\n"
               s.Proteus_core.Stats.fallbacks
               (String.concat ", "
                  (List.map
                     (fun (stage, n) -> Printf.sprintf "%s: %d" stage n)
                     (Proteus_core.Stats.stage_failures s)));
           if s.Proteus_core.Stats.quarantine_events > 0 then
             Printf.printf
               "[quarantine: %d events, %d launches served AOT, %d retries]\n"
               s.Proteus_core.Stats.quarantine_events
               s.Proteus_core.Stats.quarantined_launches
               s.Proteus_core.Stats.quarantine_retries;
           if s.Proteus_core.Stats.cache_corruptions > 0 then
             Printf.printf "[persistent cache: %d corrupt entries discarded]\n"
               s.Proteus_core.Stats.cache_corruptions;
           if s.Proteus_core.Stats.host_hook_errors > 0 then
             Printf.printf "[host hook: %d malformed/unregistered launch calls]\n"
               s.Proteus_core.Stats.host_hook_errors
       | None -> Printf.printf "[no JIT: AOT executable]\n");
    exit r.Proteus_driver.Driver.exit_code
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a Kernel-C program on the simulated GPU")
    Term.(const go $ file_arg $ vendor_arg $ proteus_flag $ no_rcf $ no_lb $ cache_dir $ stats)

(* ---- bench ---- *)

let bench_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"One of: adam rsbench wsm5 fey-kac lulesh sw4ck")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the measurements as a JSON array on stdout (for tooling).")
  in
  let go name vendor json =
    let open Proteus_hecbench in
    let a = Suite.find name in
    let methods = [ Harness.AOT; Harness.Proteus_cold; Harness.Proteus_warm; Harness.Jitify_m ] in
    let results = List.map (fun meth -> (meth, Harness.run a vendor meth)) methods in
    if json then begin
      let open Proteus_support in
      let module Stats = Proteus_core.Stats in
      (* n/a rows carry NaN timings, which print as null; rows with no
         JIT (AOT, n/a) carry null percentiles and tiering fields *)
      let ms v = Json.Num (v *. 1e3) in
      let hist_ms h f = if Hist.count h > 0 then ms (f h) else Json.Null in
      let row (meth, (m : Harness.measurement)) =
        let stat f = match m.Harness.stats with Some s -> f s | None -> Json.Null in
        let launch_pct p = stat (fun s -> hist_ms s.Stats.launch_hist p) in
        Json.Obj
          [
            ("benchmark", Json.Str name);
            ("method", Json.Str (Harness.method_name meth));
            ("na", Json.Bool m.Harness.na);
            ("ok", Json.Bool m.Harness.ok);
            ("e2e_ms", ms m.Harness.e2e_s);
            ("kernel_ms", ms m.Harness.kernel_s);
            ("jit_overhead_ms", ms m.Harness.jit_overhead_s);
            ("p50_ms", launch_pct Hist.p50);
            ("p90_ms", launch_pct Hist.p90);
            ("p99_ms", launch_pct Hist.p99);
            ("first_launch_ms", stat (fun s -> ms s.Stats.first_launch_s));
            ("steady_launch_ms", stat (fun s -> ms s.Stats.steady_launch_s));
            ("tierup_count", stat (fun s -> Json.int s.Stats.tierups));
            ("swap_latency_ms", stat (fun s -> hist_ms s.Stats.swap_hist Hist.p50));
          ]
      in
      print_endline (Json.to_string (Json.Arr (List.map row results)))
    end
    else
      List.iter
        (fun (meth, m) ->
          if m.Harness.na then Printf.printf "%-9s N/A\n" (Harness.method_name meth)
          else
            Printf.printf "%-9s e2e=%9.4fms kernels=%9.4fms jit-overhead=%8.4fms %s\n"
              m.Harness.meth (m.Harness.e2e_s *. 1e3) (m.Harness.kernel_s *. 1e3)
              (m.Harness.jit_overhead_s *. 1e3)
              (if m.Harness.ok then "ok" else "FAILED"))
        results;
    if List.exists (fun (_, m) -> not m.Harness.ok) results then exit 1
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run a HeCBench mini-app under every method")
    Term.(const go $ name_arg $ vendor_arg $ json_flag)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed (case $(i,i) uses seed + i*1000003).")
  in
  let count =
    Arg.(value & opt int 200 & info [ "count" ]
           ~doc:"Number of kernels to generate (raise it for soak runs).")
  in
  let max_stmts =
    Arg.(value & opt int 12 & info [ "max-stmts" ] ~doc:"Statement budget per generated kernel.")
  in
  let oracle =
    Arg.(value & opt (some string) None & info [ "oracle" ]
           ~doc:"Comma-separated subset of $(b,a),$(b,b),$(b,c),$(b,d),$(b,e),$(b,f),$(b,g),$(b,h) \
                 to run (default: all eight).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write minimized .kc reproducers for failures into $(docv).")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject-faults" ]
           ~doc:"Arm fault points, e.g. $(b,specialize-corrupt=always) (same syntax as bench).")
  in
  let go seed count max_stmts oracle out inject =
    let oracles =
      match oracle with
      | None -> Proteus_fuzz.Oracle.all_oracles
      | Some s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun x -> x <> "")
    in
    List.iter
      (fun o ->
        if not (List.mem o Proteus_fuzz.Oracle.all_oracles) then begin
          Printf.eprintf "proteus fuzz: unknown oracle %s (a|b|c|d|e|f|g|h)\n" o;
          exit 2
        end)
      oracles;
    let fault_plan =
      match inject with
      | None -> []
      | Some s -> (
          match Proteus_core.Fault.plan_of_string s with
          | Ok p -> p
          | Error e ->
              Printf.eprintf "proteus fuzz: %s\n" e;
              exit 2)
    in
    let cfg =
      {
        Proteus_fuzz.Fuzz.default_config with
        Proteus_fuzz.Fuzz.seed;
        count;
        max_stmts;
        oracles;
        out_dir = out;
        fault_plan;
        progress = prerr_endline;
      }
    in
    let r = Proteus_fuzz.Fuzz.run cfg in
    print_string (Proteus_fuzz.Fuzz.summary r);
    if r.Proteus_fuzz.Fuzz.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: generate random Kernel-C kernels and check the \
             interpreter, executors, optimizer, JIT specializer and verifiers against \
             each other")
    Term.(const go $ seed $ count $ max_stmts $ oracle $ out $ inject)

(* ---- crashtest ---- *)

(* Crash-recovery harness for the persistent cache: forked children
   write entries through the real locked, chunked, atomic-rename write
   path and are SIGKILLed at a seeded random write tick - before the
   tmp file is complete, between close and rename, or while holding the
   entry lock. Every third iteration the parent also flips a byte in a
   surviving entry. At the end a fresh store runs the recovery sweep;
   the invariant is a clean directory: no .tmp or .lock litter, every
   surviving entry CRC-valid, every lookup a disk hit or a miss. *)

let crashtest_cmd =
  let iters =
    Arg.(value & opt int 200 & info [ "iters" ] ~doc:"Number of crash iterations.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic campaign seed.") in
  let keys =
    Arg.(value & opt int 8 & info [ "keys" ]
           ~doc:"Distinct cache keys the children write to.")
  in
  let dir_opt =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Cache directory (default: a fresh temp dir, removed on success).")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the final summary.") in
  let go iters seed keys dir_opt quiet =
    let open Proteus_core in
    let open Proteus_backend in
    let module Rng = Proteus_support.Util.Rng in
    if iters <= 0 || keys <= 0 then begin
      prerr_endline "proteus crashtest: --iters and --keys must be positive";
      exit 2
    end;
    let dir, ephemeral =
      match dir_opt with
      | Some d -> (d, false)
      | None ->
          let d = Filename.temp_file "proteus-crash" "" in
          Sys.remove d;
          Unix.mkdir d 0o755;
          (d, true)
    in
    let spec_key k =
      Speckey.compute ~mid:"crashtest" ~sym:(Printf.sprintf "k%d" k) ~spec_values:[]
        ~launch_bounds:None
    in
    (* child: write a few entries, armed to die at tick [kill_at] *)
    let child child_seed kill_at =
      let c = Cachestore.create ~persistent_dir:dir () in
      let rng = Rng.create child_seed in
      let ticks = ref 0 in
      Cachestore.set_tick_hook c (fun _ ->
          incr ticks;
          if !ticks = kill_at then Unix.kill (Unix.getpid ()) Sys.sigkill);
      for _ = 1 to 3 do
        let k = Rng.int rng keys in
        let payload =
          String.init (512 + Rng.int rng 2048) (fun i -> Char.chr (i land 0xff))
        in
        let obj =
          { Mach.okind = Mach.VGcn; kernels = []; oglobals = [];
            sections = [ ("s", payload) ] }
        in
        ignore (Cachestore.insert c (spec_key k) obj)
      done
    in
    let entry_files () =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             (not (Filename.check_suffix f ".lock"))
             && not (Filename.check_suffix f ".tmp"))
    in
    (* flip one byte of a surviving entry in place *)
    let corrupt_one rng =
      match entry_files () with
      | [] -> ()
      | l ->
          let f = Filename.concat dir (List.nth l (Rng.int rng (List.length l))) in
          let fd = Unix.openfile f [ Unix.O_RDWR ] 0 in
          let len = (Unix.fstat fd).Unix.st_size in
          if len > 0 then begin
            let off = Rng.int rng len in
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            let b = Bytes.create 1 in
            let _ = Unix.read fd b 0 1 in
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5A));
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1)
          end;
          Unix.close fd
    in
    let rng = Rng.create seed in
    let kills = ref 0 and survivors = ref 0 in
    for i = 1 to iters do
      let kill_at = 1 + Rng.int rng 40 in
      let child_seed = seed + (i * 7919) in
      match Unix.fork () with
      | 0 ->
          (try child child_seed kill_at with _ -> ());
          Unix._exit 0
      | pid ->
          (match Unix.waitpid [] pid with
          | _, Unix.WSIGNALED s when s = Sys.sigkill -> incr kills
          | _ -> incr survivors);
          if i mod 3 = 0 then corrupt_one rng;
          if (not quiet) && i mod 50 = 0 then
            Printf.eprintf "crashtest: %d/%d (%d killed)\n%!" i iters !kills
    done;
    (* fresh store: runs the recovery sweep over the litter *)
    let c = Cachestore.create ~persistent_dir:dir () in
    let leftovers = Array.to_list (Sys.readdir dir) in
    let tmps = List.filter (fun f -> Filename.check_suffix f ".tmp") leftovers in
    let locks = List.filter (fun f -> Filename.check_suffix f ".lock") leftovers in
    let entries = entry_files () in
    let invalid =
      List.filter
        (fun f -> not (Cachestore.validate_file (Filename.concat dir f)))
        entries
    in
    let bad_lookups = ref 0 in
    for k = 0 to keys - 1 do
      match Cachestore.lookup c (spec_key k) with
      | Cachestore.Disk_hit _ | Cachestore.Mem_hit _ | Cachestore.Miss -> ()
      | exception _ -> incr bad_lookups
    done;
    Printf.printf
      "crashtest: %d iterations (%d killed mid-write, %d survived); final sweep \
       reaped %d tmp + %d stale locks, swept %d corrupt; %d valid entries remain\n"
      iters !kills !survivors c.Cachestore.reaped_tmp c.Cachestore.reaped_locks
      c.Cachestore.corruptions (List.length entries);
    let complain what = function
      | [] -> false
      | l ->
          Printf.eprintf "crashtest: FAIL: %s after recovery: %s\n" what
            (String.concat ", " l);
          true
    in
    let failed =
      let f1 = complain ".tmp litter" tmps in
      let f2 = complain ".lock litter" locks in
      let f3 = complain "corrupt entries" invalid in
      let f4 =
        if !bad_lookups > 0 then begin
          Printf.eprintf "crashtest: FAIL: %d lookups raised\n" !bad_lookups;
          true
        end
        else false
      in
      f1 || f2 || f3 || f4
    in
    if failed then exit 1;
    if ephemeral then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:"Torture the persistent cache: SIGKILL writers at random points \
             mid-write, corrupt survivors, and verify the recovery sweep restores \
             a clean, CRC-valid cache")
    Term.(const go $ iters $ seed $ keys $ dir_opt $ quiet)

(* ---- serve ---- *)

(* Multi-tenant JIT service: N simulated client sessions submit a
   seeded Zipf launch schedule to one shared runtime (one
   content-addressed artifact store that compiles each key once,
   per-tenant stats/faults/quarantine). See lib/proteus/serve.ml. *)

let serve_cmd =
  let tenants =
    Arg.(value & opt int 4 & info [ "tenants" ] ~doc:"Number of simulated client sessions.")
  in
  let kernels =
    Arg.(value & opt int 8 & info [ "kernels" ] ~doc:"Size of the kernel family tenants launch from.")
  in
  let launches =
    Arg.(value & opt int 10_000 & info [ "launches" ] ~doc:"Total launches across all tenants.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let skew =
    Arg.(value & opt float 1.1 & info [ "skew" ]
           ~doc:"Zipf exponent for kernel popularity (0 = uniform).")
  in
  let quota =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "invalid byte count %S (want an integer >= 0)" s))
    in
    Arg.(value & opt (conv (parse, Format.pp_print_int)) 0 & info [ "tenant-quota" ]
           ~doc:"Per-tenant memory-tier byte quota (0 = unlimited).")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ]
           ~doc:"Serving domains; tenants are sharded round-robin across them.")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject-faults" ]
           ~doc:"Arm fault points, optionally tenant-scoped: \
                 $(b,T0:specialize-corrupt=always,decode=nth:3). An unscoped \
                 point arms in every tenant; faults never fire inside the \
                 shared store.")
  in
  let dump =
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE"
           ~doc:"Write the generated workload schedule to $(docv) as JSON.")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a schedule dumped with $(b,--dump) instead of generating \
                 one ($(b,--tenants)/$(b,--kernels)/$(b,--launches)/$(b,--seed)/\
                 $(b,--skew) are taken from the file).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"After serving, replay each tenant's launch stream serially in a \
                 fresh single-tenant runtime and fail unless the outputs are \
                 bit-identical.")
  in
  let go tenants kernels launches seed skew quota domains inject dump replay verify =
    let open Proteus_core in
    let module Workload = Proteus_fuzz.Workload in
    if tenants <= 0 || kernels <= 0 || launches < 0 || skew < 0.0 then begin
      prerr_endline "proteus serve: --tenants/--kernels must be positive, --launches/--skew non-negative";
      exit 2
    end;
    let w =
      match replay with
      | None -> Workload.generate ~seed ~tenants ~kernels ~launches ~skew
      | Some file -> (
          let ic = open_in_bin file in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          match Workload.of_json s with
          | Ok w -> w
          | Error e ->
              Printf.eprintf "proteus serve: bad replay file %s: %s\n" file e;
              exit 2)
    in
    (match dump with
    | None -> ()
    | Some file ->
        let oc = open_out_bin file in
        output_string oc (Workload.to_json w);
        output_char oc '\n';
        close_out oc);
    let names = Serve.default_names w.Workload.tenants in
    let tenant_faults =
      match inject with
      | None -> []
      | Some s -> (
          match Fault.scoped_plan_of_string s with
          | Error e ->
              Printf.eprintf "proteus serve: %s\n" e;
              exit 2
          | Ok specs ->
              List.filter_map
                (fun n ->
                  match Fault.tenant_plan n specs with
                  | [] -> None
                  | plan -> Some (n, plan))
                names)
    in
    let config = { Config.default with Config.tenant_quota = quota } in
    let sv =
      Serve.create ~config ~tenants:w.Workload.tenants ~kernels:w.Workload.kernels
        ~tenant_faults ()
    in
    if domains > 1 then Serve.run_sharded sv ~domains w.Workload.schedule
    else Serve.run sv w.Workload.schedule;
    Serve.finish sv;
    Serve.print_report sv;
    if verify then begin
      let bad = ref 0 in
      for tn = 0 to w.Workload.tenants - 1 do
        let live = Serve.output sv ~tenant:tn in
        let replayed = Serve.replay_output ~config sv ~tenant:tn w.Workload.schedule in
        if live <> replayed then begin
          incr bad;
          Printf.printf "verify: tenant %s DIVERGED from serial replay\n"
            (Serve.tenant_name sv ~tenant:tn)
        end
      done;
      if !bad = 0 then
        Printf.printf "verify: %d tenants bit-identical to serial replay\n"
          w.Workload.tenants
      else exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant JIT service: N client sessions submit a seeded \
             Zipf workload to one shared compiler and content-addressed artifact \
             store, with per-tenant quotas, stats and fault isolation")
    Term.(const go $ tenants $ kernels $ launches $ seed $ skew $ quota $ domains
          $ inject $ dump $ replay $ verify)

let devices_cmd =
  let go () =
    List.iter
      (fun v ->
        let d = Device.by_vendor v in
        Printf.printf "%-26s %3d CUs, warp %2d, %4.2f GHz, L2 %s\n" d.Device.name
          d.Device.num_cus d.Device.warp_size d.Device.clock_ghz
          (Proteus_support.Util.human_bytes d.Device.l2_bytes))
      [ Device.Amd; Device.Nvidia ]
  in
  Cmd.v (Cmd.info "devices" ~doc:"List simulated devices") Term.(const go $ const ())

let () =
  let info = Cmd.info "proteus" ~version:"1.0.0" ~doc:"Proteus GPU JIT (simulated) driver" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; analyze_cmd; advise_cmd; perflint_cmd; transval_cmd;
            run_cmd; bench_cmd; fuzz_cmd; crashtest_cmd; serve_cmd; devices_cmd;
          ]))
