(* The four differential oracles over one generated kernel + launch:

   (a) frontend/interpreter: pp->reparse roundtrip equality, then the
       IR interpreter over the unoptimized (O0) module vs the same
       module after the O3 pipeline - bit-identical memory;
   (b) IR interpreter vs the backend executors: the reference,
       threaded and multicore engines must reproduce the interpreter's
       memory exactly, and agree among themselves on every performance
       counter and the simulated kernel timing;
   (c) JIT specialization: extract -> bitcode roundtrip -> RCF+LB
       specialization -> O3 -> codegen must produce bit-identical
       outputs to the unspecialized path (the paper's core claim);
   (d) static cleanliness: the IR verifier and KernelSan must stay
       error-free on the generated program and on its O3 and
       specialized forms;
   (e) advise-safe: SpecAdvisor must be deterministic (two advisory
       passes over the same kernel produce identical impact reports),
       and specializing only the advisor-recommended subset of the
       annotated arguments must still produce bit-identical outputs to
       the unspecialized path (dropping a key component may cost
       folding, never correctness);
   (f) perf-model consistency: sites PerfLint statically classifies as
       coalesced must never measure worse than the strided-2 line
       bound under the executor's per-site transaction profile (checked
       on full-mask issues only: a sparse active mask can legitimately
       make a coalesced site look scattered);
   (g) tier-up mid-stream is bit-identical: a launch stream that
       starts on the unspecialized (tier-0 / AOT) artifact and hot
       swaps to the specialized O3 artifact after k launches must
       leave exactly the same memory as the all-tier-0 and all-O3
       streams, for every switch point k.

   Every O3 run of every oracle also checks the pass memo: a run the
   memo skips is re-run on a clone and must change nothing (the
   failure is the running oracle's).

   Every run builds its own memory rig with a deterministic layout
   (module globals first, then parameter buffers in order, contents
   seeded from the launch), so snapshots compare byte-for-byte across
   completely independent executions. *)

open Proteus_support
open Proteus_ir
open Proteus_frontend
open Proteus_backend
open Proteus_gpu
module Rng = Util.Rng

type failure = { oracle : string; detail : string }

type opts = {
  oracles : string list; (* subset of [all_oracles] *)
  faults : Proteus_core.Fault.t; (* armed fault points for the spec path *)
}

let all_oracles = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

let default_opts () = { oracles = all_oracles; faults = Proteus_core.Fault.of_plan [] }

exception Fail of failure

(* every oracle compiles for the AMD target *)
let amd_obj m = fst (Proteus_runtime.Toolchain.compile ~vendor:Device.Amd m)

let failf oracle fmt =
  Printf.ksprintf (fun s -> raise (Fail { oracle; detail = s })) fmt

let describe_exn = function
  | Verify.Invalid msgs -> "IR verifier: " ^ String.concat "; " msgs
  | Ast.Error (pos, msg) ->
      Printf.sprintf "frontend: %d:%d %s" pos.Ast.line pos.Ast.col msg
  | Interp.Out_of_fuel -> "interpreter: out of fuel"
  | e -> "exception: " ^ Printexc.to_string e

(* Attribute any stray exception inside an oracle's pipeline stage to
   that oracle: a frontend crash is an oracle-(a) failure, a codegen
   crash an oracle-(b) failure, and so on. *)
let guard oracle f =
  try f () with
  | Fail _ as e -> raise e
  | e -> failf oracle "%s" (describe_exn e)

(* ---- deterministic memory rig ---- *)

type rig = {
  mem : Gmem.t;
  regions : (int64 * int) list; (* base, bytes - snapshot order *)
  gaddr : (string * int64) list; (* module globals by name *)
  args : Konst.t array;
}

let elem_bytes = function
  | Ast.Cdouble | Ast.Clong -> 8
  | Ast.Cfloat | Ast.Cint -> 4
  | Ast.Cbool -> 1
  | t -> Util.failf "fuzz: unsized element type %s" (Ast.cty_to_string t)

let dyadic rng = float_of_int (Rng.int rng 129 - 64) /. 16.0

let make_rig (k : Gen.kernel) (l : Gen.launch) : rig =
  let rng = Rng.create l.Gen.lseed in
  let mem = Gmem.create () in
  let regions = ref [] in
  let alloc bytes =
    let a = Gmem.alloc mem bytes in
    regions := (a, bytes) :: !regions;
    a
  in
  let gaddr =
    List.filter_map
      (function
        | Ast.Dglob g ->
            let bytes =
              match g.Ast.gcty with
              | Ast.Carr (t, n) -> elem_bytes t * n
              | t -> elem_bytes t
            in
            Some (g.Ast.gcname, alloc bytes)
        | Ast.Dfun _ -> None)
      k.Gen.prog
  in
  let arg_of kind =
    match kind with
    | Gen.Abuf elem ->
        let eb = elem_bytes elem in
        let base = alloc (eb * l.Gen.n) in
        for i = 0 to l.Gen.n - 1 do
          let addr = Int64.add base (Int64.of_int (i * eb)) in
          match elem with
          | Ast.Cdouble -> Gmem.write_f64 mem addr (dyadic rng)
          | Ast.Cfloat -> Gmem.write_f32 mem addr (dyadic rng)
          | Ast.Cint -> Gmem.write_i32 mem addr (Int32.of_int (Rng.int rng 17 - 8))
          | _ -> Gmem.write_i64 mem addr (Int64.of_int (Rng.int rng 17 - 8))
        done;
        Konst.kint ~bits:64 base
    | Gen.Aacc -> Konst.kint ~bits:64 (alloc 8)
    | Gen.Ascalar Ast.Cint -> Konst.ki32 (Rng.int rng 17 - 8)
    | Gen.Ascalar Ast.Clong ->
        Konst.kint ~bits:64 (Int64.of_int (Rng.int rng 33 - 16))
    | Gen.Ascalar Ast.Cfloat -> Konst.kf32 (dyadic rng)
    | Gen.Ascalar _ -> Konst.kf64 (dyadic rng)
    | Gen.Alen -> Konst.ki32 l.Gen.n
  in
  let args = Array.of_list (List.map arg_of k.Gen.args) in
  { mem; regions = List.rev !regions; gaddr; args }

let snapshot (r : rig) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun (base, bytes) ->
      for i = 0 to bytes - 1 do
        Buffer.add_char buf
          (Char.chr (Gmem.read_u8 r.mem (Int64.add base (Int64.of_int i))))
      done)
    r.regions;
  Buffer.contents buf

let snap_diff a b =
  if String.length a <> String.length b then
    Printf.sprintf "sizes differ: %d vs %d bytes" (String.length a) (String.length b)
  else begin
    let i = ref 0 in
    while !i < String.length a && a.[!i] = b.[!i] do
      incr i
    done;
    if !i >= String.length a then "identical"
    else
      Printf.sprintf "first difference at byte %d of %d: %02x vs %02x" !i
        (String.length a)
        (Char.code a.[!i])
        (Char.code b.[!i])
  end

let global_of r name =
  match List.assoc_opt name r.gaddr with
  | Some a -> a
  | None -> Util.failf "fuzz: unknown device symbol %s" name

(* ---- execution: IR interpreter, one virtual thread at a time ---- *)

let interp_atomic mem name addr v =
  match name with
  | "gpu.atomic.add.i32" ->
      let old = Gmem.read_i32 mem addr in
      Gmem.write_i32 mem addr (Int32.add old (Int64.to_int32 (Konst.as_int v)));
      Konst.kint ~bits:32 (Int64.of_int32 old)
  | "gpu.atomic.add.f32" ->
      let old = Gmem.read_f32 mem addr in
      Gmem.write_f32 mem addr (Util.to_f32 (old +. Konst.as_float v));
      Konst.kf32 old
  | "gpu.atomic.add.f64" ->
      let old = Gmem.read_f64 mem addr in
      Gmem.write_f64 mem addr (old +. Konst.as_float v);
      Konst.kf64 old
  | n -> Util.failf "fuzz: atomic %s" n

(* The interpreter run doubles as a validity filter: every access must
   land inside a rig region or an alloca'd block. Generated kernels are
   in-bounds by construction, but the shrinker can propose variants
   that drop a bounds guard; on such kernels the thread-serial
   interpreter and the warp-lockstep engines legitimately disagree
   about the final clobbered bytes, so they are rejected under the
   distinct pseudo-oracle "invalid" rather than reported as engine
   divergence. *)
let interp_run (m : Ir.modul) (k : Gen.kernel) (l : Gen.launch) : string =
  let rig = make_rig k l in
  let mem = rig.mem in
  let allowed = ref rig.regions in
  let check what ty a =
    let sz = Types.size_of ty in
    let inside (base, bytes) =
      Int64.compare a base >= 0
      && Int64.compare
           (Int64.add a (Int64.of_int sz))
           (Int64.add base (Int64.of_int bytes))
         <= 0
    in
    if not (List.exists inside !allowed) then
      failf "invalid" "out-of-bounds %s: address %Ld, %d bytes" what a sz
  in
  let atomic_ty name =
    if String.ends_with ~suffix:".i32" name || String.ends_with ~suffix:".f32" name then
      Types.i32
    else Types.f64
  in
  for b = 0 to l.Gen.grid - 1 do
    for t = 0 to l.Gen.block - 1 do
      let q name =
        match name with
        | "gpu.tid.x" -> Some (Konst.ki32 t)
        | "gpu.ctaid.x" -> Some (Konst.ki32 b)
        | "gpu.ntid.x" -> Some (Konst.ki32 l.Gen.block)
        | "gpu.nctaid.x" -> Some (Konst.ki32 l.Gen.grid)
        | "gpu.tid.y" | "gpu.tid.z" | "gpu.ctaid.y" | "gpu.ctaid.z" ->
            Some (Konst.ki32 0)
        | "gpu.ntid.y" | "gpu.ntid.z" | "gpu.nctaid.y" | "gpu.nctaid.z" ->
            Some (Konst.ki32 1)
        | _ -> None
      in
      let env =
        Interp.make_env
          ~load:(fun ty a ->
            check "load" ty a;
            Gmem.read mem ty a)
          ~store:(fun ty a v ->
            check "store" ty a;
            Gmem.write mem ty a v)
          ~extern:(fun n _ -> Util.failf "fuzz: extern call %s" n)
          ~global_addr:(global_of rig)
          ~alloca:(fun ty c ->
            let bytes = max 1 (Types.size_of ty * c) in
            let a = Gmem.alloc mem bytes in
            allowed := (a, bytes) :: !allowed;
            a)
          ~gpu_query:q
          ~atomic:(fun name a v ->
            check "atomic" (atomic_ty name) a;
            interp_atomic mem name a v)
          ~fuel:10_000_000 ()
      in
      ignore (Interp.run env m k.Gen.sym (Array.to_list rig.args))
    done
  done;
  snapshot rig

(* ---- execution: backend engines over compiled machine code ---- *)

type engine = Reference | Threaded | Multicore

let engine_name = function
  | Reference -> "reference"
  | Threaded -> "threaded"
  | Multicore -> "multicore"

(* Run [f] with PerfLint's site profile armed; return its result and
   the recorded sites in key order, for comparing engines field by
   field. *)
let profiled f =
  let tbl = Counters.create_sites () in
  Counters.site_profile := Some tbl;
  let r = Fun.protect ~finally:(fun () -> Counters.site_profile := None) f in
  (r, List.sort compare (Hashtbl.fold (fun k s acc -> (k, s) :: acc) tbl []))

(* Run [mk] on [engine]; with [~profile] the launch records PerfLint's
   per-site profile, returned in key order (empty otherwise). *)
let machine_run ?(profile = false) engine (mk : Mach.mfunc) (k : Gen.kernel)
    (l : Gen.launch) : string * Counters.t * float * (Counters.site_key * Counters.site) list =
  let rig = make_rig k l in
  let dev = Device.mi250x in
  let l2 = L2cache.create dev in
  let launch () =
    let symbols = global_of rig and grid = l.Gen.grid and block = l.Gen.block in
    match engine with
    | Reference ->
        Refexec.launch ~device:dev ~mem:rig.mem ~l2 ~symbols mk ~grid ~block ~args:rig.args
    | Threaded | Multicore ->
        let domains = if engine = Multicore then 4 else 1 in
        Exec.launch ~domains ~device:dev ~mem:rig.mem ~l2 ~symbols mk ~grid ~block
          ~args:rig.args
  in
  let r, sites = if profile then profiled launch else (launch (), []) in
  let dur =
    (Timing.kernel_time dev mk r.Exec.counters ~blocks:r.Exec.blocks_launched)
      .Timing.duration_s
  in
  (snapshot rig, r.Exec.counters, dur, sites)

(* ---- the oracles ---- *)

let clone_module (m : Ir.modul) : Ir.modul =
  Bitcode.decode_module (Bitcode.encode_module m)

(* O3 with the pass memo's checking twin: every run the memo skips is
   re-run on a clone and must keep the pass contracts. *)
let o3 oracle (m : Ir.modul) =
  let on_skip p m f =
    Option.iter
      (failf oracle "pass memo skipped a run that breaks a pass contract: %s")
      (Proteus_opt.Pass.recheck p m f)
  in
  ignore (Proteus_opt.Pipeline.run ~on_skip m)

let ksan_errors oracle what (m : Ir.modul) =
  match Proteus_analysis.Kernelsan.errors (Proteus_analysis.Kernelsan.analyze_module m) with
  | [] -> ()
  | fd :: _ ->
      failf oracle "KernelSan error on %s form: %s" what
        (Proteus_analysis.Finding.to_string fd)

(* Run the selected oracles over [gk]+[l]; [src] must be the printed
   form of [gk.prog]. Returns the number of oracle checks passed. *)
let run_source (opts : opts) ~(src : string) (gk : Gen.kernel) (l : Gen.launch) :
    (int, failure) result =
  let sel o = List.mem o opts.oracles in
  let checks = ref 0 in
  let tick () = incr checks in
  try
    (* (a) part 1: pp -> reparse roundtrip *)
    if sel "a" then
      guard "a" (fun () ->
          let re = Parse.parse_program src in
          if not (Pp.equal_program gk.Gen.prog re) then
            failf "a" "pp->reparse roundtrip mismatch";
          tick ());
    (* frontend: needed by everything downstream *)
    let m0 = guard "a" (fun () -> Compile.compile_device_only ~name:"fuzz" src) in
    (* (d) on the O0 form *)
    if sel "d" then
      guard "d" (fun () ->
          ksan_errors "d" "O0" m0;
          tick ());
    let m3 =
      guard "a" (fun () ->
          let m = clone_module m0 in
          o3 "a" m;
          m)
    in
    (* (d) on the O3 form: verifier + KernelSan *)
    if sel "d" then
      guard "d" (fun () ->
          Verify.verify_module m3;
          ksan_errors "d" "O3" m3;
          tick ());
    let need_interp = sel "a" || sel "b" || sel "c" || sel "e" in
    let snap0 = if need_interp then guard "a" (fun () -> interp_run m0 gk l) else "" in
    (* (a) part 2: O0 vs O3 under the interpreter *)
    if sel "a" then
      guard "a" (fun () ->
          let snap3 = interp_run m3 gk l in
          if snap0 <> snap3 then
            failf "a" "O0 vs O3 interpretation: %s" (snap_diff snap0 snap3);
          tick ());
    (* (b): interpreter vs the reference interpreter vs the executor,
       serial and multicore, with PerfLint's site profile armed (an
       armed launch runs serially, so the multicore schedule also runs
       once unarmed) *)
    if sel "b" then
      guard "b" (fun () ->
          let obj = amd_obj m3 in
          let mk = Mach.find_kernel obj gk.Gen.sym in
          let sr, cr, dr, pr = machine_run ~profile:true Reference mk gk l in
          let st, ct, dt, pt = machine_run ~profile:true Threaded mk gk l in
          let sm, cm, dm, pm = machine_run ~profile:true Multicore mk gk l in
          let sp, cp, dp, _ = machine_run Multicore mk gk l in
          if sr <> snap0 then
            failf "b" "reference engine vs interpreter: %s" (snap_diff sr snap0);
          tick ();
          List.iter
            (fun (nm, s, c, d, p) ->
              if s <> sr then
                failf "b" "%s engine memory vs reference: %s" nm (snap_diff s sr);
              if c <> cr then failf "b" "%s engine counters differ from reference" nm;
              if d <> dr then
                failf "b" "%s engine simulated time differs from reference" nm;
              (match p with
              | Some p when p <> pr ->
                  failf "b" "%s engine site profile differs from reference" nm
              | _ -> ());
              tick ())
            [
              ("threaded", st, ct, dt, Some pt);
              ("multicore", sm, cm, dm, Some pm);
              ("parallel multicore", sp, cp, dp, None);
            ])
    else ignore (engine_name Reference);
    (* (c): specialized vs unspecialized execution *)
    if sel "c" then
      guard "c" (fun () ->
          let rig = make_rig gk l in
          let ms =
            clone_module (Proteus_core.Extract.extract_kernel m0 gk.Gen.sym)
          in
          let spec_values =
            List.map (fun i -> (i, rig.args.(i - 1))) gk.Gen.spec_args
          in
          let config =
            {
              Proteus_core.Config.default with
              Proteus_core.Config.enable_rcf = true;
              enable_lb = true;
            }
          in
          Proteus_core.Specialize.apply config ms ~kernel:gk.Gen.sym ~spec_values
            ~block:l.Gen.block ~resolve_global:(global_of rig);
          let corrupt =
            Proteus_core.Fault.fires opts.faults Proteus_core.Fault.Specialize_corrupt
          in
          if corrupt then Proteus_core.Jit.corrupt_ir ms ~sym:gk.Gen.sym;
          o3 "c" ms;
          (* (d) on the specialized form - skipped when deliberately
             corrupted, so the execution comparison does the catching *)
          if sel "d" && not corrupt then begin
            Verify.verify_module ms;
            ksan_errors "d" "specialized" ms;
            tick ()
          end;
          let obj = amd_obj ms in
          let mk = Mach.find_kernel obj gk.Gen.sym in
          let dev = Device.mi250x in
          let l2 = L2cache.create dev in
          ignore
            (Exec.launch ~domains:1 ~device:dev ~mem:rig.mem ~l2
               ~symbols:(global_of rig) mk ~grid:l.Gen.grid ~block:l.Gen.block
               ~args:rig.args);
          let snapc = snapshot rig in
          if snapc <> snap0 then
            failf "c" "specialized vs unspecialized outputs: %s" (snap_diff snapc snap0);
          tick ());
    (* (e): SpecAdvisor determinism + advise-policy execution equality *)
    if sel "e" then
      guard "e" (fun () ->
          let module Sa = Proteus_analysis.Specadvisor in
          let me = Proteus_core.Extract.extract_kernel m0 gk.Gen.sym in
          let advise () = Sa.advise_kernel (clone_module me) gk.Gen.sym in
          let ki1 = advise () and ki2 = advise () in
          (match (ki1, ki2) with
          | Some k1, Some k2 ->
              let s1 = Sa.signature k1 and s2 = Sa.signature k2 in
              if s1 <> s2 then
                failf "e" "advisor nondeterministic: %s vs %s" s1 s2
          | None, None -> failf "e" "advisor found no kernel %s" gk.Gen.sym
          | _ -> failf "e" "advisor nondeterministic: report presence differs");
          tick ();
          let recommended =
            match ki1 with Some k -> Sa.recommended_args k | None -> []
          in
          let rig = make_rig gk l in
          let ms = clone_module me in
          let spec_values =
            List.map (fun i -> (i, rig.args.(i - 1))) gk.Gen.spec_args
          in
          let keep, skipped =
            Proteus_core.Speckey.apply_policy ~policy:Proteus_core.Config.Spec_advise
              ~recommended spec_values
          in
          if List.length keep + skipped <> List.length spec_values then
            failf "e" "policy lost arguments: kept %d + skipped %d of %d"
              (List.length keep) skipped (List.length spec_values);
          let config =
            {
              Proteus_core.Config.default with
              Proteus_core.Config.enable_rcf = true;
              enable_lb = true;
            }
          in
          Proteus_core.Specialize.apply config ms ~kernel:gk.Gen.sym ~spec_values:keep
            ~block:l.Gen.block ~resolve_global:(global_of rig);
          o3 "e" ms;
          let obj = amd_obj ms in
          let mk = Mach.find_kernel obj gk.Gen.sym in
          let dev = Device.mi250x in
          let l2 = L2cache.create dev in
          ignore
            (Exec.launch ~domains:1 ~device:dev ~mem:rig.mem ~l2
               ~symbols:(global_of rig) mk ~grid:l.Gen.grid ~block:l.Gen.block
               ~args:rig.args);
          let snape = snapshot rig in
          if snape <> snap0 then
            failf "e" "advise-policy vs unspecialized outputs (%d of %d args keyed): %s"
              (List.length keep) (List.length spec_values) (snap_diff snape snap0);
          tick ());
    (* (f): static perf model vs measured per-site transactions *)
    if sel "f" then
      guard "f" (fun () ->
          let module Pl = Proteus_analysis.Perflint in
          let m = clone_module m0 in
          o3 "f" m;
          let sites = Pl.classify_module m in
          let obj = amd_obj m in
          let mk = Mach.find_kernel obj gk.Gen.sym in
          let rig = make_rig gk l in
          let dev = Device.mi250x in
          let l2 = L2cache.create dev in
          let tbl = Counters.create_sites () in
          Counters.site_profile := Some tbl;
          Fun.protect
            ~finally:(fun () -> Counters.site_profile := None)
            (fun () ->
              ignore
                (Exec.launch ~domains:1 ~device:dev
                   ~mem:rig.mem ~l2 ~symbols:(global_of rig) mk
                   ~grid:l.Gen.grid ~block:l.Gen.block ~args:rig.args));
          let line = dev.Device.l2_line in
          List.iter
            (fun (ss : Pl.static_site) ->
              match (ss.Pl.ss_class, ss.Pl.ss_space) with
              | Pl.Coalesced, Pl.Sp_global -> (
                  match
                    Hashtbl.find_opt tbl
                      { Counters.sk_sym = ss.Pl.ss_sym;
                        sk_block = ss.Pl.ss_block; sk_ord = ss.Pl.ss_ord;
                        sk_kind = ss.Pl.ss_kind }
                  with
                  | Some st when st.Counters.s_full_issues > 0 ->
                      let fi = st.Counters.s_full_issues in
                      let lanes = st.Counters.s_full_lanes / fi in
                      let r =
                        float_of_int st.Counters.s_full_lines /. float_of_int fi
                      in
                      (* strided-2w line count plus one line of base
                         misalignment slack: the ceiling any truly
                         coalesced access can reach *)
                      let bound =
                        Pl.ceil_div (lanes * 2 * ss.Pl.ss_width) line + 1
                      in
                      if r > float_of_int bound +. 1e-9 then
                        failf "f"
                          "static-coalesced site %s/%%%s#%d measures %.2f \
                           lines/issue over %d full-mask issues (bound %d, \
                           width %d)"
                          ss.Pl.ss_sym ss.Pl.ss_block ss.Pl.ss_ord r fi bound
                          ss.Pl.ss_width
                  | _ -> ())
              | _ -> ())
            sites;
          tick ());
    (* (g): tier-up mid-stream is bit-identical. Replay the same
       multi-launch stream on fresh (deterministically identical) rigs,
       hot-swapping from the tier-0 artifact (O3, unspecialized - what
       the AOT binary carries) to the specialized O3 artifact after k
       launches; every switch point must produce the same final memory
       as the streams that never switch. *)
    if sel "g" then
      guard "g" (fun () ->
          let rounds = 3 in
          let stream switch_at =
            let rig = make_rig gk l in
            (* tier-0: the unspecialized artifact *)
            let mk0 = Mach.find_kernel (amd_obj (clone_module m3)) gk.Gen.sym in
            (* tier-1: specialized on this stream's argument values,
               exactly the object the background compile would publish *)
            let ms =
              clone_module (Proteus_core.Extract.extract_kernel m0 gk.Gen.sym)
            in
            let spec_values =
              List.map (fun i -> (i, rig.args.(i - 1))) gk.Gen.spec_args
            in
            let config =
              {
                Proteus_core.Config.default with
                Proteus_core.Config.enable_rcf = true;
                enable_lb = true;
              }
            in
            Proteus_core.Specialize.apply config ms ~kernel:gk.Gen.sym ~spec_values
              ~block:l.Gen.block ~resolve_global:(global_of rig);
            o3 "g" ms;
            let mk1 = Mach.find_kernel (amd_obj ms) gk.Gen.sym in
            let dev = Device.mi250x in
            let l2 = L2cache.create dev in
            for r = 0 to rounds - 1 do
              let mk = if r < switch_at then mk0 else mk1 in
              ignore
                (Exec.launch ~domains:1 ~device:dev ~mem:rig.mem
                   ~l2 ~symbols:(global_of rig) mk ~grid:l.Gen.grid
                   ~block:l.Gen.block ~args:rig.args)
            done;
            snapshot rig
          in
          let all_spec = stream 0 in
          let all_aot = stream rounds in
          if all_aot <> all_spec then
            failf "g" "all-tier-0 vs all-specialized streams: %s"
              (snap_diff all_aot all_spec);
          tick ();
          for k = 1 to rounds - 1 do
            let mixed = stream k in
            if mixed <> all_aot then
              failf "g" "tier-up after launch %d of %d diverges: %s" k rounds
                (snap_diff mixed all_aot);
            tick ()
          done);
    (* (h): translation-validation soundness. TransVal must never
       refute the trusted O3 pipeline; a pair it *proves* equivalent
       must be bit-identical under the differential executors; and an
       armed specialize-corrupt fault must be statically refuted with
       source provenance - before any execution - unless the damage
       happens to be semantics-preserving, in which case a proof is
       only accepted if execution confirms it. *)
    if sel "h" then
      guard "h" (fun () ->
          let module Tv = Proteus_analysis.Transval in
          (match Tv.check_kernel ~reference:m0 ~candidate:m3 gk.Gen.sym with
          | Tv.Refuted fd ->
              failf "h" "TransVal refuted the trusted O3 pipeline: %s"
                (Proteus_analysis.Finding.to_string fd)
          | Tv.Proven ->
              let s0 = interp_run m0 gk l and s3 = interp_run m3 gk l in
              if s0 <> s3 then
                failf "h" "proven O0/O3 pair executes differently: %s"
                  (snap_diff s0 s3)
          | Tv.Unproven _ -> ());
          tick ();
          if
            Proteus_core.Fault.fires opts.faults
              Proteus_core.Fault.Specialize_corrupt
          then begin
            (* mirror the JIT's verify-level-2 gate: reference compiled
               with debug markers so a refutation carries file:line:col
               provenance, candidate specialized then corrupted *)
            let mdbg =
              Compile.compile_device_only ~name:"fuzz" ~debug:true src
            in
            let mref = Proteus_core.Extract.extract_kernel mdbg gk.Gen.sym in
            let rig = make_rig gk l in
            let ms = clone_module mref in
            let spec_values =
              List.map (fun i -> (i, rig.args.(i - 1))) gk.Gen.spec_args
            in
            let config =
              {
                Proteus_core.Config.default with
                Proteus_core.Config.enable_rcf = true;
                enable_lb = true;
              }
            in
            Proteus_core.Specialize.apply config ms ~kernel:gk.Gen.sym
              ~spec_values ~block:l.Gen.block ~resolve_global:(global_of rig);
            Proteus_core.Jit.corrupt_ir ms ~sym:gk.Gen.sym;
            let subst =
              {
                Tv.sub_params = List.map (fun (i, k) -> (i - 1, k)) spec_values;
                sub_globals =
                  List.filter_map
                    (fun (g : Ir.gvar) ->
                      if g.Ir.gextern then
                        Some (g.Ir.gname, global_of rig g.Ir.gname)
                      else None)
                    mref.Ir.globals;
              }
            in
            (match Tv.check_kernel ~subst ~reference:mref ~candidate:ms gk.Gen.sym with
            | Tv.Refuted fd ->
                if fd.Proteus_analysis.Finding.loc = None then
                  failf "h" "corruption refuted without source provenance: %s"
                    fd.Proteus_analysis.Finding.message
            | Tv.Proven ->
                (* semantics-preserving damage (a dropped duplicate phi
                   edge) may legitimately prove; execution must agree *)
                o3 "h" ms;
                let obj = amd_obj ms in
                let mk = Mach.find_kernel obj gk.Gen.sym in
                let dev = Device.mi250x in
                let l2 = L2cache.create dev in
                ignore
                  (Exec.launch ~domains:1 ~device:dev
                     ~mem:rig.mem ~l2 ~symbols:(global_of rig) mk
                     ~grid:l.Gen.grid ~block:l.Gen.block ~args:rig.args);
                let snapc = snapshot rig in
                let s0 = interp_run m0 gk l in
                if snapc <> s0 then
                  failf "h"
                    "TransVal proved a corrupted kernel that executes \
                     differently: %s"
                    (snap_diff snapc s0)
            | Tv.Unproven _ ->
                (* incompleteness, not unsoundness: the strict gate
                   rejects unproven compiles, so nothing corrupt ships *)
                ());
            tick ()
          end);
    Ok !checks
  with Fail f -> Error f

let run (opts : opts) (gk : Gen.kernel) (l : Gen.launch) : (int, failure) result =
  match Pp.program_to_string gk.Gen.prog with
  | src -> run_source opts ~src gk l
  | exception e ->
      Error { oracle = "a"; detail = "pretty-printer: " ^ Printexc.to_string e }
