(* Per-layer measurement for the traced run. Layers the benchmark cannot
   time from outside a call (the compile pipeline inside Jit.launch, the
   executor under it, the key hash and cache lookup) are re-run in
   isolation on the inputs the run captured, after the op they belong
   to, and timed call by call. *)

open Proteus_ir
open Proteus_backend
open Proteus_gpu
open Proteus_runtime
open Proteus_core

(* Running sums and counts per metric name; most layer metrics are
   means over the events that reached the layer. *)
module Acc = struct
  type t = (string, float * int) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add_n (t : t) name (sum : float) (n : int) =
    let s, c = Option.value (Hashtbl.find_opt t name) ~default:(0.0, 0) in
    Hashtbl.replace t name (s +. sum, c + n)

  let add t name v = add_n t name v 1
  let sum (t : t) name = match Hashtbl.find_opt t name with Some (s, _) -> s | None -> 0.0

  let mean (t : t) name =
    match Hashtbl.find_opt t name with
    | Some (s, n) when n > 0 -> Some (s /. float_of_int n)
    | _ -> None
end

type t = {
  acc : Acc.t;
  mutable launch_self_us : float list; (* hit launch span minus its executor replay *)
  mutable replay_mismatches : int; (* replayed compiles whose code differs from the cached code *)
  mutable replay_ns : int64; (* wall time spent replaying inside timed phases *)
  trace : Trace.t;
}

let create () =
  { acc = Acc.create (); launch_self_us = []; replay_mismatches = 0; replay_ns = 0L;
    trace = Trace.create () }

let us ns = Int64.to_float ns /. 1e3

(* One JIT launch as the host hook (or the serve loop) issued it. *)
type launch = {
  mid : string;
  sym : string;
  grid : int;
  block : int;
  args : Konst.t array;
  spec : (int * Konst.t) list;
  key : Speckey.t;
}

(* The specialization values and key Jit.jit_launch derives from a
   launch, through the JIT's own policy filter. Should the two
   derivations drift apart, replay_compile finds no cached entry for a
   key that just compiled and fails the run. *)
let launch (jit : Jit.t) ~mid ~sym ~grid ~block ~args ~mask : launch =
  let c = jit.Jit.config in
  let annotated =
    List.filter_map
      (fun i -> if i <= Array.length args then Some (i, args.(i - 1)) else None)
      (Annotate.args_of_mask mask)
  in
  let spec =
    if c.Config.enable_rcf then Jit.policy_spec_values jit ~mid ~sym annotated else annotated
  in
  { mid; sym; grid; block; args; spec;
    key =
      Speckey.compute ~mid ~sym
        ~spec_values:(if c.Config.enable_rcf then spec else [])
        ~launch_bounds:(if c.Config.enable_lb then Some block else None) }

(* ---- executor ---------------------------------------------------- *)

(* Device memory as it was before a launch, for replaying the launch's
   executor run without disturbing the program's own memory. *)
let snapshot (m : Gmem.t) : Gmem.t = { m with Gmem.data = Bytes.copy m.Gmem.data }

(* Run [l]'s cached machine code once more on [mem] through a private
   copy of [rt] (own L2, clock and profile list, so the program's
   simulated counters do not see the replay) and return its wall time. *)
let replay_exec (rt : Gpurt.ctx) (mem : Gmem.t) (e : Cachestore.entry) (l : launch) :
    int64 =
  let k = Mach.find_kernel e.Cachestore.obj l.sym in
  let tcode = List.assoc_opt l.sym e.Cachestore.tcodes in
  let ctx =
    { rt with Gpurt.mem; l2 = L2cache.create rt.Gpurt.device; clock = Clock.create ();
      profiles = []; launches = 0; tcodes = Hashtbl.create 1 }
  in
  let t0 = Trace.now () in
  Gpurt.launch_mfunc ctx ?tcode k ~grid:l.grid ~block:l.block ~args:l.args;
  Trace.since t0

(* ---- one launch, observed from outside ---------------------------- *)

type obs = {
  t0 : int64;
  span : int64;
  miss : bool;
  compile_s : float; (* Stats.real_compile_s moved by this much *)
  warp_instrs : int; (* retired by the executor runs the launch made *)
  fallbacks : int; (* launches that fell back to the AOT kernel *)
  quarantined : int; (* launches quarantine sent to the AOT kernel *)
}

let warp_instrs_of (rt : Gpurt.ctx) (n : int) =
  let rec go acc n = function
    | (p : Gpurt.profile) :: rest when n > 0 ->
        go (acc + p.Gpurt.pcounters.Counters.warp_instrs) (n - 1) rest
    | _ -> acc
  in
  go 0 n rt.Gpurt.profiles

(* Time one JIT launch and read the counters it moved. *)
let observe (jit : Jit.t) (f : unit -> 'a) : 'a * obs =
  let s = jit.Jit.stats and rt = jit.Jit.rt in
  let c0 = s.Stats.compiles and rc0 = s.Stats.real_compile_s
  and fb0 = s.Stats.fallbacks and q0 = s.Stats.quarantined_launches
  and l0 = rt.Gpurt.launches in
  let t0 = Trace.now () in
  let r = f () in
  let span = Trace.since t0 in
  ( r,
    {
      t0;
      span;
      miss =
        Pbstats.classify ~compiles_before:c0 ~compiles_after:s.Stats.compiles
        = Pbstats.Miss;
      compile_s = s.Stats.real_compile_s -. rc0;
      warp_instrs = warp_instrs_of rt (rt.Gpurt.launches - l0);
      fallbacks = s.Stats.fallbacks - fb0;
      quarantined = s.Stats.quarantined_launches - q0;
    } )

(* Run [f] as replay work: its wall time is kept out of the timed phase. *)
let replaying (lt : t) (f : unit -> 'a) : 'a =
  let t0 = Trace.now () in
  Fun.protect ~finally:(fun () -> lt.replay_ns <- Int64.add lt.replay_ns (Trace.since t0)) f

(* Before a launch the cache will serve: keep its device memory so the
   executor run can be replayed afterwards. *)
let snapshot_if_hit (lt : t) (jit : Jit.t) (l : launch) : Gmem.t option =
  match Cachestore.peek_mem jit.Jit.cache l.key with
  | Some _ -> Some (replaying lt (fun () -> snapshot jit.Jit.rt.Gpurt.mem))
  | None -> None

(* Record a launch's spans and executor numbers. The compile child is
   derived, not measured where it ran: it starts with the launch and
   lasts as long as Stats.real_compile_s moved. *)
let after_launch (lt : t) ~op ~name (jit : Jit.t) (o : obs) (l : launch)
    (snap : Gmem.t option) : unit =
  Trace.add lt.trace ~op name o.t0 (Int64.add o.t0 o.span);
  if o.miss then begin
    Trace.add lt.trace ~op "jit.compile" o.t0
      (Int64.add o.t0 (Int64.of_float (o.compile_s *. 1e9)));
    Acc.add lt.acc "jit.compile_ms" (o.compile_s *. 1e3)
  end;
  Acc.add lt.acc "exec.ns" (Int64.to_float o.span -. (o.compile_s *. 1e9));
  Acc.add lt.acc "exec.warp_instrs" (float_of_int o.warp_instrs);
  match (snap, Cachestore.peek_mem jit.Jit.cache l.key) with
  | Some mem, Some e ->
      replaying lt (fun () ->
          let t = Trace.now () in
          let ns = replay_exec jit.Jit.rt mem e l in
          Trace.add lt.trace ~op ~lane:1 "exec.replay" t (Int64.add t ns);
          lt.launch_self_us <- us (Int64.sub o.span ns) :: lt.launch_self_us)
  | _ -> ()

(* ---- compile pipeline -------------------------------------------- *)

(* Re-run the compile Jit.compile_specialization did for [l], stage by
   stage, plus the threaded-code decode its first launch did, as spans
   of op [op]. Call it while the compiled entry is still cached: a
   replay whose machine code differs from the entry's, or that finds no
   entry under [l]'s key, counts as a mismatch, since it was not the
   same compile. *)
let replay_compile (lt : t) ~op (jit : Jit.t) (l : launch) : unit =
  replaying lt @@ fun () ->
  let timed name f =
    let t0 = Trace.now () in
    let r = f () in
    let t1 = Trace.now () in
    Trace.add lt.trace ~op ~lane:1 name t0 t1;
    Acc.add lt.acc name (us (Int64.sub t1 t0));
    r
  in
  let bitcode = Jit.fetch_bitcode jit l.sym in
  let m = timed "ir.decode_us" (fun () -> Bitcode.decode_module bitcode) in
  timed "proteus.specialize_us" (fun () ->
      Specialize.apply jit.Jit.config m ~kernel:l.sym ~spec_values:l.spec ~block:l.block
        ~resolve_global:(Jit.resolve_global jit));
  let ps = timed "opt.o3_us" (fun () -> Proteus_opt.Pipeline.optimize_o3 m) in
  Acc.add lt.acc "opt.work" (float_of_int ps.Proteus_opt.Pass.work);
  let kernels =
    match jit.Jit.vendor with
    | Device.Amd ->
        [ timed "backend.codegen_us" (fun () -> Gcn.lower_kernel m (Ir.find_func m l.sym)) ]
    | Device.Nvidia ->
        let ptx = timed "backend.ptx_emit_us" (fun () -> Ptx.emit m) in
        (timed "backend.ptxas_us" (fun () -> Ptxas.compile ~globals:[] ptx)).Mach.kernels
  in
  let total f = float_of_int (List.fold_left (fun acc k -> acc + f k) 0 kernels) in
  Acc.add lt.acc "backend.mach_instrs" (total Mach.instr_count);
  Acc.add lt.acc "backend.spill_slots" (total (fun k -> k.Mach.spill_slots));
  let k = List.find (fun k -> k.Mach.sym = l.sym) kernels in
  (try ignore (timed "gpu.tcode_decode_us" (fun () -> Tcode.decode k))
   with Tcode.Decode_error _ -> ());
  let code k =
    let w = Mach.W.create () in
    Mach.encode_mfunc w k;
    Buffer.contents w
  in
  let same =
    match Cachestore.peek_mem jit.Jit.cache l.key with
    | Some e -> (
        match Mach.find_kernel_opt e.Cachestore.obj l.sym with
        | Some cached -> code cached = code k
        | None -> false)
    | None -> false
  in
  if not same then lt.replay_mismatches <- lt.replay_mismatches + 1

(* ---- key hash and cache lookup ----------------------------------- *)

(* Replay the warm-path bookkeeping of [ls]: the key hash and its
   string form, then the memory-tier lookup against the store the run
   used. Lookups touch the store's LRU clock and counters, so this runs
   only after the run has read them. *)
let replay_key_path (lt : t) ?owner (store : Cachestore.t) (ls : launch list) : unit =
  let n = List.length ls in
  if n > 0 then
    replaying lt @@ fun () ->
    let t0 = Trace.now () in
    List.iter
      (fun l ->
        ignore
          (Sys.opaque_identity
             (Speckey.to_string
                (Speckey.compute ~mid:l.mid ~sym:l.sym ~spec_values:l.spec
                   ~launch_bounds:(Some l.block)))))
      ls;
    Acc.add_n lt.acc "proteus.speckey_ns" (Int64.to_float (Trace.since t0)) n;
    let t0 = Trace.now () in
    List.iter (fun l -> ignore (Sys.opaque_identity (Cachestore.lookup ?owner store l.key))) ls;
    Acc.add_n lt.acc "proteus.cachestore_lookup_ns" (Int64.to_float (Trace.since t0)) n
