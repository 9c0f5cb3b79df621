(* Multi-tenant JIT service (ROADMAP #1): N simulated client sessions
   submitting launches to one shared runtime.

   What is shared and what is not:
   - ONE content-addressed Cachestore serves every tenant, and its
     compile-once wait dedups their compiles. Cache keys are derived from
     [Speckey.content_mid] (a hash of the kernel's device IR bytes and
     the backend) rather than a client-chosen module name, so two
     tenants submitting byte-identical device IR dedup onto one
     compile and one cache entry, while the store's per-entry [owner]
     and Config.tenant_quota keep any one tenant from pinning the
     whole shared memory tier.
   - Each tenant gets its OWN Jit.t, Gpurt context (device memory +
     simulated clock), Stats ledger, fault set and quarantine table.
     Quarantine keys are tenant-scoped (see Jit.qkey), so a poisoned
     kernel in tenant A degrades A to its AOT path and leaves an
     identical kernel in tenant B untouched.

   Concurrency: [run_sharded] assigns tenants to domains
   round-robin (tenant i -> shard i mod domains) and runs the shards
   on the shared domain pool. A tenant's launches always execute on
   exactly one shard in schedule order, so per-tenant output is
   deterministic; cross-tenant interleaving only changes who wins a
   compile race, never what the artifact contains — which is why a
   concurrent run's outputs are bit-identical to a serial
   single-tenant replay ([replay_output]). Tenant contexts pin
   exec_domains = 1: a serve session occupies one domain, and kernel
   execution must not re-enter the pool it is running on.

   The kernel family is built directly in IR (no frontend dependency):
   K saxpy-like integer kernels

     serve_k<j>(a : i64, x : i64*, y : i64*, n : i32):
       i = ctaid.x * ntid.x + tid.x
       if i < n then y[i] <- y[i] + a * x[i] + j

   differing in the constant j, so every kernel has a distinct output
   signature and a distinct content address. Argument 1 (a) is the
   specialization argument (RCF folds it; its value is part of the
   cache key). *)

open Proteus_support
open Proteus_ir
open Proteus_backend
open Proteus_gpu
open Proteus_runtime

type kernel_spec = {
  ks_sym : string;
  ks_mid : string; (* content address: hash(device IR, backend) *)
  ks_a : int64; (* specialized argument value for this kernel *)
}

type tenant = {
  tn_name : string;
  tn_index : int;
  tn_rt : Gpurt.ctx;
  tn_jit : Jit.t;
  tn_x : int64; (* device buffer of n i64, read-only input *)
  tn_y : int64; (* device buffer of n i64, accumulated output *)
  mutable tn_launches : int;
}

type t = {
  sv_store : Cachestore.t;
  sv_kernels : kernel_spec array;
  sv_tenants : tenant array;
  sv_n : int;
  sv_block : int;
  sv_grid : int;
}

let default_names tenants = List.init tenants (fun i -> Printf.sprintf "T%d" i)

(* ---- kernel family ----------------------------------------------- *)

let kernel_sym j = Printf.sprintf "serve_k%d" j

(* Build one device kernel of the family in IR. *)
let build_kernel (j : int) : Ir.func =
  let f =
    Ir.create_func ~kind:Ir.Kernel (kernel_sym j)
      [
        ("a", Types.i64);
        ("x", Types.ptr Types.i64);
        ("y", Types.ptr Types.i64);
        ("n", Types.i32);
      ]
      Types.TVoid
  in
  let b = Builder.create f in
  let parg i = Ir.Reg (snd (List.nth f.Ir.params i)) in
  let a = parg 0 and x = parg 1 and y = parg 2 and n = parg 3 in
  let body = Builder.new_block b "body" in
  let exit = Builder.new_block b "exit" in
  let tid = Builder.call b Types.i32 Ir.Intrinsics.tid_x [] in
  let ntid = Builder.call b Types.i32 Ir.Intrinsics.ntid_x [] in
  let ctaid = Builder.call b Types.i32 Ir.Intrinsics.ctaid_x [] in
  let base = Builder.bin b Ops.Mul Types.i32 ctaid ntid in
  let i = Builder.bin b Ops.Add Types.i32 base tid in
  let inb = Builder.cmp b Ops.CLt i n in
  Builder.cond_br b inb body.Ir.label exit.Ir.label;
  Builder.position_at b body;
  let idx = Builder.cast b Ops.Sext i Types.i64 in
  let px = Builder.gep b (Types.ptr Types.i64) x idx in
  let xv = Builder.load b Types.i64 px in
  let py = Builder.gep b (Types.ptr Types.i64) y idx in
  let yv = Builder.load b Types.i64 py in
  let ax = Builder.bin b Ops.Mul Types.i64 a xv in
  let sum = Builder.bin b Ops.Add Types.i64 yv ax in
  let out =
    Builder.bin b Ops.Add Types.i64 sum (Ir.Imm (Konst.ki64 j))
  in
  Builder.store b out py;
  Builder.br b exit.Ir.label;
  Builder.position_at b exit;
  Builder.ret b None;
  f

let build_module (kernels : int) : Ir.modul =
  {
    Ir.mid = "serve";
    mname = "serve";
    mtarget = Ir.TDevice;
    globals = [];
    funcs = List.init kernels build_kernel;
    annotations =
      List.init kernels (fun j ->
          { Ir.afunc = kernel_sym j; akey = "jit"; aargs = [ 1 ] });
    ctors = [];
    mgen = 0;
  }

let backend_name = function Device.Amd -> "amd" | Device.Nvidia -> "nvidia"

(* ---- construction ------------------------------------------------ *)

(* Deterministic initial contents for a tenant's output buffer, a
   function of the tenant NAME (not its slot index): a serial replay
   that recreates the tenant under the same name reproduces the same
   initial state, whatever slot it lands in. *)
let initial_y ~(name : string) ~(i : int) : int64 =
  let h = Util.Fnv.add_string Util.Fnv.offset_basis name in
  let h = Util.Fnv.add_int h i in
  Int64.of_string ("0x" ^ Util.Fnv.to_hex h)

let create ?(config = Config.default) ?(vendor = Device.Amd) ?(tenants = 4)
    ?names ?(kernels = 8) ?(n = 64) ?(block = 32) ?store
    ?(tenant_faults : (string * Fault.plan) list = []) () : t =
  if tenants <= 0 then invalid_arg "Serve.create: tenants must be positive";
  if kernels <= 0 then invalid_arg "Serve.create: kernels must be positive";
  if vendor <> Device.Amd then
    invalid_arg "Serve.create: only the AMD (.jit section) path is wired up";
  let names =
    match names with
    | Some ns ->
        if List.length ns <> tenants then
          invalid_arg "Serve.create: names must match the tenant count";
        ns
    | None -> default_names tenants
  in
  (* a serve session occupies one pool domain: kernel execution must
     stay serial inside it (see module comment) *)
  let config = { config with Config.exec_domains = 1 } in
  let m = build_module kernels in
  let sections =
    List.map
      (fun (f : Ir.func) ->
        (Plugin.jit_section f.Ir.fname, Extract.bitcode_of_kernel m f.Ir.fname))
      m.Ir.funcs
  in
  let obj = { (fst (Toolchain.compile ~vendor m)) with Mach.sections } in
  let specs =
    Array.init kernels (fun j ->
        let bc = List.assoc (Plugin.jit_section (kernel_sym j)) sections in
        {
          ks_sym = kernel_sym j;
          ks_mid = Speckey.content_mid ~device_ir:bc ~backend:(backend_name vendor);
          ks_a = Int64.of_int (j + 2);
        })
  in
  let store =
    match store with
    | Some s -> s
    | None ->
        (* the shared store carries no tenant's fault set: injected
           per-tenant faults fire in that tenant's pipeline only *)
        Cachestore.create ?persistent_dir:config.Config.persistent_dir ~vendor
          ~tenant_quota:config.Config.tenant_quota
          ~lock_timeout_ms:config.Config.lock_timeout_ms ()
  in
  let mk_tenant idx name =
    let rt = Gpurt.create (Device.by_vendor vendor) in
    ignore (Gpurt.load_module rt obj);
    let tcfg =
      match List.assoc_opt name tenant_faults with
      | Some plan -> { config with Config.fault_plan = config.Config.fault_plan @ plan }
      | None -> config
    in
    let jit = Jit.create ~config:tcfg ~cache:store ~tenant:name rt vendor in
    let x = Gpurt.dmalloc rt (n * 8) in
    let y = Gpurt.dmalloc rt (n * 8) in
    for i = 0 to n - 1 do
      Gmem.write_i64 rt.Gpurt.mem
        (Int64.add x (Int64.of_int (i * 8)))
        (Int64.of_int (i + 1));
      Gmem.write_i64 rt.Gpurt.mem
        (Int64.add y (Int64.of_int (i * 8)))
        (initial_y ~name ~i)
    done;
    {
      tn_name = name;
      tn_index = idx;
      tn_rt = rt;
      tn_jit = jit;
      tn_x = x;
      tn_y = y;
      tn_launches = 0;
    }
  in
  {
    sv_store = store;
    sv_kernels = specs;
    sv_tenants = Array.of_list (List.mapi mk_tenant names);
    sv_n = n;
    sv_block = block;
    sv_grid = (n + block - 1) / block;
  }

(* ---- launching --------------------------------------------------- *)

(* already forced: forcing an unforced lazy from several domains at once
   raises CamlinternalLazy.Undefined *)
let spec_mask = Lazy.from_val (Annotate.mask_of_args [ 1 ])

let launch (t : t) ~(tenant : int) ~(kernel : int) : unit =
  let tn = t.sv_tenants.(tenant) in
  let ks = t.sv_kernels.(kernel) in
  Jit.launch tn.tn_jit ~mid:ks.ks_mid ~sym:ks.ks_sym ~grid:t.sv_grid
    ~block:t.sv_block
    ~args:
      [|
        Konst.kint ~bits:64 ks.ks_a;
        Konst.kint ~bits:64 tn.tn_x;
        Konst.kint ~bits:64 tn.tn_y;
        Konst.ki32 t.sv_n;
      |]
    ~spec_mask:(Lazy.force spec_mask);
  tn.tn_launches <- tn.tn_launches + 1

(* Serial service: the whole schedule in order on the calling domain. *)
let run (t : t) (schedule : (int * int) array) : unit =
  Array.iter (fun (tn, k) -> launch t ~tenant:tn ~kernel:k) schedule

(* Concurrent service: tenant i is served by shard (i mod domains);
   each shard walks the full schedule and plays only its tenants'
   launches, preserving per-tenant order. *)
let run_sharded (t : t) ~(domains : int) (schedule : (int * int) array) : unit =
  let domains = max 1 (min domains (Array.length t.sv_tenants)) in
  if domains = 1 then run t schedule
  else
    let pool = Pool.shared ~size:domains in
    Pool.run pool
      (fun shard ->
        Array.iter
          (fun (tn, k) ->
            if tn mod domains = shard then launch t ~tenant:tn ~kernel:k)
          schedule)
      domains

(* Publish any still-pending background tier-up compiles (no-op when
   tiering is off). *)
let finish (t : t) : unit =
  Array.iter (fun tn -> Jit.drain_tier tn.tn_jit) t.sv_tenants

(* ---- observation ------------------------------------------------- *)

(* A tenant's output state as a canonical string: every i64 of its y
   buffer in hex. Two runs served identical code iff these compare
   equal byte for byte. *)
let output (t : t) ~(tenant : int) : string =
  let tn = t.sv_tenants.(tenant) in
  let b = Buffer.create (t.sv_n * 17) in
  for i = 0 to t.sv_n - 1 do
    Buffer.add_string b
      (Printf.sprintf "%Lx " (Gmem.read_i64 tn.tn_rt.Gpurt.mem
                                (Int64.add tn.tn_y (Int64.of_int (i * 8)))))
  done;
  Buffer.contents b

let store (t : t) : Cachestore.t = t.sv_store
let tenant_count (t : t) : int = Array.length t.sv_tenants
let kernel_count (t : t) : int = Array.length t.sv_kernels
let tenant_name (t : t) ~(tenant : int) : string = t.sv_tenants.(tenant).tn_name
let jit (t : t) ~(tenant : int) : Jit.t = t.sv_tenants.(tenant).tn_jit
let stats (t : t) ~(tenant : int) : Stats.t = t.sv_tenants.(tenant).tn_jit.Jit.stats

(* ---- report ------------------------------------------------------ *)

(* Per tenant, only what follows from that tenant's own launch stream.
   Who compiles a kernel two tenants share, and so each tenant's hits,
   compiles, latencies and resident bytes, depends on the domain
   schedule; those appear on the totals row only, where they do not
   (Jit counts a launch served by another launch's compile as a memory
   hit). One exception: under a fault scoped to one tenant, with more
   than one domain, that tenant's fallbacks and quarantined launches
   (and so the totals' hits) depend on how often a healthy tenant
   compiles a shared kernel first and serves it a hit. A healthy
   tenant's own counts never move: a failed compile is not handed on. *)
type tenant_report = {
  tr_tenant : string;
  tr_launches : int;
  tr_fallbacks : int;
  tr_quarantined : int;
}

type total = {
  to_launches : int;
  to_hits : int;
  to_compiles : int;
  to_hit_rate : float;
  to_p50_ms : float;
  to_p99_ms : float;
  to_fallbacks : int;
  to_quarantined : int;
  to_resident_bytes : int;
}

let report (t : t) : tenant_report list =
  Array.to_list t.sv_tenants
  |> List.map (fun tn ->
         let s = tn.tn_jit.Jit.stats in
         {
           tr_tenant = tn.tn_name;
           tr_launches = s.Stats.jit_launches;
           tr_fallbacks = s.Stats.fallbacks;
           tr_quarantined = s.Stats.quarantined_launches;
         })

(* Percentiles come from the merged launch-overhead histograms, not an
   average of percentiles. *)
let total (t : t) : total =
  let merged = Hist.create () in
  Array.iter
    (fun tn -> Hist.merge ~into:merged tn.tn_jit.Jit.stats.Stats.launch_hist)
    t.sv_tenants;
  let sum f = Array.fold_left (fun acc tn -> acc + f (tn.tn_jit.Jit.stats)) 0 t.sv_tenants in
  let launches = sum (fun s -> s.Stats.jit_launches) in
  let hits = sum (fun s -> s.Stats.mem_hits + s.Stats.disk_hits) in
  let ms x = if Float.is_nan x then 0.0 else x *. 1e3 in
  {
    to_launches = launches;
    to_hits = hits;
    to_compiles = sum (fun s -> s.Stats.compiles);
    to_hit_rate =
      (if launches = 0 then 0.0 else float_of_int hits /. float_of_int launches);
    to_p50_ms = ms (Hist.p50 merged);
    to_p99_ms = ms (Hist.p99 merged);
    to_fallbacks = sum (fun s -> s.Stats.fallbacks);
    to_quarantined = sum (fun s -> s.Stats.quarantined_launches);
    to_resident_bytes = Cachestore.mem_size t.sv_store;
  }

let tenant_fields (r : tenant_report) : (string * Json.t) list =
  [
    ("tenant", Json.Str r.tr_tenant);
    ("launches", Json.int r.tr_launches);
    ("fallbacks", Json.int r.tr_fallbacks);
    ("quarantined", Json.int r.tr_quarantined);
  ]

let total_fields (o : total) : (string * Json.t) list =
  [
    ("tenant", Json.Str "total");
    ("launches", Json.int o.to_launches);
    ("hits", Json.int o.to_hits);
    ("compiles", Json.int o.to_compiles);
    ("hit_rate", Json.Num o.to_hit_rate);
    ("p50_ms", Json.Num o.to_p50_ms);
    ("p99_ms", Json.Num o.to_p99_ms);
    ("fallbacks", Json.int o.to_fallbacks);
    ("quarantined", Json.int o.to_quarantined);
    ("resident_bytes", Json.int o.to_resident_bytes);
  ]

(* The report as JSON fields: the totals row, then one row per tenant. *)
let report_json (t : t) : (string * Json.t) list =
  [
    ("total", Json.Obj (total_fields (total t)));
    ("per_tenant", Json.Arr (List.map (fun r -> Json.Obj (tenant_fields r)) (report t)));
  ]

(* The same report as a text table: one column per totals field, "-"
   where a tenant row has no such field. *)
let print_report (t : t) : unit =
  let total_row = total_fields (total t) in
  let rows = List.map tenant_fields (report t) @ [ total_row ] in
  let cols = List.map fst total_row in
  let cell row c =
    match List.assoc_opt c row with
    | Some (Json.Str s) -> s
    | Some v -> Json.to_string v
    | None -> "-"
  in
  let width c = List.fold_left (fun w r -> max w (String.length (cell r c))) (String.length c) rows in
  let line cells =
    print_endline
      (String.concat " "
         (List.mapi
            (fun i (c, s) ->
              if i = 0 then Printf.sprintf "%-*s" (width c) s
              else Printf.sprintf "%*s" (width c) s)
            (List.combine cols cells)))
  in
  line cols;
  List.iter (fun r -> line (List.map (cell r) cols)) rows

(* ---- serial replay ----------------------------------------------- *)

(* Ground truth for the bit-identical check: serve ONE tenant's
   launches serially in a fresh single-tenant universe (fresh private
   store, same tenant name so the initial state matches) and return
   its output. Any divergence from the concurrent run's [output] means
   a shared artifact was wrong for somebody. *)
let replay_output ?(config = Config.default) ?(vendor = Device.Amd) (t : t)
    ~(tenant : int) (schedule : (int * int) array) : string =
  let name = tenant_name t ~tenant in
  let solo =
    create ~config ~vendor ~tenants:1 ~names:[ name ]
      ~kernels:(kernel_count t) ~n:t.sv_n ~block:t.sv_block ()
  in
  Array.iter
    (fun (tn, k) -> if tn = tenant then launch solo ~tenant:0 ~kernel:k)
    schedule;
  finish solo;
  output solo ~tenant:0
