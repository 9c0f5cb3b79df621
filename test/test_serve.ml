(* Multi-tenant JIT service suite (@serve, part of runtest):
   qcheck eviction-invariant properties for the shared
   content-addressed store (byte caps, LRU victim selection against a
   reference model, per-tenant quotas, hit/miss/evict conservation),
   deterministic Zipf workload-generator properties (same seed ->
   identical schedule, skew moves hot-key mass monotonically, schedules
   replay from their JSON dump), and tenant-isolation tests proving an
   armed specialize-corrupt fault in tenant A quarantines A only while
   tenant B's service level and outputs are untouched. *)

open Proteus_backend
open Proteus_core
open Proteus_fuzz

let check = Alcotest.check

(* Deterministic qcheck seeding, same contract as the main suite's
   Qseed (that module belongs to the other test stanza): fixed seed by
   default, PROTEUS_QCHECK_SEED to rotate or replay. *)
let qseed =
  match Sys.getenv_opt "PROTEUS_QCHECK_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None ->
          Printf.eprintf "PROTEUS_QCHECK_SEED=%S is not an integer\n%!" s;
          exit 2)
  | None -> 0x5eed

let qtest cell =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qseed |]) cell
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.eprintf
          "[qcheck] %s failed under seed %d (replay with PROTEUS_QCHECK_SEED=%d)\n%!"
          name qseed qseed;
        raise e )

let tmpdir () =
  let d = Filename.temp_file "proteus-serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* ---- cache-eviction properties ----------------------------------- *)

(* Objects of a few distinct sizes so eviction decisions depend on
   byte accounting, not just entry counts. *)
let obj_of ~(size_sel : int) ~(stamp : int) : Mach.obj =
  {
    Mach.okind = Mach.VGcn;
    kernels = [];
    oglobals = [];
    sections =
      [ ("s", Printf.sprintf "%06d-%s" stamp (String.make (40 + (64 * size_sel)) 'x')) ];
  }

let entry_bytes o = String.length (Mach.encode_obj o)

let spec_key i =
  Speckey.compute ~mid:"m" ~sym:(Printf.sprintf "k%d" i) ~spec_values:[]
    ~launch_bounds:None

let owner_name i = Printf.sprintf "T%d" i

(* One service-facing operation against the store: an insert (a tenant
   publishing a freshly compiled artifact) or a lookup (a launch
   probing for one). *)
type op = Insert of int * int * int (* owner, key, size selector *) | Lookup of int * int

let op_gen =
  QCheck.Gen.(
    map
      (fun (ins, owner, key, sel) ->
        if ins then Insert (owner, key, sel) else Lookup (owner, key))
      (quad bool (int_bound 2) (int_bound 9) (int_bound 3)))

let op_print = function
  | Insert (o, k, s) -> Printf.sprintf "insert(T%d,k%d,#%d)" o k s
  | Lookup (o, k) -> Printf.sprintf "lookup(T%d,k%d)" o k

let ops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map op_print l))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* Reference model of the memory tier: an assoc list of
   key -> (owner, bytes, last_used), with the store's documented
   eviction order (tenant quota first, then the global cap; LRU victim
   within each; the newest entry — globally or per owner — is never
   evicted). Model and store must agree on the exact resident set,
   both byte ledgers and all counters after every operation. *)
type model = {
  mutable entries : (string * (string * int * int)) list;
  mutable mtick : int;
  mutable ev_mem : int;
  mutable ev_quota : int;
  mutable hits : int;
  mutable missed : int;
}

let model_total m = List.fold_left (fun a (_, (_, b, _)) -> a + b) 0 m.entries

let model_owner_bytes m o =
  List.fold_left (fun a (_, (ow, b, _)) -> if ow = o then a + b else a) 0 m.entries

let model_owner_count m o =
  List.fold_left (fun a (_, (ow, _, _)) -> if ow = o then a + 1 else a) 0 m.entries

let model_evict_lru m ~(only : string option) =
  let victim =
    List.fold_left
      (fun acc (k, (ow, _, lu)) ->
        if (match only with Some o -> ow <> o | None -> false) then acc
        else
          match acc with
          | Some (_, lu') when lu' <= lu -> acc
          | _ -> Some (k, lu))
      None m.entries
  in
  match victim with
  | Some (k, _) -> m.entries <- List.remove_assoc k m.entries
  | None -> assert false

let model_apply m ~quota ~cap op =
  match op with
  | Insert (oi, ki, sel) ->
      let o = owner_name oi and k = Speckey.to_string (spec_key ki) in
      let bytes = entry_bytes (obj_of ~size_sel:sel ~stamp:ki) in
      m.mtick <- m.mtick + 1;
      m.entries <- (k, (o, bytes, m.mtick)) :: List.remove_assoc k m.entries;
      if quota > 0 then
        while model_owner_bytes m o > quota && model_owner_count m o > 1 do
          m.ev_quota <- m.ev_quota + 1;
          model_evict_lru m ~only:(Some o)
        done;
      if cap > 0 then
        while model_total m > cap && List.length m.entries > 1 do
          m.ev_mem <- m.ev_mem + 1;
          model_evict_lru m ~only:None
        done
  | Lookup (_, ki) -> (
      let k = Speckey.to_string (spec_key ki) in
      match List.assoc_opt k m.entries with
      | Some (o, b, _) ->
          m.mtick <- m.mtick + 1;
          m.hits <- m.hits + 1;
          m.entries <- (k, (o, b, m.mtick)) :: List.remove_assoc k m.entries
      | None -> m.missed <- m.missed + 1)

let store_apply c op =
  match op with
  | Insert (oi, ki, sel) ->
      ignore
        (Cachestore.insert ~owner:(owner_name oi) c (spec_key ki)
           (obj_of ~size_sel:sel ~stamp:ki))
  | Lookup (oi, ki) ->
      ignore (Cachestore.lookup ~owner:(owner_name oi) c (spec_key ki))

let resident_keys c =
  Hashtbl.fold (fun k _ acc -> k :: acc) c.Cachestore.mem [] |> List.sort compare

let run_stream ~quota ~cap ops =
  let c = Cachestore.create ~mem_limit:cap ~tenant_quota:quota () in
  let m =
    { entries = []; mtick = 0; ev_mem = 0; ev_quota = 0; hits = 0; missed = 0 }
  in
  List.iter
    (fun op ->
      store_apply c op;
      model_apply m ~quota ~cap op)
    ops;
  (c, m)

let probe = entry_bytes (obj_of ~size_sel:1 ~stamp:0)

(* P1: the memory tier's byte total never exceeds the cap (except the
   documented single-entry escape: one oversized artifact stays
   resident rather than making the key uncacheable). *)
let prop_mem_cap =
  QCheck.Test.make ~name:"mem tier bytes never exceed the cap" ~count:200 ops_arb
    (fun ops ->
      let cap = probe * 3 in
      let c = Cachestore.create ~mem_limit:cap () in
      List.for_all
        (fun op ->
          store_apply c op;
          Cachestore.mem_size c <= cap || Hashtbl.length c.Cachestore.mem <= 1)
        ops)

(* P2: the disk tier's byte total never exceeds its cap — with no
   single-entry escape: the newest file is itself evictable, so the
   bound is unconditional. *)
let prop_disk_cap =
  QCheck.Test.make ~name:"disk tier bytes never exceed the cap" ~count:20
    ops_arb (fun ops ->
      let dir = tmpdir () in
      let cap = probe * 2 in
      let c = Cachestore.create ~persistent_dir:dir ~disk_limit:cap () in
      let ok =
        List.for_all
          (fun op ->
            store_apply c op;
            Cachestore.persistent_size c <= cap)
          ops
      in
      rm_rf dir;
      ok)

(* P3: eviction picks the least-recently-hit entry — the store's
   resident set, both byte ledgers and the eviction counters match an
   independently coded LRU model after every operation. *)
let prop_lru_model =
  QCheck.Test.make ~name:"LRU victim is least-recently-hit (model equivalence)"
    ~count:200 ops_arb (fun ops ->
      let cap = probe * 4 in
      let c, m = run_stream ~quota:0 ~cap ops in
      resident_keys c = List.sort compare (List.map fst m.entries)
      && Cachestore.mem_size c = model_total m
      && c.Cachestore.evictions_mem = m.ev_mem)

(* P4: a tenant's resident bytes never exceed its quota (single-entry
   escape per owner), and the store agrees with the model when quota
   and global cap interact. *)
let prop_tenant_quota =
  QCheck.Test.make ~name:"per-tenant quota never exceeded" ~count:200 ops_arb
    (fun ops ->
      let quota = probe * 2 and cap = probe * 5 in
      let c, m = run_stream ~quota ~cap ops in
      let owners = [ "T0"; "T1"; "T2" ] in
      List.for_all
        (fun o ->
          let owned =
            Hashtbl.fold
              (fun _ (e : Cachestore.entry) n ->
                if e.Cachestore.owner = Some o then n + 1 else n)
              c.Cachestore.mem 0
          in
          (Cachestore.tenant_size c o <= quota || owned <= 1)
          && Cachestore.tenant_size c o = model_owner_bytes m o)
        owners
      && resident_keys c = List.sort compare (List.map fst m.entries)
      && c.Cachestore.evictions_quota = m.ev_quota)

(* P5: accounting is conserved across a random launch stream — with
   every insert under a fresh key (no overwrites), each inserted entry
   is either still resident or counted by exactly one eviction
   counter, and every lookup is exactly one hit or one miss. *)
let prop_conservation =
  QCheck.Test.make ~name:"hit+miss+evict accounting conserved" ~count:200
    ops_arb (fun ops ->
      (* re-key the inserts to be unique in stream order; lookups keep
         their generated keys and may or may not find them resident *)
      let next = ref 0 in
      let ops =
        List.map
          (function
            | Insert (o, _, sel) ->
                incr next;
                Insert (o, 1000 + !next, sel)
            | Lookup (o, k) -> Lookup (o, 1000 + k))
          ops
      in
      let quota = probe * 2 and cap = probe * 4 in
      let c, m = run_stream ~quota ~cap ops in
      let inserts =
        List.length (List.filter (function Insert _ -> true | _ -> false) ops)
      in
      let lookups =
        List.length (List.filter (function Lookup _ -> true | _ -> false) ops)
      in
      Hashtbl.length c.Cachestore.mem
      = inserts - c.Cachestore.evictions_mem - c.Cachestore.evictions_quota
      && c.Cachestore.mem_hits + c.Cachestore.misses = lookups
      && c.Cachestore.mem_hits = m.hits
      && c.Cachestore.misses = m.missed)

(* ---- workload generator ------------------------------------------ *)

let wl_seed_gen = QCheck.map (fun i -> 100 + i) QCheck.(int_bound 5_000)

let prop_workload_deterministic =
  QCheck.Test.make ~name:"same seed, identical schedule" ~count:100 wl_seed_gen
    (fun seed ->
      let g () =
        Workload.generate ~seed ~tenants:4 ~kernels:16 ~launches:500 ~skew:1.1
      in
      (g ()).Workload.schedule = (g ()).Workload.schedule)

let prop_workload_skew_monotone =
  QCheck.Test.make ~name:"skew shifts hot-key mass monotonically" ~count:50
    wl_seed_gen (fun seed ->
      let mass skew =
        Workload.hot_mass
          (Workload.generate ~seed ~tenants:4 ~kernels:16 ~launches:800 ~skew)
          ~top:1
      in
      let ms = List.map mass [ 0.0; 0.5; 1.0; 1.5; 2.0 ] in
      List.for_all2 (fun a b -> a <= b) (List.filteri (fun i _ -> i < 4) ms)
        (List.tl ms))

let prop_workload_json_roundtrip =
  QCheck.Test.make ~name:"schedule replays from its JSON dump" ~count:100
    wl_seed_gen (fun seed ->
      let w =
        Workload.generate ~seed ~tenants:3 ~kernels:8 ~launches:200 ~skew:0.9
      in
      match Workload.of_json (Workload.to_json w) with
      | Ok w' -> w = w'
      | Error _ -> false)

let test_workload_rejects_malformed () =
  let w = Workload.generate ~seed:1 ~tenants:2 ~kernels:2 ~launches:2 ~skew:1.0 in
  let good = Workload.to_json w in
  let bad s =
    match Workload.of_json s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "trailing garbage rejected" true (bad (good ^ "x"));
  Alcotest.(check bool) "unknown field rejected" true
    (bad "{\"seed\": 1, \"bogus\": 2}");
  Alcotest.(check bool) "missing fields rejected" true (bad "{\"seed\": 1}");
  Alcotest.(check bool) "length mismatch rejected" true
    (bad
       "{\"seed\": 1, \"tenants\": 2, \"kernels\": 2, \"launches\": 3, \
        \"skew\": 1.0, \"schedule\": [[0, 0]]}");
  Alcotest.(check bool) "tenant out of range rejected" true
    (bad
       "{\"seed\": 1, \"tenants\": 2, \"kernels\": 2, \"launches\": 1, \
        \"skew\": 1.0, \"schedule\": [[5, 0]]}");
  Alcotest.(check bool) "duplicate key rejected" true
    (bad
       "{\"seed\": 1, \"tenants\": 2, \"kernels\": 2, \"launches\": 1, \
        \"skew\": 1.0, \"schedule\": [[0, 0]], \"seed\": 7}");
  Alcotest.(check bool) "its own dump accepted" true
    (match Workload.of_json good with Ok w' -> w' = w | Error _ -> false);
  (* a dump in the earlier printer's layout (fixed six-digit skew,
     ", " separators) still replays to the schedule it recorded *)
  let old_dump =
    "{\"seed\": 7, \"tenants\": 2, \"kernels\": 3, \"launches\": 6, \
     \"skew\": 0.900000, \"schedule\": [[1, 0], [1, 1], [1, 0], [1, 0], [0, 0], [1, 2]]}"
  in
  Alcotest.(check bool) "earlier dump layout replays" true
    (Workload.of_json old_dump
    = Ok (Workload.generate ~seed:7 ~tenants:2 ~kernels:3 ~launches:6 ~skew:0.9))

let test_workload_tenant_split () =
  let w = Workload.generate ~seed:9 ~tenants:3 ~kernels:4 ~launches:300 ~skew:1.0 in
  let per =
    List.init 3 (fun tn -> Array.length (Workload.tenant_schedule w ~tenant:tn))
  in
  check Alcotest.int "tenant streams partition the schedule" 300
    (List.fold_left ( + ) 0 per);
  (* a tenant's stream preserves schedule order *)
  let s0 = Workload.tenant_schedule w ~tenant:0 in
  Array.iter (fun (tn, _) -> check Alcotest.int "only tenant 0" 0 tn) s0

(* ---- serve: shared store, isolation ------------------------------ *)

let sum_stats sv f =
  let n = Serve.tenant_count sv in
  let acc = ref 0 in
  for tn = 0 to n - 1 do
    acc := !acc + f (Serve.stats sv ~tenant:tn)
  done;
  !acc

(* An armed specialize-corrupt fault in tenant A (under the verify
   gate) quarantines A only: B's compiles, hit rate and outputs are
   exactly those of a clean run, and both tenants' outputs match the
   clean serial replay (the corrupt artifact is never served). *)
let test_tenant_isolation () =
  let config = { Config.default with Config.verify_jit = true } in
  let sv =
    Serve.create ~config ~tenants:2 ~kernels:2
      ~tenant_faults:[ ("T0", [ (Fault.Specialize_corrupt, Fault.Always) ]) ]
      ()
  in
  let schedule =
    Array.append
      (Array.make 10 (0, 0)) (* A hammers kernel 0: every compile rejected *)
      (Array.make 10 (1, 0)) (* B then serves the same kernel cleanly *)
  in
  Serve.run sv schedule;
  Serve.finish sv;
  let sa = Serve.stats sv ~tenant:0 and sb = Serve.stats sv ~tenant:1 in
  Alcotest.(check bool) "A's compiles were rejected" true
    (sa.Stats.verify_rejections > 0);
  Alcotest.(check bool) "A fell back to AOT" true (sa.Stats.fallbacks > 0);
  Alcotest.(check bool) "A is quarantined" true
    (Jit.quarantined_kernels (Serve.jit sv ~tenant:0) <> []);
  Alcotest.(check bool) "A served quarantined launches" true
    (sa.Stats.quarantined_launches > 0);
  (* isolation: B never saw any of it *)
  check Alcotest.int "B not quarantined" 0
    (List.length (Jit.quarantined_kernels (Serve.jit sv ~tenant:1)));
  check Alcotest.int "B has no fallbacks" 0 sb.Stats.fallbacks;
  check Alcotest.int "B has no quarantined launches" 0
    sb.Stats.quarantined_launches;
  check Alcotest.int "B compiled once" 1 sb.Stats.compiles;
  Alcotest.(check bool) "B's hit rate is intact" true
    (Stats.hit_rate sb >= 0.89);
  (* and nobody's outputs were poisoned *)
  for tn = 0 to 1 do
    check Alcotest.string
      (Printf.sprintf "tenant %d output matches clean replay" tn)
      (Serve.replay_output ~config sv ~tenant:tn schedule)
      (Serve.output sv ~tenant:tn)
  done

(* The same fault armed for every tenant must quarantine everyone —
   guards against isolation accidentally disabling injection. *)
let test_unscoped_fault_hits_all () =
  let config = { Config.default with Config.verify_jit = true } in
  let plan = [ (Fault.Specialize_corrupt, Fault.Always) ] in
  let sv =
    Serve.create ~config ~tenants:2 ~kernels:1
      ~tenant_faults:[ ("T0", plan); ("T1", plan) ]
      ()
  in
  let schedule =
    Array.init 20 (fun i -> (i mod 2, 0))
  in
  Serve.run sv schedule;
  Serve.finish sv;
  for tn = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "tenant %d quarantined" tn)
      true
      (Jit.quarantined_kernels (Serve.jit sv ~tenant:tn) <> [])
  done

(* Shared-store economics: N tenants over one store compile each
   distinct kernel exactly once between them, and a serial run and a
   sharded run produce bit-identical tenant outputs. *)
let test_serve_shared_compile_once () =
  let w = Workload.generate ~seed:5 ~tenants:4 ~kernels:6 ~launches:600 ~skew:1.0 in
  let distinct =
    List.length
      (List.sort_uniq compare (List.map snd (Array.to_list w.Workload.schedule)))
  in
  let sv = Serve.create ~tenants:4 ~kernels:6 () in
  Serve.run sv w.Workload.schedule;
  Serve.finish sv;
  check Alcotest.int "one compile per distinct kernel" distinct
    (sum_stats sv (fun s -> s.Stats.compiles));
  check Alcotest.int "every launch served" 600
    (sum_stats sv (fun s -> s.Stats.jit_launches));
  let sv2 = Serve.create ~tenants:4 ~kernels:6 () in
  Serve.run_sharded sv2 ~domains:2 w.Workload.schedule;
  Serve.finish sv2;
  for tn = 0 to 3 do
    check Alcotest.string
      (Printf.sprintf "tenant %d serial = sharded" tn)
      (Serve.output sv ~tenant:tn)
      (Serve.output sv2 ~tenant:tn)
  done

(* Per-tenant quotas inside the serve loop: a tight quota caps each
   tenant's resident bytes without evicting neighbours' entries. *)
let test_serve_tenant_quota () =
  let config = { Config.default with Config.tenant_quota = probe * 2 } in
  let w = Workload.generate ~seed:11 ~tenants:2 ~kernels:12 ~launches:400 ~skew:0.2 in
  let sv = Serve.create ~config ~tenants:2 ~kernels:12 () in
  Serve.run sv w.Workload.schedule;
  Serve.finish sv;
  let store = Serve.store sv in
  Alcotest.(check bool) "quota evictions happened" true
    (store.Cachestore.evictions_quota > 0);
  for tn = 0 to 1 do
    let name = Serve.tenant_name sv ~tenant:tn in
    let owned =
      Hashtbl.fold
        (fun _ (e : Cachestore.entry) n ->
          if e.Cachestore.owner = Some name then n + 1 else n)
        store.Cachestore.mem 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "tenant %d within quota" tn)
      true
      (Cachestore.tenant_size store name <= probe * 2 || owned <= 1)
  done;
  (* outputs unaffected by quota pressure *)
  for tn = 0 to 1 do
    check Alcotest.string
      (Printf.sprintf "tenant %d output correct under quota" tn)
      (Serve.replay_output sv ~tenant:tn w.Workload.schedule)
      (Serve.output sv ~tenant:tn)
  done

(* Allocation gate for the warm launch path. Once every kernel is
   compiled and decoded, a launch allocates nothing directly on the
   major heap (the executor's compiled warp state, register banks
   included, comes back from the decoded program) and a bounded amount
   on the minor heap.
   Direct major words are major minus promoted words, as the benchmark
   counts them; promotion of the retained per-launch profiles is not
   the launch path's allocation. A minor collection on either side of
   the timed loop settles the runtime's sampled counters, which
   otherwise drift by tens of words per launch over 2,000 launches.
   A full major collection before the loop flushes the words every
   domain promoted earlier (the pool workers of the tests before this
   one included) into the major counter first: a domain adds its
   promoted words to [major_words] only at its next major slice, so
   without it a slice inside the loop charged the loop with up to
   ~24 words per launch allocated before it began. Measured on this
   path: no direct major and ~340 minor words per launch. *)
let warm_major_words_max = 8.0
let warm_minor_words_max = 1_000.0

let test_warm_launch_allocation () =
  let kernels = 4 and launches = 2_000 in
  let sv = Serve.create ~tenants:1 ~kernels () in
  for k = 0 to kernels - 1 do
    Serve.launch sv ~tenant:0 ~kernel:k
  done;
  Gc.full_major ();
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  for i = 0 to launches - 1 do
    Serve.launch sv ~tenant:0 ~kernel:(i mod kernels)
  done;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let direct (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
  let per x = x /. float_of_int launches in
  let major = per (direct g1 -. direct g0) in
  let minor = per (g1.Gc.minor_words -. g0.Gc.minor_words) in
  check Alcotest.int "every timed launch hit the cache" kernels
    (sum_stats sv (fun s -> s.Stats.compiles));
  Alcotest.(check bool)
    (Printf.sprintf "%.1f direct major words per warm launch < %.0f" major
       warm_major_words_max)
    true (major < warm_major_words_max);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per warm launch < %.0f" minor
       warm_minor_words_max)
    true (minor < warm_minor_words_max)

let () =
  Alcotest.run "serve"
    [
      ( "eviction-properties",
        [
          qtest prop_mem_cap;
          qtest prop_disk_cap;
          qtest prop_lru_model;
          qtest prop_tenant_quota;
          qtest prop_conservation;
        ] );
      ( "workload",
        [
          qtest prop_workload_deterministic;
          qtest prop_workload_skew_monotone;
          qtest prop_workload_json_roundtrip;
          Alcotest.test_case "malformed dumps rejected" `Quick
            test_workload_rejects_malformed;
          Alcotest.test_case "tenant streams partition the schedule" `Quick
            test_workload_tenant_split;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "corrupt tenant quarantined alone" `Quick
            test_tenant_isolation;
          Alcotest.test_case "unscoped fault hits every tenant" `Quick
            test_unscoped_fault_hits_all;
        ] );
      ( "service",
        [
          Alcotest.test_case "one compile per kernel across tenants" `Quick
            test_serve_shared_compile_once;
          Alcotest.test_case "tenant quota caps residency" `Quick
            test_serve_tenant_quota;
          Alcotest.test_case "warm launches stay off the major heap" `Quick
            test_warm_launch_allocation;
        ] );
    ]
