(* Smoke checker for `proteus bench --json`, `proteus advise
   --format machine`, the bench harness perf block (--perf) and SARIF
   exports (--sarif), run from the @bench-smoke, @advise and @perflint
   aliases (part of runtest). Parses the JSON with the strict reader
   in Proteus_support.Json and asserts the respective schema: for
   measurements, a non-empty array of objects, every required field
   present and well-typed, every method either ok or explicitly n/a,
   and n/a rows carrying null timings rather than garbage; for advise reports
   (--advise FILE), a non-empty array of per-kernel impact objects
   with a consistent argument table (scores sorted descending, the
   recommended list matching per-argument flags, no pointer argument
   recommended). --golden GOLDEN FILE compares a report with its
   committed golden as trees, wall-clock fields left out. *)

open Proteus_support.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ---- schema assertions ---- *)

let check_row row =
  let meth = to_str "method" (field row "method") in
  let _bench = to_str "benchmark" (field row "benchmark") in
  let na = to_bool "na" (field row "na") in
  let ok = to_bool "ok" (field row "ok") in
  if not (ok || na) then bad "method %s reports ok=false" meth;
  List.iter
    (fun f ->
      match (na, field row f) with
      | true, Null -> ()
      | true, _ -> bad "method %s: n/a row must carry null %s" meth f
      | false, Num v ->
          if Float.is_nan v then bad "method %s: %s is NaN" meth f;
          if v < 0.0 then bad "method %s: %s is negative (%g)" meth f v
      | false, _ -> bad "method %s: %s must be a number" meth f)
    [ "e2e_ms"; "kernel_ms"; "jit_overhead_ms" ];
  (* per-launch overhead percentiles: null on rows with no JIT (AOT,
     n/a); otherwise a well-formed, monotone p50 <= p90 <= p99 *)
  let pct f =
    match field row f with
    | Null -> None
    | Num v ->
        if Float.is_nan v then bad "method %s: %s is NaN" meth f;
        if v < 0.0 then bad "method %s: %s is negative (%g)" meth f v;
        Some v
    | _ -> bad "method %s: %s must be a number or null" meth f
  in
  (match (pct "p50_ms", pct "p90_ms", pct "p99_ms") with
  | Some p50, Some p90, Some p99 ->
      if na then bad "method %s: n/a row carries percentiles" meth;
      if p50 > p90 +. 1e-9 || p90 > p99 +. 1e-9 then
        bad "method %s: percentiles not monotone (p50=%g p90=%g p99=%g)" meth p50
          p90 p99
  | None, None, None -> ()
  | _ -> bad "method %s: percentiles must be all-null or all-numeric" meth);
  (* tiered-compilation fields: first/steady launch overhead are null on
     rows with no JIT launches (AOT, n/a) and otherwise both numeric;
     tierup_count is a non-negative integer (null when no JIT); a swap
     latency may only appear alongside at least one published tier-up *)
  (match (pct "first_launch_ms", pct "steady_launch_ms") with
  | Some _, Some _ ->
      if na then bad "method %s: n/a row carries launch overheads" meth
  | None, None -> ()
  | _ ->
      bad "method %s: first/steady launch overhead must be both-null or both-numeric"
        meth);
  let tierups =
    match field row "tierup_count" with
    | Null -> None
    | Num v ->
        if (not (Float.is_integer v)) || v < 0.0 then
          bad "method %s: tierup_count must be a non-negative integer" meth;
        Some (int_of_float v)
    | _ -> bad "method %s: tierup_count must be an integer or null" meth
  in
  if na && tierups <> None then bad "method %s: n/a row carries tierup_count" meth;
  (match (pct "swap_latency_ms", tierups) with
  | Some _, (None | Some 0) ->
      bad "method %s: swap latency reported without a published tier-up" meth
  | _ -> ());
  meth

(* ---- advise report schema (proteus advise --format machine) ---- *)

let check_advise_arg kernel a =
  let ctx what = Printf.sprintf "kernel %s: %s" kernel what in
  let index = to_int (ctx "index") (field a "index") in
  if index < 0 then bad "%s" (ctx "negative argument index");
  ignore (to_str (ctx "name") (field a "name"));
  ignore (to_str (ctx "type") (field a "type"));
  let ptr = to_bool (ctx "ptr") (field a "ptr") in
  List.iter
    (fun f ->
      if to_int (ctx f) (field a f) < 0 then bad "%s" (ctx (f ^ " is negative")))
    [ "folds"; "uses"; "branches"; "loops"; "loop_insts"; "addrs" ];
  let score = to_num (ctx "score") (field a "score") in
  if Float.is_nan score || score < 0.0 then bad "%s" (ctx "bad score");
  let recommended = to_bool (ctx "recommended") (field a "recommended") in
  if recommended && ptr then bad "%s" (ctx "pointer argument recommended");
  (index, score, recommended)

let check_advise_row row =
  ignore (to_str "program" (field row "program"));
  let kernel = to_str "kernel" (field row "kernel") in
  let nparams = to_int "nparams" (field row "nparams") in
  let threshold = to_num "threshold" (field row "threshold") in
  let advise_ms = to_num "advise_ms" (field row "advise_ms") in
  if advise_ms < 0.0 then bad "kernel %s: negative advise_ms" kernel;
  ignore (to_bool "launch_bounds" (field row "launch_bounds"));
  let rec_list =
    List.map (to_int "recommended entry") (to_list "recommended" (field row "recommended"))
  in
  let args = List.map (check_advise_arg kernel) (to_list "args" (field row "args")) in
  (* one row per parameter plus the launch pseudo-argument *)
  if List.length args <> nparams + 1 then
    bad "kernel %s: %d arg rows for %d parameters" kernel (List.length args) nparams;
  (* ranking is score-descending *)
  ignore
    (List.fold_left
       (fun prev (_, score, _) ->
         (match prev with
         | Some p when score > p +. 1e-9 ->
             bad "kernel %s: args not sorted by descending score" kernel
         | _ -> ());
         Some score)
       None args);
  (* the recommended list and the per-argument flags agree *)
  List.iter
    (fun (idx, score, r) ->
      if idx > 0 && r <> List.mem idx rec_list then
        bad "kernel %s: argument %d flag disagrees with recommended list" kernel idx;
      if r && score +. 1e-9 < threshold then
        bad "kernel %s: argument %d recommended below threshold" kernel idx)
    args;
  kernel

(* ---- perf block (bench --perf-validate --json) ---- *)

let check_perf_row row =
  let app = to_str "app" (field row "app") in
  let vendor = to_str "vendor" (field row "vendor") in
  let ctx what = Printf.sprintf "%s/%s: %s" app vendor what in
  if vendor <> "AMD" && vendor <> "NVIDIA" then bad "%s" (ctx "unknown vendor");
  let stat = to_int (ctx "static_sites") (field row "static_sites") in
  let matched = to_int (ctx "matched") (field row "matched") in
  let agreed = to_int (ctx "agreed") (field row "agreed") in
  (* monotone class counts: agreed <= matched <= static sites *)
  if stat < 0 || matched < 0 || agreed < 0 then bad "%s" (ctx "negative count");
  if matched > stat then bad "%s" (ctx "matched exceeds static_sites");
  if agreed > matched then bad "%s" (ctx "agreed exceeds matched");
  let acc = to_num (ctx "accuracy") (field row "accuracy") in
  if Float.is_nan acc || acc < 0.0 || acc > 100.0 then
    bad "%s" (ctx "accuracy outside [0,100]");
  let expected =
    if matched = 0 then 100.0
    else 100.0 *. float_of_int agreed /. float_of_int matched
  in
  if Float.abs (acc -. expected) > 0.05 then
    bad "%s" (ctx "accuracy inconsistent with agreed/matched");
  (* per-class breakdown sums back to the totals *)
  let classes =
    match field row "classes" with
    | Obj cs -> cs
    | _ -> bad "%s" (ctx "classes must be an object")
  in
  let sum_m = ref 0 and sum_g = ref 0 in
  List.iter
    (fun (cname, c) ->
      let m = to_int (ctx (cname ^ " matched")) (field c "matched") in
      let g = to_int (ctx (cname ^ " agreed")) (field c "agreed") in
      if m < 0 || g < 0 || g > m then bad "%s" (ctx ("bad class counts for " ^ cname));
      sum_m := !sum_m + m;
      sum_g := !sum_g + g)
    classes;
  if !sum_m <> matched || !sum_g <> agreed then
    bad "%s" (ctx "class breakdown does not sum to totals");
  (app, vendor)

let check_perf json =
  let rows = to_list "perf" (field json "perf") in
  if rows = [] then bad "empty perf block";
  let cells = List.map check_perf_row rows in
  let uniq = List.sort_uniq compare cells in
  if List.length uniq <> List.length cells then bad "duplicate perf cells";
  List.length cells

(* ---- tier block (bench tier --json FILE) ---- *)

let check_tier_row row =
  let app = to_str "app" (field row "app") in
  let vendor = to_str "vendor" (field row "vendor") in
  let ctx what = Printf.sprintf "%s/%s: %s" app vendor what in
  if vendor <> "AMD" && vendor <> "NVIDIA" then bad "%s" (ctx "unknown vendor");
  if not (to_bool (ctx "ok") (field row "ok")) then bad "%s" (ctx "cell not ok");
  let num f =
    let v = to_num (ctx f) (field row f) in
    if Float.is_nan v || v < 0.0 then bad "%s" (ctx ("bad " ^ f));
    v
  in
  (* the point of tiering: the first JIT launch must not be slower than
     the blocking (non-tiered) first launch *)
  let first_off = num "first_launch_ms_off" in
  let first_tier = num "first_launch_ms_tier" in
  if first_tier > first_off +. 1e-9 then
    bad "%s" (ctx "tiered first launch slower than non-tiered");
  ignore (num "steady_launch_ms_off");
  ignore (num "steady_launch_ms_tier");
  let tierups = to_int (ctx "tierup_count") (field row "tierup_count") in
  if tierups < 1 then bad "%s" (ctx "no tier-ups published");
  if to_int (ctx "tier_launches") (field row "tier_launches") < 1 then
    bad "%s" (ctx "no tier-0 launches recorded");
  List.iter
    (fun f ->
      if to_int (ctx f) (field row f) < 0 then bad "%s" (ctx (f ^ " is negative")))
    [ "compiles_off"; "compiles_tier" ];
  (match field row "swap_latency_ms" with
  | Num v -> if Float.is_nan v || v < 0.0 then bad "%s" (ctx "bad swap_latency_ms")
  | Null -> bad "%s" (ctx "tier-ups published without a swap latency")
  | _ -> bad "%s" (ctx "swap_latency_ms must be a number"));
  (app, vendor)

let check_tier json =
  let rows = to_list "tier" (field json "tier") in
  if rows = [] then bad "empty tier block";
  let cells = List.map check_tier_row rows in
  let uniq = List.sort_uniq compare cells in
  if List.length uniq <> List.length cells then bad "duplicate tier cells";
  List.length cells

(* ---- transval block (bench transval --json FILE) ---- *)

let check_transval_row row =
  let app = to_str "app" (field row "app") in
  let vendor = to_str "vendor" (field row "vendor") in
  let ctx what = Printf.sprintf "%s/%s: %s" app vendor what in
  if vendor <> "AMD" && vendor <> "NVIDIA" then bad "%s" (ctx "unknown vendor");
  let kernels = to_int (ctx "kernels") (field row "kernels") in
  let proven = to_int (ctx "proven") (field row "proven") in
  let unproven = to_int (ctx "unproven") (field row "unproven") in
  let refuted = to_int (ctx "refuted") (field row "refuted") in
  if kernels < 1 then bad "%s" (ctx "no kernels validated");
  if proven < 0 || unproven < 0 || refuted < 0 then bad "%s" (ctx "negative count");
  if proven + unproven + refuted <> kernels then
    bad "%s" (ctx "verdict counts do not sum to kernels");
  (* the soundness gate: a refuted kernel means the O3 pipeline broke
     semantics, and the coverage gate: every kernel must actually prove *)
  if refuted > 0 then bad "%s" (ctx "refuted kernel(s)");
  if proven <> kernels then bad "%s" (ctx "not all kernels proven");
  let ms = to_num (ctx "validate_ms") (field row "validate_ms") in
  if Float.is_nan ms || ms < 0.0 then bad "%s" (ctx "bad validate_ms");
  (app, vendor, kernels)

let check_transval json =
  let rows = to_list "transval" (field json "transval") in
  if rows = [] then bad "empty transval block";
  let cells = List.map check_transval_row rows in
  let keys = List.map (fun (a, v, _) -> (a, v)) cells in
  let uniq = List.sort_uniq compare keys in
  if List.length uniq <> List.length keys then bad "duplicate transval cells";
  (* both vendors must be present for every app *)
  List.iter
    (fun (a, v) ->
      let other = if v = "AMD" then "NVIDIA" else "AMD" in
      if not (List.mem (a, other) keys) then
        bad "transval: %s validated for %s but not %s" a v other)
    keys;
  (List.length cells, List.fold_left (fun acc (_, _, k) -> acc + k) 0 cells)

(* ---- serve block (bench serve --json FILE) ---- *)

let check_serve_row ~(what : string) row =
  let tenant = to_str (what ^ " tenant") (field row "tenant") in
  let ctx msg = Printf.sprintf "%s %s: %s" what tenant msg in
  let count f =
    let v = to_int (ctx f) (field row f) in
    if v < 0 then bad "%s" (ctx (f ^ " is negative"));
    v
  in
  let launches = count "launches" in
  let hits = count "hits" in
  let compiles = count "compiles" in
  let fallbacks = count "fallbacks" in
  let quarantined = count "quarantined" in
  let resident = count "resident_bytes" in
  if hits > launches then bad "%s" (ctx "hits exceed launches");
  let rate = to_num (ctx "hit_rate") (field row "hit_rate") in
  if Float.is_nan rate || rate < 0.0 || rate > 1.0 then
    bad "%s" (ctx "hit_rate outside [0,1]");
  let expected =
    if launches = 0 then 0.0 else float_of_int hits /. float_of_int launches
  in
  if Float.abs (rate -. expected) > 1e-4 then
    bad "%s" (ctx "hit_rate inconsistent with hits/launches");
  let p50 = to_num (ctx "p50_ms") (field row "p50_ms") in
  let p99 = to_num (ctx "p99_ms") (field row "p99_ms") in
  if Float.is_nan p50 || p50 < 0.0 then bad "%s" (ctx "bad p50_ms");
  if Float.is_nan p99 || p99 < 0.0 then bad "%s" (ctx "bad p99_ms");
  if p50 > p99 +. 1e-9 then bad "%s" (ctx "p50 exceeds p99");
  (tenant, launches, hits, compiles, fallbacks, quarantined, resident)

let check_serve json =
  let s = field json "serve" in
  let tenants = to_int "tenants" (field s "tenants") in
  if tenants < 1 then bad "serve: no tenants";
  if to_int "kernels" (field s "kernels") < 1 then bad "serve: no kernels";
  let launches = to_int "launches" (field s "launches") in
  if launches < 1 then bad "serve: no launches";
  if not (to_bool "ok" (field s "ok")) then bad "serve: run not ok";
  if not (to_bool "replay_identical" (field s "replay_identical")) then
    bad "serve: concurrent run diverged from serial replay";
  if not (to_bool "isolation_ok" (field s "isolation_ok")) then
    bad "serve: tenant fault isolation violated";
  let total = check_serve_row ~what:"total" (field s "total") in
  let rows =
    List.map (check_serve_row ~what:"tenant") (to_list "per_tenant" (field s "per_tenant"))
  in
  if List.length rows <> tenants then
    bad "serve: %d per-tenant rows for %d tenants" (List.length rows) tenants;
  let names = List.map (fun (n, _, _, _, _, _, _) -> n) rows in
  if List.sort_uniq compare names <> List.sort compare names then
    bad "serve: duplicate tenant rows";
  (* per-tenant rows must sum back to the totals (resident bytes may
     differ: shared entries whose owner launched nothing are charged to
     nobody, so the per-tenant ledger is a lower bound on mem_size) *)
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let (_, t_l, t_h, t_c, t_f, t_q, t_r) = total in
  if sum (fun (_, l, _, _, _, _, _) -> l) <> t_l then
    bad "serve: per-tenant launches do not sum to total";
  if t_l <> launches then bad "serve: total launches disagree with header";
  if sum (fun (_, _, h, _, _, _, _) -> h) <> t_h then
    bad "serve: per-tenant hits do not sum to total";
  if sum (fun (_, _, _, c, _, _, _) -> c) <> t_c then
    bad "serve: per-tenant compiles do not sum to total";
  if sum (fun (_, _, _, _, f, _, _) -> f) <> t_f then
    bad "serve: per-tenant fallbacks do not sum to total";
  if sum (fun (_, _, _, _, _, q, _) -> q) <> t_q then
    bad "serve: per-tenant quarantined counts do not sum to total";
  if sum (fun (_, _, _, _, _, _, r) -> r) > t_r then
    bad "serve: per-tenant resident bytes exceed the store's mem size";
  (tenants, launches)

(* ---- SARIF 2.1.0 schema check (proteus ... --format sarif) ---- *)

let check_sarif json =
  let version = to_str "version" (field json "version") in
  if version <> "2.1.0" then bad "sarif: version %s, expected 2.1.0" version;
  ignore (to_str "$schema" (field json "$schema"));
  let runs = to_list "runs" (field json "runs") in
  (match runs with [ _ ] -> () | _ -> bad "sarif: expected exactly one run");
  let run = List.hd runs in
  let driver = field (field run "tool") "driver" in
  ignore (to_str "driver.name" (field driver "name"));
  let rule_ids =
    List.map
      (fun r -> to_str "rule id" (field r "id"))
      (to_list "rules" (field driver "rules"))
  in
  if List.sort_uniq compare rule_ids <> List.sort compare rule_ids then
    bad "sarif: duplicate rule ids";
  let results = to_list "results" (field run "results") in
  List.iter
    (fun r ->
      let rule = to_str "ruleId" (field r "ruleId") in
      if not (List.mem rule rule_ids) then
        bad "sarif: result ruleId %s not in driver.rules" rule;
      (match to_str "level" (field r "level") with
      | "note" | "warning" | "error" -> ()
      | l -> bad "sarif: bad level %s" l);
      ignore (to_str "message.text" (field (field r "message") "text"));
      List.iter
        (fun loc ->
          let ph = field loc "physicalLocation" in
          ignore (to_str "artifact uri" (field (field ph "artifactLocation") "uri"));
          match ph with
          | Obj fs when List.mem_assoc "region" fs ->
              let reg = List.assoc "region" fs in
              if to_int "startLine" (field reg "startLine") < 1 then
                bad "sarif: startLine < 1";
              if to_int "startColumn" (field reg "startColumn") < 1 then
                bad "sarif: startColumn < 1"
          | _ -> ())
        (to_list "locations" (field r "locations")))
    results;
  (List.length rule_ids, List.length results)

(* ---- golden trees (--golden GOLDEN FILE) ---- *)

(* The wall-clock fields: the only part of a validate or advise report
   that differs between two runs of one commit. *)
let wall_fields = [ "advise_ms"; "validate_ms"; "targets"; "total_wall_s" ]

let rec strip_wall = function
  | Obj fs ->
      Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k wall_fields then None else Some (k, strip_wall v))
           fs)
  | Arr xs -> Arr (List.map strip_wall xs)
  | v -> v

(* The path of the first difference between two trees: key order,
   array lengths, strings and numbers all count. *)
let rec first_diff path a b =
  let first f xs ys =
    List.fold_left2 (fun acc x y -> if acc = None then f x y else acc) None xs ys
  in
  match (a, b) with
  | Obj fa, Obj fb when List.map fst fa = List.map fst fb ->
      first (fun (k, x) (_, y) -> first_diff (path ^ "." ^ k) x y) fa fb
  | Arr xa, Arr xb when List.length xa = List.length xb ->
      first Fun.id
        (List.mapi (fun i x y -> first_diff (Printf.sprintf "%s[%d]" path i) x y) xa)
        xb
  | _ -> if a = b then None else Some path

(* On a mismatch, print the fresh report whole: a deliberate change
   replaces the golden with it. *)
let check_golden golden_path path fresh =
  let ic = open_in_bin golden_path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match first_diff "$" (strip_wall (parse golden)) (strip_wall (parse fresh)) with
  | None -> Printf.printf "bench_check: %s matches %s\n" path golden_path
  | Some at ->
      Printf.eprintf "bench_check: %s differs from %s at %s; fresh output:\n%s\n" path
        golden_path at fresh;
      exit 1

let () =
  let mode, path =
    match Sys.argv with
    | [| _; p |] -> (`Bench, p)
    | [| _; "--advise"; p |] -> (`Advise, p)
    | [| _; "--perf"; p |] -> (`Perf, p)
    | [| _; "--tier"; p |] -> (`Tier, p)
    | [| _; "--serve"; p |] -> (`Serve, p)
    | [| _; "--transval"; p |] -> (`Transval, p)
    | [| _; "--sarif"; p |] -> (`Sarif, p)
    | [| _; "--golden"; g; p |] -> (`Golden g, p)
    | _ ->
        prerr_endline
          "usage: bench_check [--advise|--perf|--tier|--serve|--transval|--sarif \
           | --golden GOLDEN.json] FILE.json";
        exit 2
  in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  try
    match (mode, parse src) with
    | `Golden g, _ -> check_golden g path src
    | `Perf, json ->
        let cells = check_perf json in
        Printf.printf "bench_check: %s ok (%d perf cells)\n" path cells
    | `Tier, json ->
        let cells = check_tier json in
        Printf.printf "bench_check: %s ok (%d tier cells)\n" path cells
    | `Serve, json ->
        let tenants, launches = check_serve json in
        Printf.printf "bench_check: %s ok (serve: %d tenants, %d launches)\n"
          path tenants launches
    | `Transval, json ->
        let cells, kernels = check_transval json in
        Printf.printf
          "bench_check: %s ok (transval: %d cells, %d kernels all proven)\n"
          path cells kernels
    | `Sarif, json ->
        let rules, results = check_sarif json in
        Printf.printf "bench_check: %s ok (SARIF: %d rules, %d results)\n" path
          rules results
    | `Advise, Arr rows ->
        if rows = [] then bad "empty advise report";
        let kernels = List.map check_advise_row rows in
        Printf.printf "bench_check: %s ok (%d kernel reports)\n" path (List.length kernels)
    | `Advise, _ -> bad "top level is not an array"
    | `Bench, Arr rows ->
        if rows = [] then bad "empty measurement array";
        let meths = List.map check_row rows in
        List.iter
          (fun required ->
            if not (List.mem required meths) then
              bad "method %S missing from output" required)
          [ "AOT"; "Proteus"; "Proteus+$"; "Jitify" ];
        Printf.printf "bench_check: %s ok (%d measurements)\n" path (List.length rows)
    | `Bench, _ -> bad "top level is not an array"
  with Bad msg | Proteus_support.Json.Error msg ->
    Printf.eprintf "bench_check: %s: %s\n" path msg;
    exit 1
