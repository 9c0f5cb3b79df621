(* Diagnostics produced by the KernelSan analyses. A finding carries a
   machine-usable kind, a severity, and (when the module was lowered
   with dbg.loc markers) a source location. Severity semantics:
   [Error] findings are definite violations (the JIT verify gate
   rejects on them), [Warning] findings are probable violations worth
   surfacing by default, [Info] findings are conservative "maybe"
   verdicts that only show up under --all. *)

type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

type kind =
  | Barrier_divergence
  | Shared_race
  | Out_of_bounds
  | Invalid_ir
  | Spec_impact (* Specadvisor provenance: why an argument scored *)
  | Coalescing (* PerfLint: strided/scattered global access *)
  | Bank_conflict (* PerfLint: shared-memory bank conflict *)
  | Occupancy (* PerfLint: register pressure limits resident waves *)
  | Divergence (* PerfLint: costly divergent region *)
  | Transval_refuted (* TransVal: transformed kernel provably differs *)
  | Transval_unproven (* TransVal: equivalence not established *)

let kind_to_string = function
  | Barrier_divergence -> "barrier-divergence"
  | Shared_race -> "shared-race"
  | Out_of_bounds -> "out-of-bounds"
  | Invalid_ir -> "invalid-ir"
  | Spec_impact -> "spec-impact"
  | Coalescing -> "coalescing"
  | Bank_conflict -> "bank-conflict"
  | Occupancy -> "occupancy"
  | Divergence -> "divergence"
  | Transval_refuted -> "transval-refuted"
  | Transval_unproven -> "transval-unproven"

type t = {
  kind : kind;
  severity : severity;
  func : string; (* kernel the finding is in *)
  block : string; (* IR block, for provenance without debug info *)
  loc : (int * int) option; (* source line, column *)
  message : string;
}

let mk ?loc ~kind ~severity ~func ~block message =
  { kind; severity; func; block; loc; message }

(* Most severe first, then by source position for stable output. *)
let compare a b =
  match Stdlib.compare (severity_rank b.severity) (severity_rank a.severity) with
  | 0 -> Stdlib.compare (a.loc, a.func, a.message) (b.loc, b.func, b.message)
  | c -> c

let to_string ?(file = "<source>") t =
  let pos =
    match t.loc with
    | Some (l, c) -> Printf.sprintf "%s:%d:%d" file l c
    | None -> Printf.sprintf "%s:%s" file t.block
  in
  Printf.sprintf "%s: %s: [%s] %s (kernel %s)" pos
    (severity_to_string t.severity)
    (kind_to_string t.kind) t.message t.func

(* Stable tab-separated form for automation:
   file<TAB>line<TAB>col<TAB>severity<TAB>kind<TAB>kernel<TAB>message *)
let to_machine ?(file = "<source>") t =
  let line, col = match t.loc with Some (l, c) -> (l, c) | None -> (0, 0) in
  Printf.sprintf "%s\t%d\t%d\t%s\t%s\t%s\t%s" file line col
    (severity_to_string t.severity)
    (kind_to_string t.kind) t.func t.message

(* Deterministic order for machine/SARIF output: (line, col, rule,
   severity, kernel, block, message), identical findings collapsed.
   Analyses may visit blocks in hash order; CI diffs must not care. *)
let dedup_sort (ts : t list) : t list =
  let key t =
    let line, col = match t.loc with Some (l, c) -> (l, c) | None -> (0, 0) in
    ( line, col,
      kind_to_string t.kind,
      severity_rank t.severity,
      t.func, t.block, t.message )
  in
  List.sort_uniq (fun a b -> Stdlib.compare (key a) (key b)) ts

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 export (minimal static-analysis profile: one run, one
   driver, results with physical locations).                           *)

let sarif_level = function
  | Info -> "note"
  | Warning -> "warning"
  | Error -> "error"

(* Central rule-metadata table: one row per kind, shared by every SARIF
   producer (analyze, perflint, transval) so rule descriptions and
   default severities cannot drift between tools. The default severity
   is the level a finding of that kind carries when the analysis has no
   site-specific reason to promote or demote it. *)
let rule_metadata : (kind * string * severity) list =
  [
    (Barrier_divergence, "Barrier reached under divergent control flow", Error);
    (Shared_race, "Unsynchronized shared-memory access pair", Warning);
    (Out_of_bounds, "Memory access may fall outside its allocation", Warning);
    (Invalid_ir, "Module failed structural IR verification", Error);
    (Spec_impact, "Argument specialization impact provenance", Info);
    (Coalescing, "Strided or scattered global-memory access", Warning);
    (Bank_conflict, "Shared-memory bank conflict", Warning);
    (Occupancy, "Register pressure limits resident waves", Warning);
    (Divergence, "Costly divergent region", Info);
    (Transval_refuted, "Transformed kernel provably differs from reference", Error);
    (Transval_unproven, "Kernel equivalence not established", Info);
  ]

let rule_description k =
  match List.find_opt (fun (k', _, _) -> k' = k) rule_metadata with
  | Some (_, d, _) -> d
  | None -> kind_to_string k

let rule_default_severity k =
  match List.find_opt (fun (k', _, _) -> k' = k) rule_metadata with
  | Some (_, _, s) -> s
  | None -> Warning

(* [files] pairs a source-file uri with its findings; each file's list
   is dedup_sorted here, so the export is deterministic. *)
let to_sarif ~(tool : string) (files : (string * t list) list) : string =
  let open Proteus_support.Json in
  let rules =
    files
    |> List.concat_map (fun (_, ts) -> List.map (fun t -> t.kind) ts)
    |> List.sort_uniq Stdlib.compare
  in
  let rule k =
    Obj
      [
        ("id", Str (kind_to_string k));
        ("shortDescription", Obj [ ("text", Str (rule_description k)) ]);
        ( "defaultConfiguration",
          Obj [ ("level", Str (sarif_level (rule_default_severity k))) ] );
      ]
  in
  let result file t =
    let region =
      match t.loc with
      | Some (l, c) ->
          [ ("region", Obj [ ("startLine", int (max 1 l)); ("startColumn", int (max 1 c)) ]) ]
      | None -> []
    in
    let text = Printf.sprintf "%s (kernel %s)" t.message t.func in
    let location = Obj (("artifactLocation", Obj [ ("uri", Str file) ]) :: region) in
    Obj
      [
        ("ruleId", Str (kind_to_string t.kind));
        ("level", Str (sarif_level t.severity));
        ("message", Obj [ ("text", Str text) ]);
        ("locations", Arr [ Obj [ ("physicalLocation", location) ] ]);
      ]
  in
  let driver = Obj [ ("name", Str tool); ("rules", Arr (List.map rule rules)) ] in
  let results =
    List.concat_map (fun (file, ts) -> List.map (result file) (dedup_sort ts)) files
  in
  to_string
    (Obj
       [
         ("version", Str "2.1.0");
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ( "runs",
           Arr [ Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", Arr results) ] ] );
       ])
