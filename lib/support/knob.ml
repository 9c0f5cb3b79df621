(* The table of PROTEUS_* environment knobs and their one reader.

   Each entry has a name, a class, a one-line doc and a typed parser;
   nothing else reads a PROTEUS_ variable (test_knob checks the sources
   and README's knob table against this table). A value that does not
   parse, and a PROTEUS_ name the table does not know, is warned about
   once per name on stderr, counted in [rejections], and read as the
   default. A value is fixed when its reader runs, never per launch:
   Config and Pool at module initialisation, Cachestore.create and
   Fault.of_env per store or JIT created, tooling when it starts. *)

type cls = Compile | Runtime | Service | Tooling

let cls_name = function
  | Compile -> "compile"
  | Runtime -> "runtime"
  | Service -> "service"
  | Tooling -> "tooling"

type 'a t = {
  name : string;
  cls : cls;
  doc : string;
  parse : string -> 'a option; (* None = malformed *)
  default : 'a;
}

(* ---- value syntax ---- *)

let norm s = String.lowercase_ascii (String.trim s)

let bool s =
  match norm s with
  | "1" | "true" | "yes" | "on" -> Some true
  | "0" | "false" | "no" | "off" | "" -> Some false
  | _ -> None

(* a boolean keeps its meaning (on = 1); "2" is the next level up *)
let level s = if norm s = "2" then Some 2 else Option.map Bool.to_int (bool s)

let at_least lo s =
  match int_of_string_opt (String.trim s) with Some n when n >= lo -> Some n | _ -> None

(* Which annotated arguments enter the specialization key (Config), by name. *)
type spec_policy = Spec_all | Spec_advise | Spec_none

let spec_policies = [ ("all", Spec_all); ("advise", Spec_advise); ("none", Spec_none) ]

(* When an injection point fires (Fault). *)
type trigger =
  | Off
  | Always
  | Nth of int (* fail exactly the Nth call (1-based) to this point *)
  | Every of int (* fail every Kth call to this point *)

let trigger_of_string s : (trigger, string) result =
  match norm s with
  | "off" | "0" | "" -> Ok Off
  | "always" | "1" -> Ok Always
  | s -> (
      match String.split_on_char ':' s with
      | [ ("nth" | "every") as kind; n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (if kind = "nth" then Nth n else Every n)
          | _ -> Error (Printf.sprintf "bad count in fault trigger %S" s))
      | _ -> Error (Printf.sprintf "unknown fault trigger %S (off|always|nth:N|every:K)" s))

(* ---- the table ---- *)

let knob name cls parse default doc = { name; cls; doc; parse; default }

let verify =
  knob "PROTEUS_VERIFY" Compile level 0
    "`1` re-verifies specialized and optimized IR (IR verifier, KernelSan), `2` adds TransVal"

let verify_strict =
  knob "PROTEUS_VERIFY_STRICT" Compile bool false
    "`1` at verify level 2 rejects an Unproven TransVal verdict like a refuted one"

let spec_policy =
  knob "PROTEUS_SPEC_POLICY" Compile (fun s -> List.assoc_opt (norm s) spec_policies) Spec_all
    "which annotated arguments the JIT keys and folds: `all` (default), `advise` or `none`"

let tier =
  knob "PROTEUS_TIER" Compile bool false
    "`1` serves a cache miss from the AOT artifact while the specialization compiles behind it"

let mem_cache_limit =
  knob "PROTEUS_MEM_CACHE_LIMIT" Service (at_least 0) 0
    "byte limit of the memory cache tier, LRU-evicted (default `0` = unlimited)"

let disk_cache_limit =
  knob "PROTEUS_DISK_CACHE_LIMIT" Service (at_least 0) 0
    "byte limit of the persistent cache tier, LRU-evicted (default `0` = unlimited)"

let exec_domains =
  knob "PROTEUS_EXEC_DOMAINS" Runtime (at_least 1) (max 1 (Domain.recommended_domain_count ()))
    "domains the executor runs thread-blocks on (default: the count the OS recommends)"

(* One knob per Fault point: "cache-read" is PROTEUS_FAULT_CACHE_READ. *)
let faults =
  List.map
    (fun (name, doc) -> knob name Runtime (fun s -> Result.to_option (trigger_of_string s)) Off doc)
    [
      ("PROTEUS_FAULT_FETCH_BITCODE", "fail the bitcode fetch");
      ("PROTEUS_FAULT_DECODE", "fail the bitcode decode");
      ("PROTEUS_FAULT_SPECIALIZE", "fail specialization");
      ("PROTEUS_FAULT_SPECIALIZE_CORRUPT", "corrupt the specialized IR silently (verify gate)");
      ("PROTEUS_FAULT_OPTIMIZE", "fail the O3 pipeline");
      ("PROTEUS_FAULT_VERIFY", "fail the verify gate");
      ("PROTEUS_FAULT_CODEGEN", "fail code generation");
      ("PROTEUS_FAULT_CACHE_READ", "fail the code-cache lookup");
      ("PROTEUS_FAULT_CACHE_WRITE", "fail the code-cache insert");
      ("PROTEUS_FAULT_CACHE_LOCK", "time out on a cache entry lock (transient: retried)");
      ("PROTEUS_FAULT_DISK_FULL", "fail a persistent-cache write as disk full (pressure)");
    ]

let fault point =
  let suffix = String.map (function '-' -> '_' | c -> Char.uppercase_ascii c) point in
  List.find (fun k -> k.name = "PROTEUS_FAULT_" ^ suffix) faults

let serve_launches =
  knob "PROTEUS_SERVE_LAUNCHES" Tooling (at_least 1) 1_000_000
    "launches `bench serve` runs (default 1000000; runtest sets 20000)"

let qcheck_seed =
  knob "PROTEUS_QCHECK_SEED" Tooling (at_least min_int) 0x5eed
    "seed of the qcheck property suites (default `0x5eed`)"

(* An entry with its value type forgotten, in README order. *)
type entry = Entry : 'a t -> entry

let table =
  [ Entry verify; Entry verify_strict; Entry spec_policy; Entry tier; Entry mem_cache_limit;
    Entry disk_cache_limit; Entry exec_domains ]
  @ List.map (fun k -> Entry k) faults
  @ [ Entry serve_launches; Entry qcheck_seed ]

(* ---- the reader ---- *)

(* the names warned about; its size is the rejection count *)
let warned : (string, unit) Hashtbl.t = Hashtbl.create 4
let warned_mu = Mutex.create ()

let reject name msg =
  Mutex.protect warned_mu (fun () ->
      if not (Hashtbl.mem warned name) then begin
        Hashtbl.replace warned name ();
        prerr_endline ("proteus: " ^ msg)
      end)

(* Malformed values and unknown names seen so far in this process. *)
let rejections () = Mutex.protect warned_mu (fun () -> Hashtbl.length warned)

let get (k : 'a t) : 'a =
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"PROTEUS_" kv then
        let name = List.hd (String.split_on_char '=' kv) in
        if not (List.exists (fun (Entry k) -> k.name = name) table) then
          reject name (Printf.sprintf "ignoring unknown %s (not in the knob table)" name))
    (Unix.environment ());
  match Sys.getenv_opt k.name with
  | None -> k.default
  | Some s -> (
      match k.parse s with
      | Some v -> v
      | None ->
          reject k.name (Printf.sprintf "ignoring malformed %s=%S, using the default" k.name s);
          k.default)
