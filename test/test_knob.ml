(* The PROTEUS_* knob table (Proteus_support.Knob).

   - Every entry: a valid value parses to its setting; a malformed one
     warns once, adds exactly 1 to the rejection count and reads as the
     default; reading it again neither warns nor counts.
   - A PROTEUS_ name outside the table is warned about and counted.
   - The one-reader rule over the .ml files under lib/, bin/ and
     bench/ other than knob.ml itself: every PROTEUS_ name in a string
     literal is a table entry, and none is passed to getenv.
   - README's knob table has one row per entry, in table order, with
     the entry's class and doc.

   Dune runs this from _build/default/test, so the sources and README
   are under "..". *)

open Proteus_support

let check = Alcotest.check

(* What [f] writes to the stderr file descriptor, and its result. *)
let with_stderr f =
  let tmp = Filename.temp_file "knob" ".err" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect f ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
  in
  let out = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  (out, v)

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

(* ---- every entry ---- *)

(* a knob, a valid value with the setting it parses to, and a malformed value *)
type case = Case : 'a Knob.t * string * 'a * string -> case

let cases =
  Knob.
    [
      Case (verify, "2", 2, "3");
      Case (verify_strict, "on", true, "maybe");
      Case (spec_policy, " Advise ", Spec_advise, "some");
      Case (tier, "1", true, "2");
      Case (mem_cache_limit, "4096", 4096, "-5");
      Case (disk_cache_limit, "0", 0, "lots");
      Case (exec_domains, "3", 3, "0");
      Case (fault "fetch-bitcode", "always", Always, "sometimes");
      Case (fault "decode", "every:2", Every 2, "every:0");
      Case (fault "specialize", "nth:1", Nth 1, "nth:");
      Case (fault "specialize-corrupt", "ALWAYS", Always, "never");
      Case (fault "optimize", "nth:3", Nth 3, "nth:-3");
      Case (fault "verify", "off", Off, "of");
      Case (fault "codegen", "1", Always, "2");
      Case (fault "cache-read", "every:5", Every 5, "every:x");
      Case (fault "cache-write", "0", Off, "garbage-value");
      Case (fault "cache-lock", "nth:1", Nth 1, "nth1");
      Case (fault "disk-full", "every:3", Every 3, "every");
      Case (serve_launches, "20000", 20000, "0");
      Case (qcheck_seed, "0x2a", 42, "seed");
    ]

let test_every_entry () =
  List.iter
    (fun (Knob.Entry k) ->
      match List.find_opt (fun (Case (c, _, _, _)) -> c.Knob.name = k.Knob.name) cases with
      | None -> Alcotest.failf "%s has no case in this test" k.Knob.name
      | Some _ -> ())
    Knob.table;
  List.iter
    (fun (Case (k, valid, setting, bad)) ->
      let name = k.Knob.name in
      Unix.putenv name valid;
      check Alcotest.bool (name ^ "=" ^ valid) true (Knob.get k = setting);
      let before = Knob.rejections () in
      Unix.putenv name bad;
      let err, v = with_stderr (fun () -> Knob.get k) in
      check Alcotest.bool (name ^ " malformed reads as the default") true (v = k.Knob.default);
      check Alcotest.int (name ^ " warned once") 1 (List.length (lines err));
      check Alcotest.int (name ^ " counted once") 1 (Knob.rejections () - before);
      let err, _ = with_stderr (fun () -> Knob.get k) in
      check Alcotest.string (name ^ " not warned again") "" err;
      check Alcotest.int (name ^ " not counted again") 1 (Knob.rejections () - before);
      Unix.putenv name valid)
    cases

(* Names deleted from the table are unknown now: an operator who still
   sets one hears about it once. *)
let test_unknown_counted () =
  List.iter
    (fun (name, v) ->
      let before = Knob.rejections () in
      Unix.putenv name v;
      let err, _ = with_stderr (fun () -> Knob.get Knob.tier) in
      check Alcotest.bool (name ^ " named in the warning") true
        (Str.string_match (Str.regexp (".*" ^ name)) err 0);
      check Alcotest.int (name ^ " counted") 1 (Knob.rejections () - before);
      let err, _ = with_stderr (fun () -> Knob.get Knob.tier) in
      check Alcotest.string (name ^ " not warned again") "" err;
      check Alcotest.int (name ^ " not counted again") 1 (Knob.rejections () - before))
    [
      ("PROTEUS_RETRY_MAX", "3");
      ("PROTEUS_TENANT_QUOTA", "lots");
      ("PROTEUS_FAULT_STAGE_TIMEOUT", "always");
      ("PROTEUS_FAULT_MEM_PRESSURE", "nth:2");
    ]

(* ---- the one-reader rule ---- *)

(* [src] with comments removed, string literals kept in place, and the
   contents of each string literal ("..." and {id|...|id}). *)
let scan src =
  let n = String.length src in
  let code = Buffer.create n and lits = ref [] in
  let at i s = i + String.length s <= n && String.sub src i (String.length s) = s in
  (* i is just past the opening quote; returns the index past the closing one *)
  let rec dquote i buf =
    if i >= n then n
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' when i + 1 < n ->
          Buffer.add_string buf (String.sub src i 2);
          dquote (i + 2) buf
      | c ->
          Buffer.add_char buf c;
          dquote (i + 1) buf
  in
  (* a quoted-string opener at i: Some (body start, closing delimiter) *)
  let quoted i =
    let j = ref (i + 1) in
    while src.[i] = '{' && !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if src.[i] = '{' && !j < n && src.[!j] = '|' then
      Some (!j + 1, "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}")
    else None
  in
  let rec comment i depth =
    if i >= n then n
    else if at i "(*" then comment (i + 2) (depth + 1)
    else if at i "*)" then if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
    else if src.[i] = '"' then comment (dquote (i + 1) (Buffer.create 8)) depth
    else comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      if at i "(*" then go (comment (i + 2) 1)
      else if src.[i] = '"' then begin
        let buf = Buffer.create 16 in
        let j = dquote (i + 1) buf in
        lits := Buffer.contents buf :: !lits;
        Buffer.add_string code (String.sub src i (j - i));
        go j
      end
      else if src.[i] = '\'' && i + 2 < n && (src.[i + 1] = '\\' || src.[i + 2] = '\'') then begin
        (* a character literal: '"' must not open a string *)
        let j = try String.index_from src (i + 2) '\'' + 1 with Not_found -> n in
        Buffer.add_string code (String.sub src i (j - i));
        go j
      end
      else
        match quoted i with
        | Some (body, close) ->
            let stop = try Str.search_forward (Str.regexp_string close) src body with Not_found -> n in
            lits := String.sub src body (stop - body) :: !lits;
            go (min n (stop + String.length close))
        | None ->
            Buffer.add_char code src.[i];
            go (i + 1)
  in
  go 0;
  (Buffer.contents code, !lits)

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if f.[0] = '.' then []
         else if Sys.is_directory p then ml_files p
         else if Filename.check_suffix f ".ml" then [ p ]
         else [])

(* the table itself is the one file that may name and read any PROTEUS_ variable *)
let sources = lazy (List.concat_map ml_files [ "../lib"; "../bin"; "../bench" ])
let readers = lazy (List.filter (fun f -> Filename.basename f <> "knob.ml") (Lazy.force sources))

let all_matches re s =
  let rec go i acc =
    match Str.search_forward re s i with
    | j -> go (j + 1) (Str.matched_string s :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let test_names_in_table () =
  check Alcotest.bool "found the sources" true
    (List.length (Lazy.force readers) + 1 = List.length (Lazy.force sources));
  let name = Str.regexp "PROTEUS_[A-Z0-9_]+" in
  List.iter
    (fun f ->
      let _, lits = scan (In_channel.with_open_bin f In_channel.input_all) in
      List.iter
        (fun lit ->
          List.iter
            (fun n ->
              if not (List.exists (fun (Knob.Entry k) -> k.Knob.name = n) Knob.table) then
                Alcotest.failf "%s names %s, which is not in the knob table" f n)
            (all_matches name lit))
        lits)
    (Lazy.force readers)

let test_one_reader () =
  let call = Str.regexp "getenv[_a-z]*[ (]*\"PROTEUS_" in
  List.iter
    (fun f ->
      let code, _ = scan (In_channel.with_open_bin f In_channel.input_all) in
      if all_matches call code <> [] then
        Alcotest.failf "%s calls getenv on a PROTEUS_ name; read it through Knob.get" f)
    (Lazy.force readers)

(* Fails if a source that [exempt] does not cover names [re] outside
   comments and string literals; [fix] says where the call belongs. *)
let source_gate ~(re : Str.regexp) ~(exempt : string -> bool) ~(fix : string) =
  List.iter
    (fun f ->
      let code, _ = scan (In_channel.with_open_bin f In_channel.input_all) in
      match all_matches re code with
      | m :: _ when not (exempt f) -> Alcotest.failf "%s names %s; %s" f m fix
      | _ -> ())
    (Lazy.force sources)

(* the vendor decision (GCN straight to a binary, or PTX then ptxas)
   lives in lib/runtime/toolchain.ml: nothing outside the backend and
   that module calls a vendor's codegen or a per-vendor toolchain *)
let test_one_toolchain () =
  source_gate
    ~re:(Str.regexp "\\bPtxas\\.compile\\|\\bGcn\\.lower_kernel\\|\\b\\(Hip\\|Cuda\\)\\.")
    ~exempt:(fun f ->
      String.starts_with ~prefix:"../lib/backend/" f || f = "../lib/runtime/toolchain.ml")
    ~fix:"compile through Toolchain"

(* the domain pool runs the executor's blocks and the serve loop's
   shards, nothing else: a JIT runs its deferred tier-up compile itself,
   at its own launch boundary, so no second scheduler can grow *)
let test_one_scheduler () =
  source_gate ~re:(Str.regexp "\\bPool\\.")
    ~exempt:(fun f ->
      List.mem f [ "../lib/support/pool.ml"; "../lib/gpu/exec.ml"; "../lib/proteus/serve.ml" ])
    ~fix:"only the executor and the serve loop use the domain pool"

(* a compile waits on another compile only inside the store: the pool
   waits for its jobs, [Cachestore.compile_once] for a key another caller
   is compiling, and nothing else blocks on a condition *)
let test_one_compile_wait () =
  source_gate ~re:(Str.regexp "\\bCondition\\.")
    ~exempt:(fun f -> List.mem f [ "../lib/support/pool.ml"; "../lib/proteus/cachestore.ml" ])
    ~fix:"compile once through Cachestore.compile_once"

(* the scanner itself: a name in a comment is not a literal, one in a
   quoted string or after a '"' character literal is *)
let test_scanner () =
  let code, lits =
    scan
      "(* \"PROTEUS_A\" *) let c = '\"' let s = {|PROTEUS_B|} let t = \
       Sys.getenv \"PROTEUS_C\" (* (* nested *) *)"
  in
  check Alcotest.(list string) "literals" [ "PROTEUS_B"; "PROTEUS_C" ] (List.sort compare lits);
  check Alcotest.bool "getenv call kept" true
    (Str.string_match (Str.regexp ".*getenv \"PROTEUS_C\"") code 0);
  check Alcotest.bool "comment dropped" false
    (Str.string_match (Str.regexp ".*PROTEUS_A") code 0)

let test_readme_rows () =
  let readme = In_channel.with_open_bin "../README.md" In_channel.input_all in
  let rows =
    String.split_on_char '\n' readme
    |> List.filter (String.starts_with ~prefix:"| `PROTEUS_")
    |> List.map (fun row ->
           match String.split_on_char '|' row |> List.map String.trim with
           | [ ""; name; cls; doc; "" ] -> Printf.sprintf "%s | %s | %s" name cls doc
           | _ -> Alcotest.failf "README knob row is not | name | class | doc |: %s" row)
  in
  let table =
    List.map
      (fun (Knob.Entry k) ->
        Printf.sprintf "`%s` | %s | %s" k.Knob.name (Knob.cls_name k.Knob.cls) k.Knob.doc)
      Knob.table
  in
  check Alcotest.(list string) "README knob table = Knob.table" table rows

let () =
  Alcotest.run "knob"
    [
      ( "table",
        [
          Alcotest.test_case "every entry parses and rejects" `Quick test_every_entry;
          Alcotest.test_case "unknown names counted" `Quick test_unknown_counted;
        ] );
      ( "gate",
        [
          Alcotest.test_case "scanner" `Quick test_scanner;
          Alcotest.test_case "PROTEUS_ literals name table entries" `Quick test_names_in_table;
          Alcotest.test_case "only knob.ml reads the environment" `Quick test_one_reader;
          Alcotest.test_case "README rows match the table" `Quick test_readme_rows;
          Alcotest.test_case "only Toolchain picks a vendor backend" `Quick test_one_toolchain;
          Alcotest.test_case "only exec and serve use the domain pool" `Quick test_one_scheduler;
          Alcotest.test_case "only pool and store use Condition" `Quick test_one_compile_wait;
        ] );
    ]
