(* JSON for every machine-readable output: one value type, one printer
   and one strict reader. The bench harness, `proteus bench --json`,
   SpecAdvisor's machine report, the SARIF exports and the serve
   workload dumps all build a [t] and print it with [to_string];
   bench_check and the workload replay read with [parse].

   The printer is compact (no whitespace) and deterministic: object
   fields keep their order. Integers print without a fraction, other
   numbers in the shortest form that parses back to the same float,
   and non-finite numbers (the NaN of an n/a cell) as null.

   The reader is strict: RFC 8259 numbers only, exactly four hex
   digits after \u and only ASCII code points there, no raw control
   characters in strings, no duplicate object keys and no trailing
   bytes. Every failure raises [Error] with the byte position. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let int i = Num (float_of_int i)

(* ---- printer ---- *)

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string (f : float) : string =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else
    let round_trips s = float_of_string s = f in
    let s15 = Printf.sprintf "%.15g" f in
    if round_trips s15 then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if round_trips s16 then s16 else Printf.sprintf "%.17g" f

let to_string (v : t) : string =
  let b = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj fs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            go (Str k);
            Buffer.add_char b ':';
            go x)
          fs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---- strict reader ---- *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | Some x -> error "at byte %d: expected %c, found %c" !pos c x
    | None -> error "at byte %d: expected %c, found end of input" !pos c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin pos := !pos + l; v end
    else error "at byte %d: expected %s" !pos word
  in
  let hex_digit () =
    let d =
      match peek () with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> error "at byte %d: \\u escape needs four hex digits" !pos
    in
    advance ();
    d
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "at byte %d: unterminated string" !pos
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'u' ->
              let at = !pos - 1 in
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                code := (!code lsl 4) lor hex_digit ()
              done;
              (* every producer writes ASCII escapes; reject anything exotic *)
              if !code > 127 then error "at byte %d: non-ASCII \\u escape" at;
              Buffer.add_char b (Char.chr !code)
          | _ -> error "at byte %d: bad escape" !pos);
          go ()
      | Some c when Char.code c < 0x20 ->
          error "at byte %d: raw control character in string" !pos
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then error "at byte %d: malformed number" start
    in
    if peek () = Some '-' then advance ();
    (match peek () with Some '0' -> advance () | _ -> digits ());
    if peek () = Some '.' then begin advance (); digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> error "at byte %d: unexpected %c" !pos c
    | None -> error "at byte %d: unexpected end of input" !pos
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin advance (); Arr [] end
    else begin
      let items = ref [ value () ] in
      skip_ws ();
      while peek () = Some ',' do
        advance ();
        items := value () :: !items;
        skip_ws ()
      done;
      expect ']';
      Arr (List.rev !items)
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin advance (); Obj [] end
    else begin
      let fields = ref [] in
      let field () =
        skip_ws ();
        let at = !pos in
        let k = string_lit () in
        if List.mem_assoc k !fields then error "at byte %d: duplicate key %S" at k;
        skip_ws ();
        expect ':';
        fields := (k, value ()) :: !fields;
        skip_ws ()
      in
      field ();
      while peek () = Some ',' do
        advance ();
        field ()
      done;
      expect '}';
      Obj (List.rev !fields)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then error "at byte %d: trailing bytes after the JSON value" !pos;
  v

(* ---- accessors: [what] names the value in the error message ---- *)

let field (v : t) (name : string) : t =
  match v with
  | Obj fs -> (
      match List.assoc_opt name fs with
      | Some x -> x
      | None -> error "missing field %S" name)
  | _ -> error "expected an object with field %S" name

let to_bool what = function Bool b -> b | _ -> error "%s: expected a boolean" what
let to_str what = function Str s -> s | _ -> error "%s: expected a string" what
let to_num what = function Num f -> f | _ -> error "%s: expected a number" what
let to_list what = function Arr xs -> xs | _ -> error "%s: expected an array" what

let to_int what v =
  let f = to_num what v in
  let i = int_of_float f in
  if float_of_int i = f then i else error "%s: expected an integer" what
