(* Hand-written lexer for Kernel-C. Produces a token array with
   positions; the parser indexes into it with arbitrary lookahead. *)

type token =
  | Tint of int64 * bool (* is_long *)
  | Tfloat of float * bool (* is_double *)
  | Tstr of string
  | Tid of string
  | Tkw of string
  | Tpunct of string
  | Teof

let keywords =
  [ "void"; "bool"; "int"; "long"; "float"; "double"; "if"; "else"; "for"; "while";
    "do"; "return"; "break"; "continue"; "const"; "true"; "false"; "extern"; "static";
    "unsigned"; "size_t";
    "__global__"; "__device__"; "__host__"; "__shared__"; "__restrict__";
    "__attribute__"; "__launch_bounds__" ]

type t = { toks : (token * Ast.pos) array }

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_id_char c = is_id_start c || is_digit c
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_keyword =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  Hashtbl.mem t

(* Multi-character punctuators, longest first. *)
let puncts =
  [ "<<<"; ">>>"; "<<="; ">>="; "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>";
    "++"; "--"; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^=";
    "+"; "-"; "*"; "/"; "%"; "="; "<"; ">"; "!"; "&"; "|"; "^"; "~"; "?"; ":";
    ","; ";"; "("; ")"; "{"; "}"; "["; "]"; "." ]

(* [puncts] bucketed by first character, each bucket still longest first. *)
let puncts_by_first =
  let t = Array.make 256 [] in
  List.iter (fun p -> t.(Char.code p.[0]) <- t.(Char.code p.[0]) @ [ p ]) puncts;
  t

(* The longest punctuator at [src.[i]], compared in place. *)
let punct_at src i =
  let n = String.length src in
  let rec matches p k = k = String.length p || (src.[i + k] = p.[k] && matches p (k + 1)) in
  List.find_opt
    (fun p -> i + String.length p <= n && matches p 1)
    puncts_by_first.(Char.code src.[i])

let tokenize (src : string) : t =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and bol = ref 0 in
  let i = ref 0 in
  let pos () = { Ast.line = !line; col = !i - !bol + 1 } in
  let err fmt = Ast.error (pos ()) fmt in
  let push t p = toks := (t, p) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\n' then begin
          incr line;
          incr i;
          bol := !i
        end
        else if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          i := !i + 2;
          closed := true
        end
        else incr i
      done;
      if not !closed then err "unterminated comment"
    end
    else if is_id_start c then begin
      let p = pos () in
      let start = !i in
      while !i < n && is_id_char src.[!i] do
        incr i
      done;
      let s = String.sub src start (!i - start) in
      push (if is_keyword s then Tkw s else Tid s) p
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let p = pos () in
      let start = !i in
      if c = '0' && !i + 1 < n && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X') then begin
        i := !i + 2;
        while !i < n && is_hex src.[!i] do
          incr i
        done;
        let s = String.sub src start (!i - start) in
        let v = Int64.of_string s in
        let is_long =
          if !i < n && (src.[!i] = 'l' || src.[!i] = 'L') then (incr i; true) else false
        in
        push (Tint (v, is_long)) p
      end
      else begin
        let is_float = ref false in
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        if !i < n && src.[!i] = '.' then begin
          is_float := true;
          incr i;
          while !i < n && is_digit src.[!i] do
            incr i
          done
        end;
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          is_float := true;
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          while !i < n && is_digit src.[!i] do
            incr i
          done
        end;
        let s = String.sub src start (!i - start) in
        if !is_float then begin
          let is_double =
            if !i < n && (src.[!i] = 'f' || src.[!i] = 'F') then (incr i; false) else true
          in
          push (Tfloat (float_of_string s, is_double)) p
        end
        else begin
          if !i < n && (src.[!i] = 'f' || src.[!i] = 'F') then begin
            incr i;
            push (Tfloat (float_of_string s, false)) p
          end
          else
            let is_long =
              if !i < n && (src.[!i] = 'l' || src.[!i] = 'L') then (incr i; true)
              else false
            in
            push (Tint (Int64.of_string s, is_long)) p
        end
      end
    end
    else if c = '"' then begin
      let p = pos () in
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        if c = '"' then begin
          incr i;
          closed := true
        end
        else if c = '\\' && !i + 1 < n then begin
          (match src.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | '0' -> Buffer.add_char buf '\000'
          | c -> Buffer.add_char buf c);
          i := !i + 2
        end
        else begin
          Buffer.add_char buf c;
          incr i
        end
      done;
      if not !closed then err "unterminated string literal";
      push (Tstr (Buffer.contents buf)) p
    end
    else begin
      let p = pos () in
      match punct_at src !i with
      | Some s ->
          i := !i + String.length s;
          push (Tpunct s) p
      | None -> err "unexpected character %C" c
    end
  done;
  push Teof (pos ());
  { toks = Array.of_list (List.rev !toks) }

let token_to_string = function
  | Tint (v, _) -> Int64.to_string v
  | Tfloat (v, _) -> string_of_float v
  | Tstr s -> Printf.sprintf "%S" s
  | Tid s -> s
  | Tkw s -> s
  | Tpunct s -> Printf.sprintf "'%s'" s
  | Teof -> "<eof>"
