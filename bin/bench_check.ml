(* Golden checker, run from the @bench-smoke, @advise, @perflint,
   @transval and @serve-bench aliases (part of runtest):
   `bench_check --golden GOLDEN FILE` parses both reports with the
   strict reader in Proteus_support.Json and compares them as trees,
   the wall-clock fields left out. Every other value is pinned exactly;
   the semantic gates (perf-validate agreement, TransVal refutations,
   serve replay and isolation) are the producers' exit codes. *)

open Proteus_support.Json

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The wall-clock fields: the only part of a validate, advise or serve
   report that differs between two runs of one commit. *)
let wall_fields = [ "advise_ms"; "validate_ms"; "targets"; "total_wall_s"; "wall_s" ]

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
  let golden = read_file golden_path in
  match first_diff "$" (strip_wall (parse golden)) (strip_wall (parse fresh)) with
  | None -> Printf.printf "bench_check: %s matches %s\n" path golden_path
  | Some at ->
      Printf.eprintf "bench_check: %s differs from %s at %s; fresh output:\n%s\n" path
        golden_path at fresh;
      exit 1

let () =
  match Sys.argv with
  | [| _; "--golden"; golden; path |] -> (
      try check_golden golden path (read_file path)
      with Error msg ->
        Printf.eprintf "bench_check: %s: %s\n" path msg;
        exit 1)
  | _ ->
      prerr_endline "usage: bench_check --golden GOLDEN.json FILE.json";
      exit 2
