(* Tests for the support library: hashing, vectors, byte IO, RNG, JSON. *)

open Proteus_support

let check = Alcotest.check
let qtest = Qseed.qtest

(* ---- FNV hashing ---- *)

let test_fnv_deterministic () =
  check Alcotest.string "same input, same hash" (Util.hash_hex "proteus")
    (Util.hash_hex "proteus")

let test_fnv_distinguishes () =
  Alcotest.(check bool)
    "different inputs differ" false
    (Util.hash_hex "daxpy" = Util.hash_hex "daxpz")

let test_fnv_empty () =
  check Alcotest.string "empty string hashes the offset basis"
    (Util.Fnv.to_hex Util.Fnv.offset_basis)
    (Util.hash_hex "")

let test_fnv_int64_order () =
  let h1 = Util.Fnv.add_int64 (Util.Fnv.add_int64 Util.Fnv.offset_basis 1L) 2L in
  let h2 = Util.Fnv.add_int64 (Util.Fnv.add_int64 Util.Fnv.offset_basis 2L) 1L in
  Alcotest.(check bool) "order matters" false (Int64.equal h1 h2)

(* add_int64 and to_hex work on 32-bit halves; the references take
   the bytes one at a time and print with %016Lx *)
let qcheck_fnv_halves =
  let bytewise h x =
    let h = ref h in
    for i = 0 to 7 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL))
          Util.Fnv.prime
    done;
    !h
  in
  QCheck.Test.make ~name:"fnv add_int64 and to_hex = bytewise references" ~count:500
    QCheck.(
      pair
        (frequency [ (1, always 0L); (1, always (-1L)); (1, always Int64.min_int); (7, int64) ])
        (frequency [ (1, always (-1L)); (1, always Int64.max_int); (8, int64) ]))
    (fun (h, x) ->
      Int64.equal (Util.Fnv.add_int64 h x) (bytewise h x)
      && Util.Fnv.to_hex x = Printf.sprintf "%016Lx" x)

let qcheck_fnv_hex_len =
  QCheck.Test.make ~name:"fnv hex digest is 16 chars" ~count:200
    QCheck.string
    (fun s -> String.length (Util.hash_hex s) = 16)

(* ---- Pool ---- *)

(* The default domain count is read once, at start-up: two domains
   reading it at the same time see what a serial read sees, and that
   is the environment's value. *)
let test_pool_default_domains () =
  let go = Atomic.make false in
  let read () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Pool.default_domains ()
  in
  let d1 = Domain.spawn read and d2 = Domain.spawn read in
  Atomic.set go true;
  let a = Domain.join d1 and b = Domain.join d2 in
  let serial = Pool.default_domains () in
  check Alcotest.int "first domain" serial a;
  check Alcotest.int "second domain" serial b;
  check Alcotest.int "the environment's value" (Knob.get Knob.exec_domains) serial

(* ---- Vec ---- *)

let test_vec_push_get () =
  let v = Util.Vec.create 0 in
  for i = 0 to 99 do
    Util.Vec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Util.Vec.length v);
  check Alcotest.int "get 7" 49 (Util.Vec.get v 7);
  Util.Vec.set v 7 1234;
  check Alcotest.int "set/get" 1234 (Util.Vec.get v 7)

let test_vec_bounds () =
  let v = Util.Vec.create 0 in
  Util.Vec.push v 1;
  Alcotest.check_raises "get out of bounds" (Failure "Vec.get: index 1 out of bounds 1")
    (fun () -> ignore (Util.Vec.get v 1))

let test_vec_copy_independent () =
  let v = Util.Vec.of_list 0 [ 1; 2; 3 ] in
  let w = Util.Vec.copy v in
  Util.Vec.set w 0 99;
  check Alcotest.int "original unchanged" 1 (Util.Vec.get v 0);
  check Alcotest.int "copy changed" 99 (Util.Vec.get w 0)

let test_vec_to_list () =
  let v = Util.Vec.of_list 0 [ 5; 6; 7 ] in
  check Alcotest.(list int) "roundtrip" [ 5; 6; 7 ] (Util.Vec.to_list v)

(* ---- Bytesio ---- *)

let roundtrip_w_r fw fr x =
  let w = Util.Bytesio.W.create () in
  fw w x;
  let r = Util.Bytesio.R.create (Util.Bytesio.W.contents w) in
  fr r

let test_bytesio_ints () =
  List.iter
    (fun x ->
      let y = roundtrip_w_r Util.Bytesio.W.u64 Util.Bytesio.R.u64 x in
      check Alcotest.int64 "u64 roundtrip" x y)
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xdeadbeefL ]

let test_bytesio_str () =
  List.iter
    (fun s ->
      let t = roundtrip_w_r Util.Bytesio.W.str Util.Bytesio.R.str s in
      check Alcotest.string "str roundtrip" s t)
    [ ""; "a"; "hello\000world"; String.make 1000 'x' ]

let test_bytesio_truncated () =
  let r = Util.Bytesio.R.create "\001" in
  Alcotest.check_raises "truncated u64"
    (Failure "Bytesio.R.u8: truncated input")
    (fun () -> ignore (Util.Bytesio.R.u64 r))

let qcheck_bytesio_i64 =
  QCheck.Test.make ~name:"bytesio u64 roundtrip" ~count:500 QCheck.int64 (fun x ->
      Int64.equal x (roundtrip_w_r Util.Bytesio.W.u64 Util.Bytesio.R.u64 x))

let qcheck_bytesio_f64 =
  QCheck.Test.make ~name:"bytesio f64 roundtrip" ~count:500 QCheck.float (fun x ->
      let y = roundtrip_w_r Util.Bytesio.W.f64 Util.Bytesio.R.f64 x in
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))

let qcheck_bytesio_list =
  QCheck.Test.make ~name:"bytesio string list roundtrip" ~count:200
    QCheck.(small_list string)
    (fun xs ->
      let w = Util.Bytesio.W.create () in
      Util.Bytesio.W.list w Util.Bytesio.W.str xs;
      let r = Util.Bytesio.R.create (Util.Bytesio.W.contents w) in
      Util.Bytesio.R.list r Util.Bytesio.R.str = xs)

let test_bytesio_option () =
  let t v =
    let w = Util.Bytesio.W.create () in
    Util.Bytesio.W.option w Util.Bytesio.W.int v;
    let r = Util.Bytesio.R.create (Util.Bytesio.W.contents w) in
    check Alcotest.(option int) "option" v (Util.Bytesio.R.option r Util.Bytesio.R.int)
  in
  t None;
  t (Some 42);
  t (Some (-7))

(* ---- misc helpers ---- *)

let test_to_f32 () =
  (* 0.1 is not representable in f32; check it rounds *)
  Alcotest.(check bool) "f32 rounding" false (Util.to_f32 0.1 = 0.1);
  Alcotest.(check (float 0.0)) "exact halves survive" 0.5 (Util.to_f32 0.5)

let test_pow2_log2 () =
  check Alcotest.(option int) "8" (Some 3) (Util.pow2_log2 8L);
  check Alcotest.(option int) "1" (Some 0) (Util.pow2_log2 1L);
  check Alcotest.(option int) "6" None (Util.pow2_log2 6L);
  check Alcotest.(option int) "0" None (Util.pow2_log2 0L);
  check Alcotest.(option int) "-8" None (Util.pow2_log2 (-8L));
  check Alcotest.(option int) "2^40" (Some 40) (Util.pow2_log2 (Int64.shift_left 1L 40))

let test_round_up () =
  check Alcotest.int "round up" 16 (Util.round_up 9 8);
  check Alcotest.int "already aligned" 8 (Util.round_up 8 8);
  check Alcotest.int "zero" 0 (Util.round_up 0 8)

let test_clamp () =
  check Alcotest.int "low" 1 (Util.clamp 1 5 0);
  check Alcotest.int "high" 5 (Util.clamp 1 5 9);
  check Alcotest.int "mid" 3 (Util.clamp 1 5 3)

let test_human_bytes () =
  check Alcotest.string "bytes" "512B" (Util.human_bytes 512);
  check Alcotest.string "kb" "5.9KB" (Util.human_bytes 6041);
  check Alcotest.string "mb" "2.0MB" (Util.human_bytes (2 * 1024 * 1024))

let test_list_index_of () =
  check Alcotest.(option int) "found" (Some 1) (Util.list_index_of (( = ) 5) [ 4; 5; 6 ]);
  check Alcotest.(option int) "missing" None (Util.list_index_of (( = ) 9) [ 4; 5; 6 ])

(* ---- popcount ---- *)

let popcount_spec (x : int64) =
  let n = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr n
  done;
  !n

let test_popcount_edges () =
  check Alcotest.int "zero" 0 (Util.popcount64 0L);
  check Alcotest.int "all ones" 64 (Util.popcount64 (-1L));
  check Alcotest.int "one" 1 (Util.popcount64 1L);
  check Alcotest.int "msb" 1 (Util.popcount64 Int64.min_int);
  check Alcotest.int "max_int" 63 (Util.popcount64 Int64.max_int);
  check Alcotest.int "alternating" 32 (Util.popcount64 0x5555555555555555L);
  check Alcotest.int "bytes" 8 (Util.popcount64 0x0101010101010101L)

let qcheck_popcount_matches_spec =
  QCheck.Test.make ~name:"popcount64 matches bit-loop spec" ~count:1000 QCheck.int64
    (fun x -> Util.popcount64 x = popcount_spec x)

let qcheck_popcount_shift =
  QCheck.Test.make ~name:"popcount64 invariant under shift-in of zeros" ~count:500
    QCheck.(pair int64 (int_range 0 63))
    (fun (x, k) ->
      (* shifting out k bits removes exactly the bits shifted out *)
      let low = Int64.shift_right_logical (Int64.shift_left x (64 - k)) (64 - k) in
      let low = if k = 0 then 0L else low in
      Util.popcount64 x
      = Util.popcount64 (Int64.shift_right_logical x k) + Util.popcount64 low)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 10 do
    check Alcotest.int64 "same stream" (Util.Rng.next a) (Util.Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Int64.equal (Util.Rng.next a) (Util.Rng.next b))

let qcheck_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:200 QCheck.small_int (fun seed ->
      let r = Util.Rng.create seed in
      let x = Util.Rng.float r in
      x >= 0.0 && x < 1.0)

let qcheck_rng_int_range =
  QCheck.Test.make ~name:"rng int in [0,bound)" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Util.Rng.create seed in
      let x = Util.Rng.int r bound in
      x >= 0 && x < bound)

(* ---- JSON ---- *)

let test_json_printer () =
  let cases =
    [
      (Json.Num 3.0, "3");
      (Json.Num (-2.0), "-2");
      (Json.int 1_000_000, "1000000");
      (Json.Num 0.1, "0.1");
      (Json.Num 0.30000000000000004, "0.30000000000000004");
      (Json.Num 1e300, "1e+300");
      (Json.Num (-2.5e-7), "-2.5e-07");
      (Json.Num Float.nan, "null");
      (Json.Num Float.infinity, "null");
      (Json.Str "a\"b\\c\n\t\001/", {|"a\"b\\c\n\t\u0001/"|});
      ( Json.Obj [ ("k", Json.Arr [ Json.Null; Json.Bool true ]); ("e", Json.Obj []) ],
        {|{"k":[null,true],"e":{}}|} );
    ]
  in
  List.iter (fun (v, want) -> check Alcotest.string want want (Json.to_string v)) cases

let test_json_reader () =
  let v = Json.parse {| { "a" : [1, -2.5e3, "xA\/"], "b": null } |} in
  Alcotest.(check bool) "parsed tree" true
    (v
    = Json.Obj
        [
          ("a", Json.Arr [ Json.Num 1.0; Json.Num (-2500.0); Json.Str "xA/" ]);
          ("b", Json.Null);
        ]);
  check Alcotest.int "to_int" 1
    (Json.to_int "a0" (List.hd (Json.to_list "a" (Json.field v "a"))));
  let raises f = match f () with _ -> false | exception Json.Error _ -> true in
  Alcotest.(check bool) "to_int rejects a fraction" true
    (raises (fun () -> Json.to_int "n" (Json.Num 1.5)));
  Alcotest.(check bool) "missing field" true (raises (fun () -> Json.field v "c"));
  Alcotest.(check bool) "wrong type" true
    (raises (fun () -> Json.to_str "b" (Json.field v "b")))

let test_json_rejects_malformed () =
  List.iter
    (fun (what, src) ->
      match Json.parse src with
      | _ -> Alcotest.failf "%s: %S parsed" what src
      | exception Json.Error _ -> ())
    [
      ("non-hex \\u digits", {|["a\uZZZZ"]|});
      ("underscore in \\u", {|"\u0_41"|});
      ("short \\u", {|"\u41"|});
      ("non-ASCII \\u", {|"\u00e9"|});
      ("unterminated string", {|["abc|});
      ("raw control character", "\"a\001\"");
      ("bad escape", {|"\x"|});
      ("trailing bytes", {|{"a": 1} x|});
      ("two values", "1 2");
      ("bare minus", "-");
      ("leading zero", "01");
      ("bare fraction point", "1.");
      ("empty exponent", "1e");
      ("leading point", ".5");
      ("duplicate key", {|{"a": 1, "a": 2}|});
      ("trailing comma", "[1,]");
      ("missing colon", {|{"a" 1}|});
      ("bad literal", "nul");
      ("empty input", "");
    ]

(* random trees over the characters and numbers the escaper and the
   shortest-float printer have to get right *)
let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let special = oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\000'; '\031'; '\127'; '\200' ] in
  let chr = oneof [ special; printable ] in
  let str = string_size ~gen:chr (int_range 0 8) in
  let num =
    oneof
      [
        map float_of_int int;
        map (fun f -> if Float.is_finite f then f else 0.0) float;
        map2
          (fun m e -> m *. (10.0 ** float_of_int e))
          (float_range (-10.0) 10.0) (int_range (-300) 300);
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n <= 0 then leaf
         else
           let kids = list_size (int_range 0 4) (self (n / 4)) in
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.Arr xs) kids);
               ( 1,
                 map
                   (fun fs ->
                     (* the reader rejects duplicate keys: keep the first *)
                     Json.Obj
                       (List.fold_left
                          (fun acc (k, v) ->
                            if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
                          [] fs))
                   (list_size (int_range 0 4) (pair str (self (n / 4)))) );
             ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = v)

let () =
  Alcotest.run "support"
    [
      ( "fnv",
        [
          Alcotest.test_case "deterministic" `Quick test_fnv_deterministic;
          Alcotest.test_case "distinguishes" `Quick test_fnv_distinguishes;
          Alcotest.test_case "empty" `Quick test_fnv_empty;
          Alcotest.test_case "order-sensitive" `Quick test_fnv_int64_order;
          qtest qcheck_fnv_hex_len;
          qtest qcheck_fnv_halves;
        ] );
      ("pool", [ Alcotest.test_case "default domains read once" `Quick test_pool_default_domains ]);
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "copy independence" `Quick test_vec_copy_independent;
          Alcotest.test_case "to_list" `Quick test_vec_to_list;
        ] );
      ( "bytesio",
        [
          Alcotest.test_case "ints" `Quick test_bytesio_ints;
          Alcotest.test_case "strings" `Quick test_bytesio_str;
          Alcotest.test_case "truncated input" `Quick test_bytesio_truncated;
          Alcotest.test_case "options" `Quick test_bytesio_option;
          qtest qcheck_bytesio_i64;
          qtest qcheck_bytesio_f64;
          qtest qcheck_bytesio_list;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "to_f32" `Quick test_to_f32;
          Alcotest.test_case "pow2_log2" `Quick test_pow2_log2;
          Alcotest.test_case "round_up" `Quick test_round_up;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "human_bytes" `Quick test_human_bytes;
          Alcotest.test_case "list_index_of" `Quick test_list_index_of;
        ] );
      ( "popcount",
        [
          Alcotest.test_case "edge values" `Quick test_popcount_edges;
          qtest qcheck_popcount_matches_spec;
          qtest qcheck_popcount_shift;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed-sensitive" `Quick test_rng_seed_sensitivity;
          qtest qcheck_rng_float_range;
          qtest qcheck_rng_int_range;
        ] );
      ( "json",
        [
          Alcotest.test_case "printer" `Quick test_json_printer;
          Alcotest.test_case "reader and accessors" `Quick test_json_reader;
          Alcotest.test_case "malformed inputs rejected" `Quick test_json_rejects_malformed;
          qtest qcheck_json_roundtrip;
        ] );
    ]
