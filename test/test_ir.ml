(* Tests for the IR: types, constants, construction, verifier, bitcode,
   CFG analyses (dominators, loops) and the reference interpreter. *)

open Proteus_support
open Proteus_ir

let check = Alcotest.check
let qtest = Qseed.qtest

(* ------------------------------------------------------------------ *)
(* Types *)

let test_type_sizes () =
  check Alcotest.int "i32" 4 (Types.size_of Types.i32);
  check Alcotest.int "i64" 8 (Types.size_of Types.i64);
  check Alcotest.int "f32" 4 (Types.size_of Types.f32);
  check Alcotest.int "f64" 8 (Types.size_of Types.f64);
  check Alcotest.int "ptr" 8 (Types.size_of (Types.ptr Types.f64));
  check Alcotest.int "bool" 1 (Types.size_of Types.TBool);
  check Alcotest.int "array" 32 (Types.size_of (Types.TArr (Types.f64, 4)))

let test_type_equal () =
  Alcotest.(check bool) "ptr eq" true
    (Types.equal (Types.ptr Types.f32) (Types.ptr Types.f32));
  Alcotest.(check bool) "ptr ne pointee" false
    (Types.equal (Types.ptr Types.f32) (Types.ptr Types.f64));
  Alcotest.(check bool) "space matters" false
    (Types.equal (Types.ptr ~space:Types.AS_shared Types.f32) (Types.ptr Types.f32))

let test_type_roundtrip () =
  List.iter
    (fun t ->
      let w = Util.Bytesio.W.create () in
      Types.encode w t;
      let r = Util.Bytesio.R.create (Util.Bytesio.W.contents w) in
      Alcotest.(check bool) (Types.to_string t) true (Types.equal t (Types.decode r)))
    [ Types.TVoid; Types.TBool; Types.i32; Types.i64; Types.f32; Types.f64;
      Types.ptr Types.f64; Types.TArr (Types.TInt 8, 17);
      Types.TPtr (Types.TPtr (Types.i32, Types.AS_global), Types.AS_scratch) ]

(* ------------------------------------------------------------------ *)
(* Constants *)

let test_konst_int_norm () =
  match Konst.kint ~bits:32 0xFFFFFFFFL with
  | Konst.KInt (v, 32) -> check Alcotest.int64 "wraps to -1" (-1L) v
  | _ -> Alcotest.fail "expected KInt"

let test_konst_binops () =
  let i32 v = Konst.kint ~bits:32 v in
  check Alcotest.int64 "add wraps" (Int64.of_int32 (Int32.add Int32.max_int 1l))
    (Konst.as_int (Konst.binop Ops.Add (i32 (Int64.of_int32 Int32.max_int)) (i32 1L)));
  check Alcotest.int64 "sdiv by zero is 0 (GPU semantics)" 0L
    (Konst.as_int (Konst.binop Ops.SDiv (i32 5L) (i32 0L)));
  check Alcotest.int64 "srem" 2L (Konst.as_int (Konst.binop Ops.SRem (i32 17L) (i32 5L)));
  check Alcotest.int64 "shl masks shift amount" 2L
    (Konst.as_int (Konst.binop Ops.Shl (i32 1L) (i32 33L)));
  check Alcotest.int64 "lshr is unsigned" 0x7FFFFFFFL
    (Konst.as_int (Konst.binop Ops.LShr (i32 (-1L)) (i32 1L)));
  check Alcotest.int64 "ashr is signed" (-1L)
    (Konst.as_int (Konst.binop Ops.AShr (i32 (-1L)) (i32 1L)))

let test_konst_float_f32_rounds () =
  let a = Konst.kf32 0.1 and b = Konst.kf32 0.2 in
  match Konst.binop Ops.FAdd a b with
  | Konst.KFloat (v, 32) ->
      Alcotest.(check bool) "result is f32-rounded" true (v = Util.to_f32 v)
  | _ -> Alcotest.fail "expected f32"

let test_konst_cmp () =
  Alcotest.(check bool) "slt" true
    (Konst.as_bool (Konst.cmpop Ops.CLt (Konst.ki32 (-3)) (Konst.ki32 2)));
  Alcotest.(check bool) "float eq" false
    (Konst.as_bool (Konst.cmpop Ops.CEq (Konst.kf64 0.1) (Konst.kf64 0.2)))

let test_konst_cast () =
  check Alcotest.int64 "trunc i64->i32" (-1L)
    (Konst.as_int (Konst.cast Ops.Trunc (Konst.kint ~bits:64 0xFFFFFFFFL) Types.i32));
  check Alcotest.int64 "fptosi" 3L
    (Konst.as_int (Konst.cast Ops.FpToSi (Konst.kf64 3.7) Types.i64));
  (match Konst.cast Ops.SiToFp (Konst.ki32 7) Types.f32 with
  | Konst.KFloat (7.0, 32) -> ()
  | k -> Alcotest.failf "sitofp got %s" (Konst.to_string k));
  check Alcotest.int64 "zext i32->i64 (unsigned)" 0xFFFFFFFFL
    (Konst.as_int (Konst.cast Ops.Zext (Konst.kint ~bits:32 (-1L)) Types.i64));
  check Alcotest.int64 "sext i32->i64 (signed)" (-1L)
    (Konst.as_int (Konst.cast Ops.Sext (Konst.kint ~bits:32 (-1L)) Types.i64))

let qcheck_konst_add_matches_int32 =
  QCheck.Test.make ~name:"i32 add matches Int32 semantics" ~count:500
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      let k =
        Konst.binop Ops.Add
          (Konst.kint ~bits:32 (Int64.of_int32 a))
          (Konst.kint ~bits:32 (Int64.of_int32 b))
      in
      Int64.equal (Konst.as_int k) (Int64.of_int32 (Int32.add a b)))

let qcheck_konst_mul_matches_int32 =
  QCheck.Test.make ~name:"i32 mul matches Int32 semantics" ~count:500
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      let k =
        Konst.binop Ops.Mul
          (Konst.kint ~bits:32 (Int64.of_int32 a))
          (Konst.kint ~bits:32 (Int64.of_int32 b))
      in
      Int64.equal (Konst.as_int k) (Int64.of_int32 (Int32.mul a b)))

let qcheck_konst_roundtrip =
  let gen =
    QCheck.oneof
      [
        QCheck.map (fun b -> Konst.kbool b) QCheck.bool;
        QCheck.map (fun v -> Konst.kint ~bits:32 (Int64.of_int32 v)) QCheck.int32;
        QCheck.map (fun v -> Konst.kint ~bits:64 v) QCheck.int64;
        QCheck.map (fun v -> Konst.kf64 v) QCheck.float;
      ]
  in
  QCheck.Test.make ~name:"konst encode/decode roundtrip" ~count:300 gen (fun k ->
      let w = Util.Bytesio.W.create () in
      Konst.encode w k;
      let r = Util.Bytesio.R.create (Util.Bytesio.W.contents w) in
      Konst.equal k (Konst.decode r))

(* ------------------------------------------------------------------ *)
(* Module construction helpers *)

let build_abs_add () =
  let f =
    Ir.create_func ~kind:Ir.Device "abs_add"
      [ ("x", Types.i32); ("y", Types.i32) ]
      Types.i32
  in
  let b = Builder.create f in
  let x = Ir.Reg (snd (List.nth f.Ir.params 0)) in
  let y = Ir.Reg (snd (List.nth f.Ir.params 1)) in
  let neg = Builder.new_block b "neg" in
  let join = Builder.new_block b "join" in
  let c = Builder.cmp b Ops.CLt x (Ir.Imm (Konst.ki32 0)) in
  Builder.cond_br b c neg.Ir.label join.Ir.label;
  Builder.position_at b neg;
  let nx = Builder.bin b Ops.Sub Types.i32 (Ir.Imm (Konst.ki32 0)) x in
  Builder.br b join.Ir.label;
  Builder.position_at b join;
  let phi = Builder.phi b Types.i32 [ ("entry", x); ("neg", nx) ] in
  let r = Builder.bin b Ops.Add Types.i32 phi y in
  Builder.ret b (Some r);
  f

let module_with fs =
  { Ir.mid = "test"; mname = "test"; mtarget = Ir.TDevice; globals = []; funcs = fs;
    annotations = []; ctors = []; mgen = 0 }

let null_env () =
  Interp.make_env
    ~load:(fun _ _ -> Alcotest.fail "no memory in this test")
    ~store:(fun _ _ _ -> Alcotest.fail "no memory in this test")
    ~extern:(fun n _ -> Alcotest.failf "unexpected extern %s" n)
    ~global_addr:(fun n -> Alcotest.failf "unexpected global %s" n)
    ~alloca:(fun _ _ -> Alcotest.fail "no alloca in this test")
    ()

let test_build_and_interp () =
  let f = build_abs_add () in
  let m = module_with [ f ] in
  Verify.verify_module m;
  let run x y =
    match Interp.run (null_env ()) m "abs_add" [ Konst.ki32 x; Konst.ki32 y ] with
    | Some k -> Int64.to_int (Konst.as_int k)
    | None -> Alcotest.fail "no result"
  in
  check Alcotest.int "abs(-5)+3" 8 (run (-5) 3);
  check Alcotest.int "abs(4)+1" 5 (run 4 1)

let qcheck_abs_add =
  let f = build_abs_add () in
  let m = module_with [ f ] in
  QCheck.Test.make ~name:"abs_add agrees with spec" ~count:200
    QCheck.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (x, y) ->
      match Interp.run (null_env ()) m "abs_add" [ Konst.ki32 x; Konst.ki32 y ] with
      | Some k -> Int64.to_int (Konst.as_int k) = abs x + y
      | None -> false)

let test_use_counts_and_replace () =
  let f = build_abs_add () in
  let x_reg = snd (List.nth f.Ir.params 0) in
  let uses = Ir.use_counts f in
  check Alcotest.int "x used 3 times" 3 uses.(x_reg);
  Ir.replace_uses f x_reg (Ir.Imm (Konst.ki32 7));
  let uses' = Ir.use_counts f in
  check Alcotest.int "x uses gone" 0 uses'.(x_reg)

let test_clone_independent () =
  let f = build_abs_add () in
  let g = Ir.clone_func f in
  (Ir.entry g).Ir.insts <- [];
  Alcotest.(check bool) "original keeps instructions" true
    ((Ir.entry f).Ir.insts <> [])

(* ------------------------------------------------------------------ *)
(* Intrinsic names *)

(* The hashed classification answers exactly what membership in the
   name lists answers, for every intrinsic and for near misses. *)
let test_intrinsic_classification () =
  let open Ir.Intrinsics in
  let queries =
    [ tid_x; tid_y; tid_z; ctaid_x; ctaid_y; ctaid_z; ntid_x; ntid_y; ntid_z;
      nctaid_x; nctaid_y; nctaid_z ]
  and atoms = [ atomic_add_f32; atomic_add_f64; atomic_add_i32 ] in
  check Alcotest.(list string) "the 12 queries" queries gpu_queries;
  check Alcotest.(list string) "the 3 atomics" atoms atomics;
  let math = math_unary @ math_binary @ math_ternary in
  let near_misses = [ "math.sqr"; "math.sqrtx"; "gpu.tid.w"; ""; "serve_k0" ] in
  List.iter
    (fun n ->
      let is l = List.mem n l in
      let expect what want got = check Alcotest.bool (Printf.sprintf "%S %s" n what) want got in
      expect "is_math" (is math) (is_math n);
      expect "is_gpu_query" (is queries) (is_gpu_query n);
      expect "is_atomic" (is atoms) (is_atomic n);
      expect "is_pure" (is math || is queries) (is_pure n);
      expect "is_intrinsic"
        (is math || is queries || is atoms || n = barrier || n = dbg_loc)
        (is_intrinsic n);
      let arity = match classify n with Some (Math k) -> k | _ -> 0 in
      check Alcotest.int (Printf.sprintf "%S arity" n)
        (if is math_unary then 1
         else if is math_binary then 2
         else if is math_ternary then 3
         else 0)
        arity;
      expect "is barrier" (n = barrier) (classify n = Some Barrier);
      expect "is dbg.loc" (n = dbg_loc) (classify n = Some Dbg_loc))
    (math @ queries @ atoms @ [ barrier; dbg_loc ] @ near_misses)

(* ------------------------------------------------------------------ *)
(* Verifier *)

(* The verifier rejects [f] with exactly the diagnostics [diags]. *)
let expect_invalid name f diags =
  let m = module_with [ f ] in
  match Verify.check m with
  | Error errs -> check Alcotest.(list string) (name ^ ": diagnostics") diags errs
  | Ok () -> Alcotest.failf "%s: verifier accepted invalid IR" name

let test_verify_undefined_reg () =
  let f = Ir.create_func "bad" [] Types.i32 in
  let b = Builder.create f in
  let bogus = Ir.fresh_reg f Types.i32 in
  Builder.ret b (Some (Ir.Reg bogus));
  expect_invalid "undefined reg" f [ "bad: entry: use of undefined register r0" ]

let test_verify_type_mismatch () =
  let f = Ir.create_func "bad" [ ("x", Types.f64) ] Types.f64 in
  let b = Builder.create f in
  let x = Ir.Reg (snd (List.hd f.Ir.params)) in
  let d = Ir.fresh_reg f Types.f64 in
  Builder.add_instr b (Ir.IBin (d, Ops.Add, x, x));
  Builder.ret b (Some (Ir.Reg d));
  expect_invalid "int op on float" f [ "bad: entry: int binop on double" ]

let test_verify_bad_branch () =
  let f = Ir.create_func "bad" [] Types.TVoid in
  let b = Builder.create f in
  Builder.br b "nowhere";
  expect_invalid "branch to unknown label" f [ "bad: entry: unknown block %nowhere" ]

let test_verify_ret_type () =
  let f = Ir.create_func "bad" [] Types.i32 in
  let b = Builder.create f in
  Builder.ret b (Some (Ir.Imm (Konst.kf64 1.0)));
  expect_invalid "wrong return type" f [ "bad: entry: expected i32, got double" ]

let test_verify_double_def () =
  let f = Ir.create_func "bad" [] Types.TVoid in
  let b = Builder.create f in
  let d = Ir.fresh_reg f Types.i32 in
  Builder.add_instr b (Ir.IBin (d, Ops.Add, Ir.Imm (Konst.ki32 1), Ir.Imm (Konst.ki32 2)));
  Builder.add_instr b (Ir.IBin (d, Ops.Add, Ir.Imm (Konst.ki32 3), Ir.Imm (Konst.ki32 4)));
  Builder.ret b None;
  expect_invalid "register defined twice" f [ "bad: register r0 defined twice" ]

let test_verify_phi_after_nonphi () =
  let f = Ir.create_func "bad" [] Types.TVoid in
  let b = Builder.create f in
  let d = Ir.fresh_reg f Types.i32 in
  Builder.add_instr b (Ir.IBin (d, Ops.Add, Ir.Imm (Konst.ki32 1), Ir.Imm (Konst.ki32 2)));
  let p = Ir.fresh_reg f Types.i32 in
  Builder.add_instr b (Ir.IPhi (p, [ ("entry", Ir.Imm (Konst.ki32 0)) ]));
  Builder.ret b None;
  expect_invalid "phi after non-phi" f
    [ "bad: entry: phi after non-phi"; "bad: entry: phi incoming from non-predecessor %entry" ]

(* ---- phi / dominance invariants over a diamond CFG ----

   entry -(x<0)-> t | e, both to join; [mk_join] builds the join block
   given the two branch values so each test can plant a different phi
   (or none) at the merge. *)
let build_diamond mk_join =
  let f = Ir.create_func "dia" [ ("x", Types.i32) ] Types.i32 in
  let b = Builder.create f in
  let x = Ir.Reg (snd (List.hd f.Ir.params)) in
  let t = Builder.new_block b "t" in
  let e = Builder.new_block b "e" in
  let j = Builder.new_block b "join" in
  let c = Builder.cmp b Ops.CLt x (Ir.Imm (Konst.ki32 0)) in
  Builder.cond_br b c t.Ir.label e.Ir.label;
  Builder.position_at b t;
  let tv = Builder.bin b Ops.Add Types.i32 x (Ir.Imm (Konst.ki32 1)) in
  Builder.br b j.Ir.label;
  Builder.position_at b e;
  let ev = Builder.bin b Ops.Add Types.i32 x (Ir.Imm (Konst.ki32 2)) in
  Builder.br b j.Ir.label;
  Builder.position_at b j;
  mk_join b tv ev;
  f

let test_verify_phi_good_diamond () =
  let f =
    build_diamond (fun b tv ev ->
        let p = Builder.phi b Types.i32 [ ("t", tv); ("e", ev) ] in
        Builder.ret b (Some p))
  in
  match Verify.check (module_with [ f ]) with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "good diamond rejected: %s" (String.concat "; " msgs)

let test_verify_phi_missing_incoming () =
  let f =
    build_diamond (fun b tv _ ->
        let p = Builder.phi b Types.i32 [ ("t", tv) ] in
        Builder.ret b (Some p))
  in
  expect_invalid "phi missing an incoming for predecessor e" f
    [ "dia: join: phi is missing an incoming value for predecessor %e" ]

let test_verify_phi_duplicate_incoming () =
  let f =
    build_diamond (fun b tv ev ->
        let p = Builder.phi b Types.i32 [ ("t", tv); ("t", tv); ("e", ev) ] in
        Builder.ret b (Some p))
  in
  expect_invalid "phi with duplicate incoming labels" f
    [ "dia: join: phi has duplicate incoming labels" ]

let test_verify_phi_nonpred_incoming () =
  let f =
    build_diamond (fun b tv ev ->
        let p =
          Builder.phi b Types.i32
            [ ("t", tv); ("e", ev); ("entry", Ir.Imm (Konst.ki32 0)) ]
        in
        Builder.ret b (Some p))
  in
  expect_invalid "phi incoming from non-predecessor" f
    [ "dia: join: phi incoming from non-predecessor %entry" ]

let test_verify_phi_value_edge_dominance () =
  (* the e-defined value is not available at the end of the t->join
     edge; a phi may only draw values that dominate their edge *)
  let f =
    build_diamond (fun b _ ev ->
        let p = Builder.phi b Types.i32 [ ("t", ev); ("e", ev) ] in
        Builder.ret b (Some p))
  in
  expect_invalid "phi value must dominate its incoming edge" f
    [ "dia: join: phi value r3 does not dominate incoming edge from %t" ]

let test_verify_branch_def_no_dominance () =
  (* using a branch-local value at the join without a phi *)
  let f = build_diamond (fun b tv _ -> Builder.ret b (Some tv)) in
  expect_invalid "use at join not dominated by branch-local def" f
    [ "dia: join: use of r2 is not dominated by its definition" ]

let test_verify_accepts_good () =
  let m = module_with [ build_abs_add () ] in
  match Verify.check m with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "unexpected: %s" (String.concat "; " errs)

(* ------------------------------------------------------------------ *)
(* Bitcode *)

let test_bitcode_roundtrip () =
  let m = module_with [ build_abs_add () ] in
  m.Ir.globals <-
    [
      { Ir.gname = "table"; gty = Types.TArr (Types.f64, 4); gspace = Types.AS_global;
        ginit = Ir.InitConsts [ Konst.kf64 1.0; Konst.kf64 2.0 ]; gconst = false;
        gextern = false };
      { Ir.gname = "msg"; gty = Types.TArr (Types.TInt 8, 6); gspace = Types.AS_global;
        ginit = Ir.InitString "hello"; gconst = true; gextern = false };
    ];
  m.Ir.annotations <- [ { Ir.afunc = "abs_add"; akey = "jit"; aargs = [ 1; 2 ] } ];
  let bytes = Bitcode.encode_module m in
  let m' = Bitcode.decode_module bytes in
  check Alcotest.string "mid" m.Ir.mid m'.Ir.mid;
  check Alcotest.int "globals" 2 (List.length m'.Ir.globals);
  check Alcotest.int "funcs" 1 (List.length m'.Ir.funcs);
  check Alcotest.(list int) "annotation args" [ 1; 2 ]
    (List.hd m'.Ir.annotations).Ir.aargs;
  Verify.verify_module m';
  match Interp.run (null_env ()) m' "abs_add" [ Konst.ki32 (-9); Konst.ki32 1 ] with
  | Some k -> check Alcotest.int64 "semantics preserved" 10L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

let test_bitcode_bad_magic () =
  Alcotest.check_raises "bad magic" (Failure "Bitcode.decode_module: bad magic")
    (fun () -> ignore (Bitcode.decode_module "garbage data here"))

(* ------------------------------------------------------------------ *)
(* CFG / dominators / loops *)

let build_diamond () =
  let f = Ir.create_func "diamond" [ ("c", Types.TBool) ] Types.TVoid in
  let b = Builder.create f in
  let l = Builder.new_block b "l" in
  let r = Builder.new_block b "r" in
  let j = Builder.new_block b "j" in
  Builder.cond_br b (Ir.Reg (snd (List.hd f.Ir.params))) l.Ir.label r.Ir.label;
  Builder.position_at b l;
  Builder.br b j.Ir.label;
  Builder.position_at b r;
  Builder.br b j.Ir.label;
  Builder.position_at b j;
  Builder.ret b None;
  f

let test_cfg_diamond () =
  let f = build_diamond () in
  let cfg = Cfg.build f in
  let labels = List.map (Cfg.label cfg) in
  check Alcotest.(slist string compare) "entry succs" [ "l"; "r" ]
    (labels cfg.Cfg.succ.(Cfg.index cfg "entry"));
  check Alcotest.(slist string compare) "join preds" [ "l"; "r" ]
    (labels cfg.Cfg.pred.(Cfg.index cfg "j"));
  check Alcotest.int "all reachable" 4 (List.length cfg.Cfg.rpo)

let test_dom_diamond () =
  let f = build_diamond () in
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let ix = Cfg.index cfg in
  let idom l = match dom.Dom.idom.(ix l) with -1 -> None | d -> Some (Cfg.label cfg d) in
  check Alcotest.(option string) "idom(l)" (Some "entry") (idom "l");
  check Alcotest.(option string) "idom(j)" (Some "entry") (idom "j");
  Alcotest.(check bool) "entry dominates j" true (Dom.dominates dom (ix "entry") (ix "j"));
  Alcotest.(check bool) "l does not dominate j" false (Dom.dominates dom (ix "l") (ix "j"));
  Alcotest.(check bool) "j in DF(l)" true (List.mem (ix "j") (Dom.frontier dom (ix "l")))

let build_loop () =
  let f = Ir.create_func "looper" [ ("n", Types.i32) ] Types.i32 in
  let b = Builder.create f in
  let header = Builder.new_block b "header" in
  let body = Builder.new_block b "body" in
  let exit_ = Builder.new_block b "exit" in
  Builder.br b header.Ir.label;
  Builder.position_at b header;
  let i = Ir.fresh_reg f Types.i32 in
  let acc = Ir.fresh_reg f Types.i32 in
  let c = Builder.cmp b Ops.CLt (Ir.Reg i) (Ir.Reg (snd (List.hd f.Ir.params))) in
  Builder.cond_br b c body.Ir.label exit_.Ir.label;
  Builder.position_at b body;
  let acc' = Builder.bin b Ops.Add Types.i32 (Ir.Reg acc) (Ir.Reg i) in
  let i' = Builder.bin b Ops.Add Types.i32 (Ir.Reg i) (Ir.Imm (Konst.ki32 1)) in
  Builder.br b header.Ir.label;
  header.Ir.insts <-
    Ir.IPhi (i, [ ("entry", Ir.Imm (Konst.ki32 0)); ("body", i') ])
    :: Ir.IPhi (acc, [ ("entry", Ir.Imm (Konst.ki32 0)); ("body", acc') ])
    :: header.Ir.insts;
  Builder.position_at b exit_;
  Builder.ret b (Some (Ir.Reg acc));
  f

let test_loopinfo () =
  let f = build_loop () in
  Verify.verify_module (module_with [ f ]);
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let li = Loopinfo.compute cfg dom in
  check Alcotest.int "one loop" 1 (List.length li.Loopinfo.loops);
  let l = List.hd li.Loopinfo.loops in
  check Alcotest.string "header" "header" l.Loopinfo.header;
  check Alcotest.(list string) "latch" [ "body" ] l.Loopinfo.latches;
  check Alcotest.int "depth" 1 l.Loopinfo.depth;
  check Alcotest.(slist string compare) "exiting" [ "header" ]
    (Loopinfo.exiting_blocks cfg l)

let test_loop_interp () =
  let f = build_loop () in
  let m = module_with [ f ] in
  match Interp.run (null_env ()) m "looper" [ Konst.ki32 10 ] with
  | Some k -> check Alcotest.int64 "sum 0..9" 45L (Konst.as_int k)
  | None -> Alcotest.fail "no result"

let test_remove_unreachable () =
  let f = build_diamond () in
  let dead = Ir.add_block f "dead" in
  dead.Ir.term <- Ir.TBr "j";
  Alcotest.(check bool) "removed something" true (Cfg.remove_unreachable f);
  check Alcotest.int "back to 4 blocks" 4 (List.length f.Ir.blocks)

let test_interp_fuel () =
  let f = Ir.create_func "spin" [] Types.TVoid in
  let b = Builder.create f in
  let loop = Builder.new_block b "loop" in
  Builder.br b loop.Ir.label;
  Builder.position_at b loop;
  let d = Ir.fresh_reg f Types.i32 in
  Builder.add_instr b (Ir.IBin (d, Ops.Add, Ir.Imm (Konst.ki32 1), Ir.Imm (Konst.ki32 1)));
  Builder.br b loop.Ir.label;
  (* note: d redefined each iteration is fine for the interpreter, but
     we only care about fuel here; keep the verifier out of it *)
  let m = module_with [ f ] in
  let env =
    Interp.make_env ~fuel:1000
      ~load:(fun _ _ -> Konst.ki32 0)
      ~store:(fun _ _ _ -> ())
      ~extern:(fun _ _ -> None)
      ~global_addr:(fun _ -> 0L)
      ~alloca:(fun _ _ -> 0L)
      ()
  in
  Alcotest.check_raises "out of fuel" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run env m "spin" []))

(* ------------------------------------------------------------------ *)
(* Postdominators *)

(* The definition, by brute force: [p] postdominates [b] iff deleting
   [p] disconnects [b] from every return. A block with no path to a
   return reconverges only at exit (-1), like one whose paths meet
   nowhere before exit. *)
let ipostdoms_oracle (n : int) (succs : int -> int list) : int array =
  let reaches_return ~without b =
    let seen = Array.make n false in
    let rec go v =
      v <> without && (not seen.(v))
      && begin
           seen.(v) <- true;
           succs v = [] || List.exists go (succs v)
         end
    in
    go b
  in
  let pdoms b =
    List.filter (fun p -> p <> b && not (reaches_return ~without:p b)) (List.init n Fun.id)
  in
  Array.init n (fun b ->
      if not (reaches_return ~without:(-1) b) then -1
      else
        let ps = pdoms b in
        (* the nearest one: every other postdominator of [b] postdominates it *)
        match
          List.filter
            (fun p -> List.for_all (fun q -> q = p || List.mem q (pdoms p)) ps)
            ps
        with
        | [ p ] -> p
        | [] -> -1
        | _ -> Alcotest.fail "postdominators of a block must form a chain")

let check_ipostdoms name n succs =
  check Alcotest.(array int) name (ipostdoms_oracle n succs) (Dom.ipostdoms n succs)

(* Dominators by the definition: [d] dominates a reachable [b] iff [b]
   is unreachable from the entry once [d] is deleted. Checks the Cfg
   views, Dom's idom (the entry maps to itself, an unreachable block to
   -1), [dominates] on every pair, the children, and the frontier:
   [y] is in DF([x]) iff [x] dominates a reachable predecessor of [y]
   but does not strictly dominate [y]. The entry is in no frontier,
   since the function's start also enters it. Children and frontiers
   list blocks in label order. *)
let check_dominators name (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.blocks and succ = cfg.Cfg.succ in
  let reach_without w =
    let seen = Array.make n false in
    let rec go v =
      if v <> w && not seen.(v) then begin
        seen.(v) <- true;
        List.iter go succ.(v)
      end
    in
    if n > 0 then go 0;
    seen
  in
  let reach = reach_without (-1) in
  let doms =
    Array.init n (fun d ->
        let r = reach_without d in
        Array.init n (fun b -> reach.(b) && (b = d || not r.(b))))
  in
  let all = List.init n Fun.id in
  let by_label = List.sort (fun a b -> compare (Cfg.label cfg a) (Cfg.label cfg b)) all in
  let idom b =
    if not reach.(b) then -1
    else if b = 0 then 0
    else
      let strict = List.filter (fun d -> d <> b && doms.(d).(b)) all in
      List.find (fun d -> List.for_all (fun d' -> doms.(d').(d)) strict) strict
  in
  let what s = Printf.sprintf "%s: %s" name s in
  check Alcotest.(array bool) (what "reachable") reach cfg.Cfg.reachable;
  check Alcotest.(slist int compare) (what "rpo") (List.filter (Array.get reach) all) cfg.Cfg.rpo;
  check Alcotest.(array (list int)) (what "pred")
    (Array.init n (fun b -> List.filter (fun p -> List.mem b succ.(p)) all))
    cfg.Cfg.pred;
  let dom = Dom.compute cfg in
  check Alcotest.(array int) (what "idom") (Array.init n idom) dom.Dom.idom;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Dom.dominates dom a b <> (a = b || doms.(a).(b)) then
            Alcotest.failf "%s: dominates %d %d" name a b)
        all)
    all;
  check Alcotest.(array (list int)) (what "children")
    (Array.init n (fun d -> List.filter (fun b -> b <> 0 && idom b = d) by_label))
    dom.Dom.children;
  let in_frontier x y =
    y <> 0 && reach.(x) && reach.(y)
    && (not (x <> y && doms.(x).(y)))
    && List.exists (fun p -> reach.(p) && doms.(x).(p) && List.mem y succ.(p)) all
  in
  check Alcotest.(array (list int)) (what "frontier")
    (Array.init n (fun x -> List.filter (in_frontier x) by_label))
    (Array.init n (Dom.frontier dom))

(* A function with the shape of [g]: block i, labelled so that label
   order is not block order, returns, branches or branches on a
   parameter to its one or two successors. *)
let func_of_graph (g : int list array) =
  let f = Ir.create_func "g" [ ("c", Types.TBool) ] Types.TVoid in
  let c = Ir.Reg (snd (List.hd f.Ir.params)) in
  let label i = Printf.sprintf "b%d" ((7 * i + 3) mod 11) in
  f.Ir.blocks <-
    List.mapi
      (fun i ss ->
        let term =
          match List.map label ss with
          | [] -> Ir.TRet None
          | [ s ] -> Ir.TBr s
          | t :: e :: _ -> Ir.TCondBr (c, t, e)
        in
        { Ir.label = label i; insts = []; term })
      (Array.to_list g);
  f

let bundled_sources =
  List.map
    (fun (a : Proteus_hecbench.App.t) ->
      (a.Proteus_hecbench.App.name, a.Proteus_hecbench.App.source))
    Proteus_hecbench.Suite.apps
  @ List.map
      (fun (e : Proteus_examples.Sources.t) ->
        (e.Proteus_examples.Sources.name, e.Proteus_examples.Sources.source))
      Proteus_examples.Sources.all

let vendors = [ (Proteus_gpu.Device.Amd, "amd"); (Proteus_gpu.Device.Nvidia, "nvidia") ]

let aot_kernels vendor (name, src) =
  (Proteus_driver.Driver.compile ~name ~vendor ~mode:Proteus_driver.Driver.Aot src)
    .Proteus_driver.Driver.fatbin.Proteus_backend.Mach.kernels

(* every bundled and HeCBench function, host and device, as IR before
   and after O3, and every kernel as machine code for both vendors *)
let test_ipostdoms_bundled () =
  List.iter
    (fun (name, src) ->
      let u = Proteus_frontend.Compile.compile ~name ~vendor:Proteus_frontend.Lower.Hip src in
      let check_funcs stage (m : Ir.modul) =
        List.iter
          (fun (f : Ir.func) ->
            if f.Ir.blocks <> [] then begin
              let cfg = Cfg.build f and what = Printf.sprintf "%s/%s %s IR" name f.Ir.fname stage in
              check_ipostdoms what (Array.length cfg.Cfg.blocks) (Array.get cfg.Cfg.succ);
              check_dominators what cfg
            end)
          m.Ir.funcs
      in
      List.iter
        (fun m ->
          check_funcs "unoptimised" m;
          ignore (Proteus_opt.Pipeline.optimize_o3 m);
          check_funcs "O3" m)
        [ u.Proteus_frontend.Compile.host; u.Proteus_frontend.Compile.device ];
      List.iter
        (fun (vendor, vn) ->
          List.iter
            (fun (k : Proteus_backend.Mach.mfunc) ->
              let blocks = Array.of_list k.Proteus_backend.Mach.blocks in
              check_ipostdoms
                (Printf.sprintf "%s/%s %s" name k.Proteus_backend.Mach.sym vn)
                (Array.length blocks)
                (Proteus_backend.Mach.succ_indices blocks))
            (aot_kernels vendor (name, src)))
        vendors)
    bundled_sources

(* 0 -> 1 | 4; 1 -> 1 | 2 (self-loop); 2 -> 3 -> 3 (no return from 2 or
   3); 4 returns; 5 is unreachable from 0 and falls into 4 *)
let test_ipostdoms_corner_cases () =
  let succs = function
    | 0 -> [ 1; 4 ]
    | 1 -> [ 1; 2 ]
    | 2 -> [ 3 ]
    | 3 -> [ 3 ]
    | 5 -> [ 4 ]
    | _ -> []
  in
  check Alcotest.(array int) "ipdoms" [| 4; -1; -1; -1; -1; 4 |] (Dom.ipostdoms 6 succs);
  check_ipostdoms "oracle" 6 succs;
  check_dominators "hand CFG" (Cfg.build (func_of_graph (Array.init 6 succs)));
  (* 0 -> 1 | 2; 1 -> 3 | 3 (two arms, one block); 2 -> 2 | 0 (self loop
     and a back edge into the entry); 4 is unreachable and falls into 3 *)
  let g = [| [ 1; 2 ]; [ 3; 3 ]; [ 2; 0 ]; []; [ 3 ] |] in
  check_ipostdoms "entry back edge" 5 (Array.get g);
  let cfg = Cfg.build (func_of_graph g) in
  check Alcotest.(array (list int)) "one edge for two arms" [| [ 1; 2 ]; [ 3 ]; [ 2; 0 ]; []; [ 3 ] |]
    cfg.Cfg.succ;
  check_dominators "entry back edge" cfg;
  check Alcotest.(array int) "idoms" [| 0; 0; 0; 1; -1 |] (Dom.compute cfg).Dom.idom

(* random CFGs: back edges into the entry, self-loops, two-armed
   branches to one block, blocks unreachable from the entry and blocks
   that cannot reach a return all occur *)
let random_cfg =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    list_repeat n (int_range 0 2 >>= fun k -> list_repeat k (int_range 0 (n - 1))))

let print_cfg g =
  String.concat "; " (List.map (fun ss -> String.concat "," (List.map string_of_int ss)) g)

let qcheck_ipostdoms_random =
  QCheck.Test.make ~name:"ipostdoms matches the brute-force definition" ~count:500
    (QCheck.make ~print:print_cfg random_cfg) (fun g ->
      let succ = Array.of_list g in
      let succs b = succ.(b) in
      let n = Array.length succ in
      check_dominators "random CFG" (Cfg.build (func_of_graph succ));
      Dom.ipostdoms n succs = ipostdoms_oracle n succs)

(* Cfg.has_cycle is true exactly when some block reachable from the
   entry lies on a cycle, so it is true wherever Loopinfo finds a loop *)
let qcheck_has_cycle_random =
  QCheck.Test.make ~name:"has_cycle = a reachable cycle exists" ~count:500
    (QCheck.make ~print:print_cfg random_cfg) (fun g ->
      let succ = Array.of_list g in
      let n = Array.length succ in
      (* [reach v] : the blocks one or more edges from v *)
      let reach v =
        let seen = Array.make n false in
        let rec go u =
          List.iter
            (fun s ->
              if not seen.(s) then begin
                seen.(s) <- true;
                go s
              end)
            succ.(u)
        in
        go v;
        seen
      in
      let cfg = Cfg.build (func_of_graph succ) in
      let cyclic = List.exists (fun v -> (reach v).(v)) cfg.Cfg.rpo in
      let loops = (Loopinfo.compute cfg (Dom.compute cfg)).Loopinfo.loops in
      Cfg.has_cycle cfg = cyclic && (loops = [] || cyclic))

(* Inside Cfg.reusing a build returns the kept graph, and Dom.compute
   its kept tree, while the block list, labels and terminators are
   physically the ones it was built from; outside, builds are fresh. *)
let test_cfg_reuse () =
  let f = func_of_graph [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  Alcotest.(check bool) "fresh outside reusing" false (Cfg.build f == Cfg.build f);
  Cfg.reusing (fun () ->
      let g = Cfg.build f in
      Alcotest.(check bool) "kept" true (Cfg.build f == g);
      Alcotest.(check bool) "tree kept" true (Dom.compute g == Dom.compute (Cfg.build f));
      let b1 = List.nth f.Ir.blocks 1 in
      b1.Ir.insts <- [ Ir.IStore (Ir.Imm (Konst.ki32 0), Ir.Imm (Konst.ki32 0)) ];
      Alcotest.(check bool) "kept across an instruction edit" true (Cfg.build f == g);
      b1.Ir.term <- Ir.TBr (Cfg.label g 2);
      let g' = Cfg.build f in
      Alcotest.(check bool) "rebuilt after a terminator edit" false (g' == g);
      check Alcotest.(array (list int)) "new edges" [| [ 1; 2 ]; [ 2 ]; [ 3 ]; [] |] g'.Cfg.succ;
      (List.nth f.Ir.blocks 3).Ir.label <- "renamed";
      Alcotest.(check bool) "rebuilt after a label edit" false (Cfg.build f == g');
      let g'' = Cfg.build f in
      f.Ir.blocks <- List.filter (fun _ -> true) f.Ir.blocks;
      Alcotest.(check bool) "rebuilt for a new block list" false (Cfg.build f == g''));
  Alcotest.(check bool) "fresh after reusing returns" false (Cfg.build f == Cfg.build f)

(* the generator, from the property's seed, yields every shape the
   solvers have a special case for *)
let test_random_cfg_shapes () =
  let gs = QCheck.Gen.generate ~rand:(Random.State.make [| Qseed.seed |]) ~n:500 random_cfg in
  let count p = List.length (List.filter p gs) in
  let edges g = List.concat (List.mapi (fun i ss -> List.map (fun s -> (i, s)) ss) g) in
  let unreachable g =
    let g = Array.of_list g and seen = Hashtbl.create 8 in
    let rec go v = if not (Hashtbl.mem seen v) then (Hashtbl.replace seen v (); List.iter go g.(v)) in
    go 0;
    Hashtbl.length seen < Array.length g
  in
  List.iter
    (fun (what, n) -> if n = 0 then Alcotest.failf "no random CFG has %s" what)
    [
      ("a back edge into the entry", count (fun g -> List.exists (fun (_, s) -> s = 0) (edges g)));
      ("a self loop", count (fun g -> List.exists (fun (i, s) -> i = s) (edges g)));
      ("a two-armed branch to one block", count (List.exists (function [ a; b ] -> a = b | _ -> false)));
      ("an unreachable block", count unreachable);
    ]

(* Tcode's reconvergence table for every HeCBench kernel on both
   vendors, as the earlier set-based postdominator routine computed it *)
let ipdom_golden =
  [
    ("ADAM", "amd", "adam", [| 1; 3; 5; -1; 5; 1; 5 |]);
    ("ADAM", "nvidia", "adam", [| 1; 3; 5; -1; 5; 1; 5 |]);
    ("RSBENCH", "amd", "rs_xs", [| 2; 3; -1; 5; 3; 2; 2 |]);
    ("RSBENCH", "amd", "rs_init", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("RSBENCH", "nvidia", "rs_xs", [| 2; 3; -1; 5; 3; 2; 2 |]);
    ("RSBENCH", "nvidia", "rs_init", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("WSM5", "amd", "wsm5", [| 2; 3; -1; 5; 3; 2; 2 |]);
    ("WSM5", "nvidia", "wsm5", [| 2; 3; -1; 5; 3; 2; 2 |]);
    ("FEY-KAC", "amd", "feykac", [| 2; 3; -1; 6; 9; 3; 2; 9; 9; 5; 9; 9; 9; 9; 5; 2; 5 |]);
    ("FEY-KAC", "nvidia", "feykac", [| 2; 3; -1; 6; 9; 3; 2; 9; 9; 5; 9; 9; 9; 9; 5; 2; 5 |]);
    ("LULESH", "amd", "lulesh_init", [| 2; 2; -1; 2 |]);
    ("LULESH", "amd", "calc_force", [| 2; 2; 4; 6; -1; 6; 4; 2; 4; 6 |]);
    ("LULESH", "amd", "integrate", [| 2; 2; -1; 2 |]);
    ("LULESH", "nvidia", "lulesh_init", [| 2; 2; -1; 2 |]);
    ("LULESH", "nvidia", "calc_force", [| 2; 2; 4; 6; -1; 6; 4; 2; 4; 6 |]);
    ("LULESH", "nvidia", "integrate", [| 2; 2; -1; 2 |]);
    ("SW4CK", "amd", "sw4_k1", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("SW4CK", "amd", "sw4_k2", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("SW4CK", "amd", "sw4_k3", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("SW4CK", "amd", "sw4_k4", [| 2; 2; 4; 5; -1; 7; 5; 4; 2; 4 |]);
    ("SW4CK", "amd", "sw4_k5", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("SW4CK", "nvidia", "sw4_k1", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("SW4CK", "nvidia", "sw4_k2", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("SW4CK", "nvidia", "sw4_k3", [| 2; 2; 4; 4; -1; 2; 4 |]);
    ("SW4CK", "nvidia", "sw4_k4", [| 2; 2; 4; 5; -1; 7; 5; 4; 2; 4 |]);
    ("SW4CK", "nvidia", "sw4_k5", [| 2; 2; 4; 4; -1; 2; 4 |]);
  ]

let test_ipdom_golden () =
  let got =
    List.concat_map
      (fun (a : Proteus_hecbench.App.t) ->
        List.concat_map
          (fun (vendor, vn) ->
            List.map
              (fun (k : Proteus_backend.Mach.mfunc) ->
                ( a.Proteus_hecbench.App.name,
                  vn,
                  k.Proteus_backend.Mach.sym,
                  (Proteus_gpu.Tcode.decode k).Proteus_gpu.Tcode.ipdom ))
              (aot_kernels vendor (a.Proteus_hecbench.App.name, a.Proteus_hecbench.App.source)))
          vendors)
      Proteus_hecbench.Suite.apps
  in
  check Alcotest.int "13 kernels x 2 vendors" 26 (List.length got);
  List.iter2
    (fun (app, vn, sym, want) (app', vn', sym', ipdom) ->
      check Alcotest.(list string) "kernel" [ app; vn; sym ] [ app'; vn'; sym' ];
      check Alcotest.(array int) (Printf.sprintf "%s/%s %s" app sym vn) want ipdom)
    ipdom_golden got

let () =
  Alcotest.run "ir"
    [
      ( "types",
        [
          Alcotest.test_case "sizes" `Quick test_type_sizes;
          Alcotest.test_case "equality" `Quick test_type_equal;
          Alcotest.test_case "encode/decode" `Quick test_type_roundtrip;
        ] );
      ( "konst",
        [
          Alcotest.test_case "i32 normalisation" `Quick test_konst_int_norm;
          Alcotest.test_case "binops" `Quick test_konst_binops;
          Alcotest.test_case "f32 rounding" `Quick test_konst_float_f32_rounds;
          Alcotest.test_case "comparisons" `Quick test_konst_cmp;
          Alcotest.test_case "casts" `Quick test_konst_cast;
          qtest qcheck_konst_add_matches_int32;
          qtest qcheck_konst_mul_matches_int32;
          qtest qcheck_konst_roundtrip;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "classification = list membership" `Quick
            test_intrinsic_classification;
        ]
      );
      ( "construction",
        [
          Alcotest.test_case "build + interpret" `Quick test_build_and_interp;
          Alcotest.test_case "use counts / replace" `Quick test_use_counts_and_replace;
          Alcotest.test_case "clone independence" `Quick test_clone_independent;
          qtest qcheck_abs_add;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts valid IR" `Quick test_verify_accepts_good;
          Alcotest.test_case "undefined register" `Quick test_verify_undefined_reg;
          Alcotest.test_case "type mismatch" `Quick test_verify_type_mismatch;
          Alcotest.test_case "bad branch target" `Quick test_verify_bad_branch;
          Alcotest.test_case "wrong return type" `Quick test_verify_ret_type;
          Alcotest.test_case "double definition" `Quick test_verify_double_def;
          Alcotest.test_case "phi placement" `Quick test_verify_phi_after_nonphi;
          Alcotest.test_case "phi: clean diamond accepted" `Quick
            test_verify_phi_good_diamond;
          Alcotest.test_case "phi: missing incoming" `Quick
            test_verify_phi_missing_incoming;
          Alcotest.test_case "phi: duplicate incoming" `Quick
            test_verify_phi_duplicate_incoming;
          Alcotest.test_case "phi: non-predecessor incoming" `Quick
            test_verify_phi_nonpred_incoming;
          Alcotest.test_case "phi: value must dominate its edge" `Quick
            test_verify_phi_value_edge_dominance;
          Alcotest.test_case "dominance: branch-local use at join" `Quick
            test_verify_branch_def_no_dominance;
        ] );
      ( "bitcode",
        [
          Alcotest.test_case "module roundtrip" `Quick test_bitcode_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_bitcode_bad_magic;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "cfg diamond" `Quick test_cfg_diamond;
          Alcotest.test_case "dominators" `Quick test_dom_diamond;
          Alcotest.test_case "loop info" `Quick test_loopinfo;
          Alcotest.test_case "loop semantics" `Quick test_loop_interp;
          Alcotest.test_case "unreachable removal" `Quick test_remove_unreachable;
          qtest qcheck_has_cycle_random;
          Alcotest.test_case "graph reuse inside an optimizer run" `Quick test_cfg_reuse;
          Alcotest.test_case "interpreter fuel" `Quick test_interp_fuel;
        ] );
      ( "postdominators",
        [
          Alcotest.test_case "bundled kernels match the definition" `Quick
            test_ipostdoms_bundled;
          Alcotest.test_case "self-loop, unreachable, no return" `Quick
            test_ipostdoms_corner_cases;
          qtest qcheck_ipostdoms_random;
          Alcotest.test_case "random CFGs have every special shape" `Quick test_random_cfg_shapes;
          Alcotest.test_case "HeCBench Tcode ipdom golden" `Quick test_ipdom_golden;
        ] );
    ]
