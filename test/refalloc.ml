(* The register allocator as it stood before its int-indexed rewrite,
   kept as the reference the differential test in test_backend.ml
   compares [Regalloc.apply] against. No library links it. It is the
   old source verbatim apart from [steals], which counts the times the
   scan takes an active interval's registers so the test can show it
   reached that path. *)

open Proteus_backend
(* Linear-scan register allocation over the machine IR, with per-class
   physical register budgets and spilling to scratch slots.

   The budgets are where the paper's launch-bounds story plays out: the
   caller (GCN or ptxas) derives the vector-register cap from the
   kernel's launch bounds (or a conservative default assuming the
   maximum block size), and kernels whose pressure exceeds the cap pay
   for spill loads/stores through memory. *)

open Proteus_support
open Proteus_ir

type config = {
  cap_v : int; (* vector registers available *)
  cap_s : int; (* scalar registers available *)
  rematerialize : bool; (* fold single-constant moves into their users *)
  reg_units : Types.ty -> int; (* register units a value of this type occupies *)
}

let default_units ty = max 1 (Types.size_of ty / 4)
let _ = default_units

(* ------------------------------------------------------------------ *)
(* Rematerialization: ptxas-style cleanup that removes constant moves,
   shortening live ranges before allocation. *)

let rematerialize_consts (f : Mach.mfunc) : unit =
  (* map: vreg (by class+id) -> constant *)
  let const_of : (Mach.cls * int, Konst.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Mach.mblock) ->
      List.iter
        (fun (i : Mach.minstr) ->
          match (i.Mach.op, i.Mach.dst, i.Mach.srcs) with
          | Mach.Omov _, Some d, [ Mach.Ki k ] ->
              Hashtbl.replace const_of (d.Mach.rcls, d.Mach.rid) k
          | _, Some d, _ ->
              (* redefinition kills the constant property *)
              Hashtbl.remove const_of (d.Mach.rcls, d.Mach.rid)
          | _ -> ())
        b.Mach.code)
    f.Mach.blocks;
  (* Only registers defined exactly once by a constant move qualify. *)
  let defs : (Mach.cls * int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Mach.mblock) ->
      List.iter
        (fun (i : Mach.minstr) ->
          match i.Mach.dst with
          | Some d ->
              let key = (d.Mach.rcls, d.Mach.rid) in
              Hashtbl.replace defs key (1 + Option.value (Hashtbl.find_opt defs key) ~default:0)
          | None -> ())
        b.Mach.code)
    f.Mach.blocks;
  let remat key = Hashtbl.mem const_of key && Hashtbl.find_opt defs key = Some 1 in
  let subst (s : Mach.msrc) =
    match s with
    | Mach.Rs r when remat (r.Mach.rcls, r.Mach.rid) ->
        Mach.Ki (Hashtbl.find const_of (r.Mach.rcls, r.Mach.rid))
    | s -> s
  in
  List.iter
    (fun (b : Mach.mblock) ->
      b.Mach.code <-
        List.filter_map
          (fun (i : Mach.minstr) ->
            match (i.Mach.op, i.Mach.dst) with
            | Mach.Omov _, Some d when remat (d.Mach.rcls, d.Mach.rid) -> None
            | _ -> Some { i with Mach.srcs = List.map subst i.Mach.srcs })
          b.Mach.code;
      b.Mach.term <-
        (match b.Mach.term with
        | Mach.Tcbr (c, t, e) -> Mach.Tcbr (subst c, t, e)
        | t -> t))
    f.Mach.blocks

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)

type linear = {
  order : (string * int) list; (* block label -> start index *)
  num : int; (* total instruction slots *)
}

let linearize (f : Mach.mfunc) : linear =
  let idx = ref 0 in
  let order =
    List.map
      (fun (b : Mach.mblock) ->
        let s = !idx in
        idx := !idx + List.length b.Mach.code + 1;
        (b.Mach.mlab, s))
      f.Mach.blocks
  in
  { order; num = !idx }

let srcs_regs (i : Mach.minstr) =
  List.filter_map (function Mach.Rs r -> Some r | _ -> None) i.Mach.srcs

let term_regs = function
  | Mach.Tcbr (Mach.Rs r, _, _) -> [ r ]
  | _ -> []

(* Divergent-branch regions: for every conditional branch on a vector
   (per-lane) register, the set of blocks the SIMT engines may execute
   under a partial mask before reconverging at the branch block's
   immediate postdominator, plus that reconvergence label (None when
   the paths only meet at exit). *)
let divergent_regions (f : Mach.mfunc) : (string list * string option) list =
  let blocks = Array.of_list f.Mach.blocks in
  let n = Array.length blocks in
  let succs = Mach.succ_indices blocks in
  let ipdom = Dom.ipostdoms n succs in
  List.filter_map
    (fun i ->
      match blocks.(i).Mach.term with
      | Mach.Tcbr (Mach.Rs { Mach.rcls = Mach.CV; _ }, _, _) ->
          let stop = ipdom.(i) in
          (* all blocks reachable from the successors short of the
             reconvergence point (not just the postdominator chains) *)
          let seen = Array.make n false and region = ref [] in
          let rec go j =
            if j <> stop && not seen.(j) then begin
              seen.(j) <- true;
              region := blocks.(j).Mach.mlab :: !region;
              List.iter go (succs j)
            end
          in
          List.iter go (succs i);
          Some (!region, if stop < 0 then None else Some blocks.(stop).Mach.mlab)
      | _ -> None)
    (List.init n Fun.id)

(* Per-class liveness and intervals. Returns (start, end, reg) list.

   [regions] lists divergent-branch regions; any register of this class
   live anywhere inside a region (or at its reconvergence point) has
   its interval widened to cover the whole region. Scalar registers are
   warp-shared while the SIMT engines serialise the two sides of a
   divergent branch, so CFG liveness alone under-approximates their
   interference: a scalar read on the else side is clobbered by a
   same-register def on the then side even though no CFG path connects
   them (per-lane vector writes are masked and safe). *)
let intervals (f : Mach.mfunc) (lin : linear) (cls : Mach.cls)
    ~(regions : (string list * string option) list) : (int * int * int) list =
  let key r = r.Mach.rid in
  let in_cls r = r.Mach.rcls = cls in
  (* block-level use/def *)
  let use_of : (string, Util.Iset.t) Hashtbl.t = Hashtbl.create 8 in
  let def_of : (string, Util.Iset.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Mach.mblock) ->
      let uses = ref Util.Iset.empty and defs = ref Util.Iset.empty in
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              if in_cls r && not (Util.Iset.mem (key r) !defs) then
                uses := Util.Iset.add (key r) !uses)
            (srcs_regs i);
          match i.Mach.dst with
          | Some d when in_cls d -> defs := Util.Iset.add (key d) !defs
          | _ -> ())
        b.Mach.code;
      List.iter
        (fun r ->
          if in_cls r && not (Util.Iset.mem (key r) !defs) then
            uses := Util.Iset.add (key r) !uses)
        (term_regs b.Mach.term);
      Hashtbl.replace use_of b.Mach.mlab !uses;
      Hashtbl.replace def_of b.Mach.mlab !defs)
    f.Mach.blocks;
  let live_in : (string, Util.Iset.t) Hashtbl.t = Hashtbl.create 8 in
  let live_out : (string, Util.Iset.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Mach.mblock) ->
      Hashtbl.replace live_in b.Mach.mlab Util.Iset.empty;
      Hashtbl.replace live_out b.Mach.mlab Util.Iset.empty)
    f.Mach.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Mach.mblock) ->
        let out =
          List.fold_left
            (fun acc s ->
              Util.Iset.union acc
                (Option.value (Hashtbl.find_opt live_in s) ~default:Util.Iset.empty))
            Util.Iset.empty
            (Mach.successors b.Mach.term)
        in
        let inn =
          Util.Iset.union
            (Hashtbl.find use_of b.Mach.mlab)
            (Util.Iset.diff out (Hashtbl.find def_of b.Mach.mlab))
        in
        if not (Util.Iset.equal out (Hashtbl.find live_out b.Mach.mlab)) then begin
          Hashtbl.replace live_out b.Mach.mlab out;
          changed := true
        end;
        if not (Util.Iset.equal inn (Hashtbl.find live_in b.Mach.mlab)) then begin
          Hashtbl.replace live_in b.Mach.mlab inn;
          changed := true
        end)
      (List.rev f.Mach.blocks)
  done;
  (* intervals *)
  let starts : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let ends : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let touch r pos =
    (match Hashtbl.find_opt starts r with
    | Some s when s <= pos -> ()
    | _ -> Hashtbl.replace starts r pos);
    match Hashtbl.find_opt ends r with
    | Some e when e >= pos -> ()
    | _ -> Hashtbl.replace ends r pos
  in
  List.iter
    (fun (b : Mach.mblock) ->
      let start = List.assoc b.Mach.mlab lin.order in
      let bend = start + List.length b.Mach.code in
      Util.Iset.iter (fun r -> touch r start) (Hashtbl.find live_in b.Mach.mlab);
      Util.Iset.iter (fun r -> touch r bend) (Hashtbl.find live_out b.Mach.mlab);
      List.iteri
        (fun k i ->
          let pos = start + k in
          List.iter (fun r -> if in_cls r then touch (key r) pos) (srcs_regs i);
          match i.Mach.dst with
          | Some d when in_cls d -> touch (key d) pos
          | _ -> ())
        b.Mach.code;
      List.iter (fun r -> if in_cls r then touch (key r) bend) (term_regs b.Mach.term))
    f.Mach.blocks;
  List.iter
    (fun (blocks, join) ->
      let lo = ref max_int and hi = ref min_int in
      let live = ref Util.Iset.empty in
      List.iter
        (fun lbl ->
          match List.assoc_opt lbl lin.order with
          | Some s ->
              let b = List.find (fun (b : Mach.mblock) -> b.Mach.mlab = lbl) f.Mach.blocks in
              if s < !lo then lo := s;
              let e = s + List.length b.Mach.code in
              if e > !hi then hi := e;
              live := Util.Iset.union !live (Hashtbl.find live_in lbl)
          | None -> ())
        blocks;
      (match Option.bind join (Hashtbl.find_opt live_in) with
      | Some s -> live := Util.Iset.union !live s
      | None -> ());
      if !lo <= !hi then
        Util.Iset.iter
          (fun r ->
            if Hashtbl.mem starts r then begin
              touch r !lo;
              touch r !hi
            end)
          !live)
    regions;
  Hashtbl.fold (fun r s acc -> (s, Hashtbl.find ends r, r) :: acc) starts []

(* ------------------------------------------------------------------ *)
(* Linear scan                                                         *)

type assignment = Phys of int | Spilled of int (* slot *)

let steals = ref 0

let n_reserved = 4 (* temps kept free for spill code *)

let scan (ivals : (int * int * int) list) ~(cap : int) ~(units_of : int -> int) :
    (int, assignment) Hashtbl.t * int * int =
  (* returns assignment map, physical register units used, max pressure *)
  let avail = max 1 (cap - n_reserved * 2) in
  let assignment : (int, assignment) Hashtbl.t = Hashtbl.create 32 in
  let sorted = List.sort compare ivals in
  let active = ref [] (* (end, reg, phys_base, units) sorted by end *) in
  let free = Array.make (max avail 1) true in
  let next_slot = ref 0 in
  let used_units = ref 0 in
  let max_pressure = ref 0 in
  let find_free units =
    (* first-fit contiguous run of [units] *)
    let rec go i =
      if i + units > avail then None
      else begin
        let ok = ref true in
        for k = i to i + units - 1 do
          if not free.(k) then ok := false
        done;
        if !ok then Some i else go (i + 1)
      end
    in
    go 0
  in
  let expire pos =
    active :=
      List.filter
        (fun (e, _, base, units) ->
          if e < pos then begin
            for k = base to base + units - 1 do
              free.(k) <- true
            done;
            false
          end
          else true)
        !active
  in
  List.iter
    (fun (s, e, r) ->
      expire s;
      let units = units_of r in
      let pressure =
        units + List.fold_left (fun acc (_, _, _, u) -> acc + u) 0 !active
      in
      if pressure > !max_pressure then max_pressure := pressure;
      match find_free units with
      | Some base ->
          for k = base to base + units - 1 do
            free.(k) <- false
          done;
          Hashtbl.replace assignment r (Phys base);
          if base + units > !used_units then used_units := base + units;
          active := List.sort compare ((e, r, base, units) :: !active)
      | None -> (
          (* spill the interval ending furthest (current or an active one) *)
          match List.rev !active with
          | (e', r', base', units') :: _ when e' > e && units' >= units ->
              (* steal the registers of the active interval *)
              incr steals;
              Hashtbl.replace assignment r' (Spilled !next_slot);
              incr next_slot;
              active := List.filter (fun (_, r'', _, _) -> r'' <> r') !active;
              Hashtbl.replace assignment r (Phys base');
              active := List.sort compare ((e, r, base', units) :: !active);
              for k = base' + units to base' + units' - 1 do
                free.(k) <- true
              done;
              if base' + units > !used_units then used_units := base' + units
          | _ ->
              Hashtbl.replace assignment r (Spilled !next_slot);
              incr next_slot))
    sorted;
  (assignment, !used_units, !max_pressure)

(* ------------------------------------------------------------------ *)
(* Rewrite with assignments and spill code                             *)

let apply (f : Mach.mfunc) (cfg : config) : unit =
  if cfg.rematerialize then rematerialize_consts f;
  let lin = linearize f in
  (* units per vreg, from definition types *)
  let ty_of : (Mach.cls * int, Types.ty) Hashtbl.t = Hashtbl.create 32 in
  let note r ty = Hashtbl.replace ty_of (r.Mach.rcls, r.Mach.rid) ty in
  List.iter
    (fun (b : Mach.mblock) ->
      List.iter
        (fun (i : Mach.minstr) ->
          match i.Mach.dst with
          | Some d -> (
              match i.Mach.op with
              | Mach.Obin (_, ty) | Mach.Osel ty | Mach.Omov ty | Mach.Old (_, ty)
              | Mach.Omath (_, ty) ->
                  note d ty
              | Mach.Ocast (_, dty, _) -> note d dty
              | Mach.Ocmp _ -> note d Types.TBool
              | Mach.Oquery _ -> note d Types.i32
              | Mach.Oframe -> note d Types.i64
              | Mach.Oatomic _ -> note d Types.f64
              | Mach.Oarg k -> note d (try List.nth f.Mach.arg_tys k with _ -> Types.i64)
              | _ -> note d Types.i64)
          | None -> ())
        b.Mach.code)
    f.Mach.blocks;
  let units cls r =
    match Hashtbl.find_opt ty_of (cls, r) with
    | Some ty -> cfg.reg_units ty
    | None -> 1
  in
  let iv_v = intervals f lin Mach.CV ~regions:[] in
  let iv_s = intervals f lin Mach.CS ~regions:(divergent_regions f) in
  let asn_v, used_v, press_v = scan iv_v ~cap:cfg.cap_v ~units_of:(units Mach.CV) in
  let asn_s, used_s, press_s = scan iv_s ~cap:cfg.cap_s ~units_of:(units Mach.CS) in
  let spill_base = ref 0 in
  let slot_off : (Mach.cls * int, int) Hashtbl.t = Hashtbl.create 8 in
  let slot_for cls r =
    match Hashtbl.find_opt slot_off (cls, r) with
    | Some s -> s
    | None ->
        let s = !spill_base in
        incr spill_base;
        Hashtbl.replace slot_off (cls, r) s;
        s
  in
  (* temp physical registers for spill traffic *)
  let temp_base_v = cfg.cap_v - n_reserved * 2 in
  let temp_base_s = cfg.cap_s - n_reserved * 2 in
  let rewrite_block (b : Mach.mblock) =
    let out = ref [] in
    let emit i = out := i :: !out in
    let map_src ntemp (s : Mach.msrc) : Mach.msrc =
      match s with
      | Mach.Rs r -> (
          let asn = if r.Mach.rcls = Mach.CV then asn_v else asn_s in
          match Hashtbl.find_opt asn r.Mach.rid with
          | Some (Phys p) -> Mach.Rs { r with Mach.rid = p }
          | Some (Spilled _) ->
              let slot = slot_for r.Mach.rcls r.Mach.rid in
              let base = if r.Mach.rcls = Mach.CV then temp_base_v else temp_base_s in
              let t = { r with Mach.rid = base + (!ntemp * 2) } in
              incr ntemp;
              emit { Mach.op = Mach.Ospill_ld slot; dst = Some t; srcs = [] };
              Mach.Rs t
          | None -> Mach.Rs r (* dead register: leave as-is *))
      | s -> s
    in
    List.iter
      (fun (i : Mach.minstr) ->
        let ntemp = ref 0 in
        let srcs = List.map (map_src ntemp) i.Mach.srcs in
        match i.Mach.dst with
        | Some d -> (
            let asn = if d.Mach.rcls = Mach.CV then asn_v else asn_s in
            match Hashtbl.find_opt asn d.Mach.rid with
            | Some (Phys p) -> emit { i with Mach.dst = Some { d with Mach.rid = p }; srcs }
            | Some (Spilled _) ->
                let slot = slot_for d.Mach.rcls d.Mach.rid in
                let base = if d.Mach.rcls = Mach.CV then temp_base_v else temp_base_s in
                let t = { d with Mach.rid = base + (!ntemp * 2) } in
                emit { i with Mach.dst = Some t; srcs };
                emit { Mach.op = Mach.Ospill_st slot; dst = None; srcs = [ Mach.Rs t ] }
            | None -> emit { i with srcs })
        | None -> emit { i with srcs })
      b.Mach.code;
    (* terminator condition *)
    let nt = ref 0 in
    b.Mach.term <-
      (match b.Mach.term with
      | Mach.Tcbr (c, t, e) -> Mach.Tcbr (map_src nt c, t, e)
      | t -> t);
    b.Mach.code <- List.rev !out
  in
  List.iter rewrite_block f.Mach.blocks;
  f.Mach.spill_slots <- !spill_base;
  let spilled_in asn =
    Hashtbl.fold
      (fun _ v acc -> acc || (match v with Spilled _ -> true | Phys _ -> false))
      asn false
  in
  (* Spilling means the temps at the top of the file are in use too. *)
  f.Mach.vregs <- (if spilled_in asn_v then cfg.cap_v else used_v);
  f.Mach.sregs <- (if spilled_in asn_s then cfg.cap_s else used_s);
  f.Mach.max_pressure_v <- press_v;
  f.Mach.max_pressure_s <- press_s
