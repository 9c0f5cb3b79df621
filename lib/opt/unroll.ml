(* Full loop unrolling for loops whose trip count is a compile-time
   constant. After Proteus folds kernel arguments to runtime constants,
   loop bounds frequently become constant; unrolling then removes all
   loop-control overhead. This is the main cascading effect of
   runtime-constant-folding specialization.

   The loop shape handled matches what the frontend emits for for/while:
   a header with phis and an exit-test conditional branch, a single
   latch and a preheader. The trip count is derived by abstract
   execution over the statically-known value chain (induction variables
   with constant init/step/bound). *)

open Proteus_support
open Proteus_ir

let max_trips = 200_000
let trip_threshold = 16
let size_budget = 8192

type plan = {
  header : string;
  exit_ : string;
  inside : string;
  latch : string;
  preheader : string;
  body : Util.Sset.t;
  trips : int;
  (* header phis: dest, init operand (from preheader), next operand (from latch) *)
  phis : (int * Ir.operand * Ir.operand) list;
}

(* Evaluate the statically-known fragment of one loop iteration.
   [env] maps regs to constants; returns the branch decision and the
   updated env after executing the always-executed blocks. *)
let eval_iteration (f : Ir.func) (dom : Dom.t) (l : Loopinfo.loop) (latch : string)
    (env : Konst.t Util.Imap.t) : (bool * Konst.t Util.Imap.t) option =
  let cfg = dom.Dom.cfg in
  let latch = Cfg.index cfg latch in
  let always =
    (* blocks in the loop that execute every iteration, in RPO *)
    List.filter
      (fun b -> Util.Sset.mem (Cfg.label cfg b) l.Loopinfo.body && Dom.dominates dom b latch)
      cfg.rpo
  in
  let env = ref env in
  let known = function
    | Ir.Imm k -> Some k
    | Ir.Reg r -> Util.Imap.find_opt r !env
    | Ir.Glob _ -> None
  in
  let decision = ref None in
  List.iter
    (fun bi ->
      let b = cfg.blocks.(bi) in
      List.iter
        (fun i ->
          match (i, Ir.def_of i) with
          | Ir.IPhi _, _ -> ()
          | Ir.IBin (d, op, x, y), _ -> (
              match (known x, known y) with
              | Some kx, Some ky -> (
                  match Konst.binop op kx ky with
                  | k -> env := Util.Imap.add d k !env
                  | exception _ -> ())
              | _ -> ())
          | Ir.ICmp (d, op, x, y), _ -> (
              match (known x, known y) with
              | Some kx, Some ky -> (
                  match Konst.cmpop op kx ky with
                  | k -> env := Util.Imap.add d k !env
                  | exception _ -> ())
              | _ -> ())
          | Ir.ICast (d, op, x), _ -> (
              match known x with
              | Some kx -> (
                  match Konst.cast op kx (Ir.reg_ty f d) with
                  | k -> env := Util.Imap.add d k !env
                  | exception _ -> ())
              | None -> ())
          | Ir.ISelect (d, c, x, y), _ -> (
              match known c with
              | Some kc -> (
                  match known (if Konst.as_bool kc then x else y) with
                  | Some k -> env := Util.Imap.add d k !env
                  | None -> ())
              | None -> ())
          | _, _ -> ())
        b.Ir.insts;
      if b.Ir.label = l.Loopinfo.header then
        match b.Ir.term with
        | Ir.TCondBr (c, _, _) -> decision := known c
        | _ -> ())
    always;
  match !decision with Some k -> Some (Konst.as_bool k, !env) | None -> None

let analyze (f : Ir.func) (cfg : Cfg.t) (dom : Dom.t) (l : Loopinfo.loop) : plan option
    =
  match l.Loopinfo.latches with
  | [ latch ] -> (
      let header = l.Loopinfo.header in
      let h = Cfg.index cfg header in
      let hb = cfg.blocks.(h) in
      match hb.Ir.term with
      | Ir.TCondBr (_, a, b) -> (
          let in_loop x = Util.Sset.mem x l.Loopinfo.body in
          let inside, exit_ =
            if in_loop a && not (in_loop b) then (a, b)
            else if in_loop b && not (in_loop a) then (b, a)
            else ("", "")
          in
          if inside = "" then None
          else if
            (* all exits must go through the header *)
            List.exists
              (fun lbl -> lbl <> header)
              (Loopinfo.exiting_blocks cfg l)
          then None
          else
            match List.filter (fun p -> not (in_loop (Cfg.label cfg p))) cfg.pred.(h) with
            | [ p ] when cfg.succ.(p) = [ h ] -> (
                let preheader = Cfg.label cfg p in
                (* header phis with init from preheader and next from latch *)
                let phis = ref [] in
                let ok = ref true in
                List.iter
                  (fun i ->
                    match i with
                    | Ir.IPhi (d, inc) -> (
                        match (List.assoc_opt preheader inc, List.assoc_opt latch inc) with
                        | Some init, Some next -> phis := (d, init, next) :: !phis
                        | _ -> ok := false)
                    | _ -> ())
                  hb.Ir.insts;
                if not !ok then None
                else begin
                  (* abstract execution to find the trip count *)
                  let env0 =
                    List.fold_left
                      (fun env (d, init, _) ->
                        match init with
                        | Ir.Imm k -> Util.Imap.add d k env
                        | _ -> env)
                      Util.Imap.empty !phis
                  in
                  let rec count k env =
                    if k > trip_threshold || k > max_trips then None
                    else
                      match eval_iteration f dom l latch env with
                      | None -> None
                      | Some (false, _) -> Some k
                      | Some (true, env') ->
                          (* advance phis *)
                          let env'' =
                            List.fold_left
                              (fun acc (d, _, next) ->
                                match next with
                                | Ir.Imm kn -> Util.Imap.add d kn acc
                                | Ir.Reg r -> (
                                    match Util.Imap.find_opt r env' with
                                    | Some kn -> Util.Imap.add d kn acc
                                    | None -> Util.Imap.remove d acc)
                                | Ir.Glob _ -> Util.Imap.remove d acc)
                              env0 !phis
                          in
                          (* stop if no phi is tracked anymore: cannot terminate *)
                          if Util.Imap.is_empty env'' then None else count (k + 1) env''
                  in
                  match count 0 env0 with
                  | Some trips when trips <= trip_threshold ->
                      let body_size =
                        Util.Sset.fold
                          (fun lbl acc ->
                            acc + List.length (Ir.find_block f lbl).Ir.insts)
                          l.Loopinfo.body 0
                      in
                      if (trips + 1) * (body_size + 1) <= size_budget then
                        Some
                          {
                            header;
                            exit_;
                            inside;
                            latch;
                            preheader;
                            body = l.Loopinfo.body;
                            trips;
                            phis = !phis;
                          }
                      else None
                  | _ -> None
                end)
            | _ -> None)
      | _ -> None)
  | _ -> None

let apply (f : Ir.func) (p : plan) : unit =
  let body_labels = Util.Sset.elements p.body in
  let hb = Ir.find_block f p.header in
  let header_nonphi =
    List.filter (function Ir.IPhi _ -> false | _ -> true) hb.Ir.insts
  in
  (* per-iteration register renaming *)
  let label_k k l = Printf.sprintf "%s.u%d" l k in
  (* phi_vals.(k) : operand for each phi at entry of iteration k *)
  let nphis = List.length p.phis in
  let phi_vals = Array.make_matrix (p.trips + 1) nphis (Ir.Imm Konst.KNull) in
  let reg_maps : (int, int) Hashtbl.t array =
    Array.init (p.trips + 1) (fun _ -> Hashtbl.create 16)
  in
  let phi_index = List.mapi (fun i (d, _, _) -> (d, i)) p.phis in
  let map_def k r =
    match Hashtbl.find_opt reg_maps.(k) r with
    | Some r' -> r'
    | None ->
        let r' = Ir.fresh_reg f (Ir.reg_ty f r) in
        Hashtbl.replace reg_maps.(k) r r';
        r'
  in
  (* Loop-defined registers rename eagerly (handles forward references
     across inner back edges); header phis substitute their value. *)
  let map_op k o =
    match o with
    | Ir.Reg r -> (
        match List.assoc_opt r phi_index with
        | Some i -> phi_vals.(k).(i)
        | None -> Ir.Reg (map_def k r))
    | o -> o
  in
  (* Pre-compute which regs are defined inside the loop (they need renaming). *)
  let loop_defs = ref Util.Iset.empty in
  List.iter
    (fun lbl ->
      List.iter
        (fun i ->
          match Ir.def_of i with
          | Some d -> loop_defs := Util.Iset.add d !loop_defs
          | None -> ())
        (Ir.find_block f lbl).Ir.insts)
    body_labels;
  let rename_def k i =
    match Ir.def_of i with
    | Some d when Util.Iset.mem d !loop_defs -> (
        let nd = map_def k d in
        match i with
        | Ir.IBin (_, op, a, b) -> Ir.IBin (nd, op, a, b)
        | Ir.ICmp (_, op, a, b) -> Ir.ICmp (nd, op, a, b)
        | Ir.ISelect (_, c, a, b) -> Ir.ISelect (nd, c, a, b)
        | Ir.ICast (_, op, a) -> Ir.ICast (nd, op, a)
        | Ir.ILoad (_, ptr) -> Ir.ILoad (nd, ptr)
        | Ir.IGep (_, ptr, idx) -> Ir.IGep (nd, ptr, idx)
        | Ir.ICall (_, callee, args) -> Ir.ICall (Some nd, callee, args)
        | Ir.IAlloca (_, ty, n) -> Ir.IAlloca (nd, ty, n)
        | Ir.IPhi (_, inc) -> Ir.IPhi (nd, inc)
        | Ir.IStore _ -> i)
    | _ -> i
  in
  let map_reg_use k o =
    match o with
    | Ir.Reg r when Util.Iset.mem r !loop_defs -> map_op k o
    | Ir.Reg _ | Ir.Imm _ | Ir.Glob _ -> o
  in
  (* Initial phi values. *)
  List.iteri (fun i (_, init, _) -> phi_vals.(0).(i) <- init) p.phis;
  let new_blocks = ref [] in
  for k = 0 to p.trips - 1 do
    (* header clone for iteration k: non-phi instructions; branch inside *)
    let hdr_insts =
      List.map (fun i -> rename_def k (Ir.map_operands (map_reg_use k) i)) header_nonphi
    in
    new_blocks :=
      { Ir.label = label_k k p.header; insts = hdr_insts; term = Ir.TBr (label_k k p.inside) }
      :: !new_blocks;
    (* body blocks *)
    List.iter
      (fun lbl ->
        if lbl <> p.header then begin
          let b = Ir.find_block f lbl in
          let insts =
            List.map
              (fun i ->
                match i with
                | Ir.IPhi (d, inc) ->
                    let i' =
                      Ir.IPhi
                        ( d,
                          List.map
                            (fun (l, v) ->
                              let l' =
                                if Util.Sset.mem l p.body then label_k k l else l
                              in
                              (l', map_reg_use k v))
                            inc )
                    in
                    rename_def k i'
                | _ -> rename_def k (Ir.map_operands (map_reg_use k) i))
              b.Ir.insts
          in
          let map_label l =
            if l = p.header then label_k (k + 1) p.header
            else if Util.Sset.mem l p.body then label_k k l
            else l
          in
          let term =
            match b.Ir.term with
            | Ir.TBr l -> Ir.TBr (map_label l)
            | Ir.TCondBr (c, t, e) ->
                Ir.TCondBr (map_reg_use k c, map_label t, map_label e)
            | t -> t
          in
          new_blocks := { Ir.label = label_k k lbl; insts; term } :: !new_blocks
        end)
      body_labels;
    (* next iteration phi values *)
    List.iteri
      (fun i (_, _, next) -> phi_vals.(k + 1).(i) <- map_reg_use k next)
      p.phis
  done;
  (* Final header evaluation (iteration = trips): condition is false. *)
  let k = p.trips in
  let hdr_insts =
    List.map (fun i -> rename_def k (Ir.map_operands (map_reg_use k) i)) header_nonphi
  in
  new_blocks :=
    { Ir.label = label_k k p.header; insts = hdr_insts; term = Ir.TBr p.exit_ }
    :: !new_blocks;
  (* Wire in: preheader jumps to iteration 0's header clone. *)
  let ph = Ir.find_block f p.preheader in
  ph.Ir.term <- Ir.retarget_term ph.Ir.term ~from_label:p.header ~to_label:(label_k 0 p.header);
  (* Uses of loop-defined registers outside the loop refer to the final
     iteration's values (only header definitions can dominate the exit). *)
  let final_subst = Hashtbl.create 16 in
  List.iteri
    (fun i (d, _, _) -> Hashtbl.replace final_subst d phi_vals.(p.trips).(i))
    p.phis;
  List.iter
    (fun inst ->
      match Ir.def_of inst with
      | Some d -> (
          match Hashtbl.find_opt reg_maps.(p.trips) d with
          | Some nd -> Hashtbl.replace final_subst d (Ir.Reg nd)
          | None -> ())
      | None -> ())
    header_nonphi;
  (* Remove original loop blocks, add clones. *)
  f.Ir.blocks <-
    List.filter (fun (b : Ir.block) -> not (Util.Sset.mem b.Ir.label p.body)) f.Ir.blocks
    @ List.rev !new_blocks;
  (* Exit-block phis coming from the header now come from the final clone. *)
  Ir.retarget_phis f ~from_label:p.header ~to_label:(label_k p.trips p.header);
  (* Substitute escaped values. *)
  let resolve o =
    match o with
    | Ir.Reg r -> ( match Hashtbl.find_opt final_subst r with Some v -> v | None -> o)
    | o -> o
  in
  List.iter
    (fun (b : Ir.block) ->
      if not (Util.Sset.mem b.Ir.label p.body) then begin
        (* only blocks outside the original loop can have escaped uses;
           clones already use renamed registers *)
        b.Ir.insts <- List.map (Ir.map_operands resolve) b.Ir.insts;
        b.Ir.term <- Ir.map_term_operands resolve b.Ir.term
      end)
    f.Ir.blocks

let run (stats : Pass.stats) (_m : Ir.modul) (f : Ir.func) : bool =
  let cfg = Cfg.prune f in
  if f.Ir.blocks = [] || not (Cfg.has_cycle cfg) then false
  else begin
    let dom = Dom.compute cfg in
    let li = Loopinfo.compute cfg dom in
    (* Unroll at most one loop per run (innermost first); the pipeline
       iterates to a fixpoint. *)
    let rec try_loops = function
      | [] -> false
      | l :: rest -> (
          match analyze f cfg dom l with
          | Some plan ->
              let body_size =
                Util.Sset.fold
                  (fun lbl acc -> acc + List.length (Ir.find_block f lbl).Ir.insts)
                  plan.body 0
              in
              stats.Pass.unroll_loops <- stats.Pass.unroll_loops + 1;
              stats.Pass.unroll_copies <- stats.Pass.unroll_copies + ((plan.trips + 1) * body_size);
              apply f plan;
              ignore (Cfg.remove_unreachable f);
              true
          | None -> try_loops rest)
    in
    try_loops (Loopinfo.innermost_first li)
  end

let pass = { Pass.name = "unroll"; run }
