(* Dominator tree, dominance frontiers and immediate postdominators,
   after Cooper, Harvey & Kennedy, "A Simple, Fast Dominance
   Algorithm". *)

open Proteus_support

type t = {
  cfg : Cfg.t;
  idom : string Util.Smap.t;            (* immediate dominator; entry maps to itself *)
  children : string list Util.Smap.t;   (* dominator-tree children *)
  frontier : Util.Sset.t Util.Smap.t Lazy.t;
      (* dominance frontier, built on first use (mem2reg); a Dom.t
         belongs to one pass run and never crosses domains *)
  order : int Util.Smap.t;              (* RPO index, for intersect *)
}

let compute (cfg : Cfg.t) =
  let rpo = cfg.rpo in
  let order =
    List.fold_left
      (fun (m, i) l -> (Util.Smap.add l i m, i + 1))
      (Util.Smap.empty, 0) rpo
    |> fst
  in
  let entry = match rpo with e :: _ -> e | [] -> Util.failf "Dom.compute: empty CFG" in
  let idom = ref (Util.Smap.singleton entry entry) in
  let intersect a b =
    let rec go a b =
      if a = b then a
      else
        let ia = Util.Smap.find a order and ib = Util.Smap.find b order in
        if ia > ib then go (Util.Smap.find a !idom) b else go a (Util.Smap.find b !idom)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> entry then begin
          let processed_preds =
            List.filter
              (fun p -> Util.Smap.mem p !idom && Util.Smap.mem p order)
              (Cfg.preds cfg b)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if
                (not (Util.Smap.mem b !idom))
                || Util.Smap.find b !idom <> new_idom
              then begin
                idom := Util.Smap.add b new_idom !idom;
                changed := true
              end
        end)
      rpo
  done;
  let children =
    Util.Smap.fold
      (fun b d acc ->
        if b = entry then acc
        else
          let cur = try Util.Smap.find d acc with Not_found -> [] in
          Util.Smap.add d (cur @ [ b ]) acc)
      !idom Util.Smap.empty
  in
  let idom = !idom in
  (* Dominance frontiers. *)
  let frontier =
    lazy
      (let frontier = ref Util.Smap.empty in
       let add_df n x =
         let cur = try Util.Smap.find n !frontier with Not_found -> Util.Sset.empty in
         frontier := Util.Smap.add n (Util.Sset.add x cur) !frontier
       in
       List.iter
         (fun b ->
           let preds = List.filter (fun p -> Util.Smap.mem p order) (Cfg.preds cfg b) in
           if List.length preds >= 2 then
             List.iter
               (fun p ->
                 let rec runner r =
                   if r <> Util.Smap.find b idom then begin
                     add_df r b;
                     runner (Util.Smap.find r idom)
                   end
                 in
                 runner p)
               preds)
         rpo;
       !frontier)
  in
  { cfg; idom; children; frontier; order }

let idom t l = Util.Smap.find_opt l t.idom
let children t l = try Util.Smap.find l t.children with Not_found -> []
let frontier t l =
  try Util.Smap.find l (Lazy.force t.frontier) with Not_found -> Util.Sset.empty

(* Does [a] dominate [b]? Walk [b]'s idom chain. *)
let dominates t a b =
  let rec go b = if a = b then true else match idom t b with
    | Some d when d <> b -> go d
    | _ -> false
  in
  go b

(* Preorder walk of the dominator tree from the entry. *)
let preorder t =
  let entry = match t.cfg.Cfg.rpo with e :: _ -> e | [] -> Util.failf "Dom.preorder" in
  let rec go l = l :: List.concat_map go (children t l) in
  go entry

(* Immediate postdominators over blocks [0, n): the same iteration run
   on the reverse graph, rooted at a virtual exit that every block
   without successors flows into. [ipdom.(b)] is the block where all
   paths from [b] reconverge; -1 means they reconverge only at exit,
   which is also the answer for a block with no path to a return. *)
let ipostdoms (n : int) (succs : int -> int list) : int array =
  let exit = n in
  (* reverse-graph successors: the exit's are the returning blocks *)
  let outs = Array.init n (fun b -> match succs b with [] -> [ exit ] | ss -> ss) in
  let ins = Array.make (n + 1) [] in
  Array.iteri (fun b ss -> List.iter (fun s -> ins.(s) <- b :: ins.(s)) ss) outs;
  let visited = Array.make (n + 1) false in
  let rpo = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs ins.(b);
      rpo := b :: !rpo
    end
  in
  dfs exit;
  let order = Array.make (n + 1) 0 in
  List.iteri (fun i b -> order.(b) <- i) !rpo;
  let idom = Array.make (n + 1) (-1) in (* -1 = not yet processed *)
  idom.(exit) <- exit;
  let rec intersect a b =
    if a = b then a
    else if order.(a) > order.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> exit then
          match List.filter (fun s -> idom.(s) >= 0) outs.(b) with
          | [] -> ()
          | first :: rest ->
              let d = List.fold_left intersect first rest in
              if idom.(b) <> d then begin
                idom.(b) <- d;
                changed := true
              end)
      !rpo
  done;
  Array.init n (fun b -> if idom.(b) = exit then -1 else idom.(b))
