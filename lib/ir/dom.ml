(* Dominator tree, dominance frontiers and immediate postdominators,
   after Cooper, Harvey & Kennedy, "A Simple, Fast Dominance
   Algorithm". One solver serves both: dominators run it forward from
   the entry, postdominators on the reverse graph from a virtual exit.

   Blocks are Cfg indices. [children] and [frontier] list blocks in
   label order: mem2reg follows both, and the order it walks in decides
   the order of phi incomings and the numbers of the registers it
   creates, which reach the printed IR. *)

type t = {
  cfg : Cfg.t;
  idom : int array;                    (* entry maps to itself, an unreachable block to -1 *)
  children : int list array;           (* dominator-tree children *)
  frontier : int list array Lazy.t;
      (* dominance frontier, built on first use (mem2reg); a Dom.t
         is shared only by the pass runs of one optimizer run *)
}

(* The Cooper-Harvey-Kennedy iteration over nodes [0, n): [rpo] is the
   reverse postorder of the nodes reachable from its head, the root,
   and [preds v] the nodes with an edge into [v]. Returns the immediate
   dominators: the root maps to itself, an unreached node to -1. *)
let solve n (rpo : int list) (preds : int -> int list) : int array =
  let order = Array.make n 0 in
  List.iteri (fun i v -> order.(v) <- i) rpo;
  let idom = Array.make n (-1) in
  let root = List.hd rpo in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if order.(a) > order.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v <> root then
          match List.filter (fun p -> idom.(p) >= 0) (preds v) with
          | [] -> ()
          | first :: rest ->
              let d = List.fold_left intersect first rest in
              if idom.(v) <> d then begin
                idom.(v) <- d;
                changed := true
              end)
      rpo
  done;
  idom

let compute_fresh (cfg : Cfg.t) =
  if cfg.rpo = [] then failwith "Dom.compute: empty CFG";
  let n = Array.length cfg.blocks in
  let idom = solve n cfg.rpo (Array.get cfg.pred) in
  (* the reachable blocks, last label first: prepending in this order
     leaves every list in label order *)
  let desc = List.sort (fun a b -> String.compare (Cfg.label cfg b) (Cfg.label cfg a)) cfg.rpo in
  let children = Array.make n [] in
  List.iter (fun b -> if idom.(b) <> b then children.(idom.(b)) <- b :: children.(idom.(b))) desc;
  (* The entry is in no frontier: the function's start enters it too,
     so no phi can be placed there. *)
  let frontier =
    lazy
      (let df = Array.make n [] in
       List.iter
         (fun b ->
           match List.filter (Array.get cfg.reachable) cfg.pred.(b) with
           | _ :: _ :: _ as preds when idom.(b) <> b ->
               let rec runner r =
                 if r <> idom.(b) then begin
                   (match df.(r) with x :: _ when x = b -> () | l -> df.(r) <- b :: l);
                   runner idom.(r)
                 end
               in
               List.iter runner preds
           | _ -> ())
         desc;
       df)
  in
  { cfg; idom; children; frontier }

type Cfg.tree += Tree of t

(* Inside [Cfg.reusing], a graph's tree is solved once and kept with
   it. *)
let compute (cfg : Cfg.t) =
  match Cfg.memo_of cfg with
  | Some { tree = Some (Tree d); _ } -> d
  | Some m ->
      let d = compute_fresh cfg in
      m.tree <- Some (Tree d);
      d
  | None -> compute_fresh cfg

let children t b = t.children.(b)
let frontier t b = (Lazy.force t.frontier).(b)

(* Does [a] dominate [b]? Walk [b]'s idom chain. *)
let dominates t a b =
  let rec go b =
    a = b
    ||
    let d = t.idom.(b) in
    d >= 0 && d <> b && go d
  in
  go b

(* Immediate postdominators over blocks [0, n): the solver run on the
   reverse graph, rooted at a virtual exit that every block without
   successors flows into. [ipdom.(b)] is the block where all paths
   from [b] reconverge; -1 means they reconverge only at exit, which is
   also the answer for a block with no path to a return. *)
let ipostdoms (n : int) (succs : int -> int list) : int array =
  let exit = n in
  (* forward successors, the exit standing for a return: on the reverse
     graph they are the predecessors, and [ins] the successors *)
  let outs = Array.init n (fun b -> match succs b with [] -> [ exit ] | ss -> ss) in
  let ins = Array.make (n + 1) [] in
  Array.iteri (fun b ss -> List.iter (fun s -> ins.(s) <- b :: ins.(s)) ss) outs;
  let rpo, _ = Cfg.dfs (n + 1) exit (Array.get ins) in
  let idom = solve (n + 1) rpo (Array.get outs) (* never read for the exit *) in
  Array.init n (fun b -> if idom.(b) = exit then -1 else idom.(b))
