(* CFG utilities over a function's blocks: successor/predecessor maps,
   orderings, reachability. *)

open Proteus_support

type t = {
  func : Ir.func;
  succs : string list Util.Smap.t;
  preds : string list Util.Smap.t;
  postorder : string list; (* reachable blocks, postorder *)
  rpo : string list;       (* reverse postorder *)
}

let successors_of (f : Ir.func) =
  List.fold_left
    (fun m (b : Ir.block) -> Util.Smap.add b.label (Ir.successors b.term) m)
    Util.Smap.empty f.blocks

let build (f : Ir.func) =
  let succs = successors_of f in
  let preds = ref Util.Smap.empty in
  List.iter
    (fun (b : Ir.block) -> preds := Util.Smap.add b.label [] !preds)
    f.blocks;
  Util.Smap.iter
    (fun from tos ->
      List.iter
        (fun t ->
          let cur = try Util.Smap.find t !preds with Not_found -> [] in
          preds := Util.Smap.add t (cur @ [ from ]) !preds)
        tos)
    succs;
  (* DFS postorder from entry. *)
  let visited = ref Util.Sset.empty in
  let post = ref [] in
  let rec dfs l =
    if not (Util.Sset.mem l !visited) then begin
      visited := Util.Sset.add l !visited;
      List.iter dfs (try Util.Smap.find l succs with Not_found -> []);
      post := l :: !post
    end
  in
  (match f.blocks with b :: _ -> dfs b.label | [] -> ());
  let rpo = !post in
  { func = f; succs; preds = !preds; postorder = List.rev rpo; rpo }

(* Successors of [blocks.(i)] as indices into [blocks], the shape
   Dom.ipostdoms takes. *)
let succ_indices (blocks : Ir.block array) : int -> int list =
  let index = Hashtbl.create (2 * Array.length blocks) in
  Array.iteri (fun i (b : Ir.block) -> Hashtbl.replace index b.label i) blocks;
  fun i -> List.map (Hashtbl.find index) (Ir.successors blocks.(i).term)

let succs t l = try Util.Smap.find l t.succs with Not_found -> []
let preds t l = try Util.Smap.find l t.preds with Not_found -> []
let reachable t = Util.Sset.of_list t.rpo

(* Drop blocks not reachable from entry; prune stale phi entries. *)
let remove_unreachable (f : Ir.func) =
  let t = build f in
  let live = reachable t in
  let changed = List.exists (fun (b : Ir.block) -> not (Util.Sset.mem b.label live)) f.blocks in
  if changed then begin
    f.blocks <- List.filter (fun (b : Ir.block) -> Util.Sset.mem b.label live) f.blocks;
    List.iter
      (fun (b : Ir.block) ->
        b.insts <-
          List.map
            (function
              | Ir.IPhi (d, incoming) ->
                  Ir.IPhi (d, List.filter (fun (l, _) -> Util.Sset.mem l live) incoming)
              | i -> i)
            b.insts)
      f.blocks
  end;
  changed
