(* Natural loop detection from back edges in the dominator tree,
   computed over Cfg indices. A loop is described by labels for its
   readers. *)

open Proteus_support

type loop = {
  header : string;
  latches : string list;   (* blocks with a back edge to the header *)
  body : Util.Sset.t;      (* all blocks in the loop, including header *)
  depth : int;
  parent : string option;  (* header of the enclosing loop, if any *)
}

type t = { loops : loop list }

let compute (cfg : Cfg.t) (dom : Dom.t) =
  let n = Array.length cfg.blocks in
  let label = Cfg.label cfg in
  (* Back edges b -> h, grouped by header; each header's latches in the
     reverse of the order the RPO walk meets them. *)
  let latches = Array.make n [] in
  List.iter
    (fun b ->
      List.iter
        (fun s -> if Dom.dominates dom s b then latches.(s) <- b :: latches.(s))
        cfg.succ.(b))
    cfg.rpo;
  let natural_loop h =
    let body = Array.make n false in
    body.(h) <- true;
    let rec add b =
      if not body.(b) then begin
        body.(b) <- true;
        List.iter add cfg.pred.(b)
      end
    in
    List.iter add latches.(h);
    (h, body, Array.fold_left (fun k x -> if x then k + 1 else k) 0 body)
  in
  (* Headers in descending label order: LICM and unroll walk the loops
     in this order (innermost_first is a stable sort), so it reaches
     the optimized IR. *)
  let raw =
    List.init n Fun.id
    |> List.filter (fun h -> latches.(h) <> [])
    |> List.sort (fun a b -> String.compare (label b) (label a))
    |> List.map natural_loop
  in
  (* Nesting: a loop's parent is the smallest other loop containing its header. *)
  let loops =
    List.map
      (fun (h, body, _) ->
        let enclosing = List.filter (fun (h', b', _) -> h' <> h && b'.(h)) raw in
        let parent =
          match List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) enclosing with
          | (p, _, _) :: _ -> Some (label p)
          | [] -> None
        in
        let members = Seq.filter (Array.get body) (Seq.init n Fun.id) in
        {
          header = label h;
          latches = List.map label latches.(h);
          body = Util.Sset.of_seq (Seq.map label members);
          depth = 1 + List.length enclosing;
          parent;
        })
      raw
  in
  { loops }

let innermost_first t =
  List.sort (fun a b -> compare b.depth a.depth) t.loops

(* Blocks in the loop with a successor outside it. *)
let exiting_blocks (cfg : Cfg.t) l =
  Util.Sset.fold
    (fun b acc ->
      if
        List.exists
          (fun s -> not (Util.Sset.mem (Cfg.label cfg s) l.body))
          cfg.succ.(Cfg.index cfg b)
      then b :: acc
      else acc)
    l.body []
