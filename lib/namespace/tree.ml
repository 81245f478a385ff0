type node = int

type t = {
  component : string array; (* id -> last name component; "" for root *)
  parent : int array; (* id -> parent id; root -> -1 *)
  children : int array array;
  neighbors : int list array; (* id -> parent :: children, precomputed *)
  depth : int array;
  name_of : Name.t array; (* id -> interned name, O(1) lookup *)
  by_name : (int, int) Hashtbl.t; (* Name.id -> id; lookup only, never iterated *)
  max_depth : int;
}

let root = 0

module Builder = struct
  type tree = t

  type t = {
    mutable comps : string array;
    mutable parents : int array;
    mutable kids : int list array; (* reverse insertion order *)
    mutable depths : int array;
    mutable names : Name.t array; (* interned name per node *)
    mutable count : int;
    by_name : (int, int) Hashtbl.t; (* Name.id -> node id *)
    mutable sealed : bool;
  }

  let create () =
    let b =
      {
        comps = Array.make 16 "";
        parents = Array.make 16 (-1);
        kids = Array.make 16 [];
        depths = Array.make 16 0;
        names = Array.make 16 Name.root;
        count = 1;
        by_name = Hashtbl.create 256;
        sealed = false;
      }
    in
    Hashtbl.add b.by_name (Name.id Name.root) 0;
    b

  let check_alive b op = if b.sealed then invalid_arg ("Tree.Builder." ^ op ^ ": builder is sealed")

  let size b = b.count

  let ensure b =
    let cap = Array.length b.comps in
    if b.count = cap then begin
      let grow a fill =
        let fresh = Array.make (2 * cap) fill in
        Array.blit a 0 fresh 0 cap;
        fresh
      in
      b.comps <- grow b.comps "";
      b.parents <- grow b.parents (-1);
      b.kids <- grow b.kids [];
      b.depths <- grow b.depths 0;
      b.names <- grow b.names Name.root
    end

  let add_child b parent component =
    check_alive b "add_child";
    if parent < 0 || parent >= b.count then invalid_arg "Tree.Builder.add_child: bad parent id";
    if component = "" || String.contains component '/' then
      invalid_arg "Tree.Builder.add_child: invalid component";
    let name = Name.child b.names.(parent) component in
    if Hashtbl.mem b.by_name (Name.id name) then invalid_arg "Tree.Builder.add_child: duplicate child";
    ensure b;
    let id = b.count in
    b.count <- id + 1;
    b.comps.(id) <- component;
    b.parents.(id) <- parent;
    b.depths.(id) <- b.depths.(parent) + 1;
    b.names.(id) <- name;
    b.kids.(parent) <- id :: b.kids.(parent);
    Hashtbl.add b.by_name (Name.id name) id;
    id

  let freeze b =
    check_alive b "freeze";
    b.sealed <- true;
    let n = b.count in
    let children = Array.init n (fun i -> Array.of_list (List.rev b.kids.(i))) in
    let depth = Array.sub b.depths 0 n in
    let max_depth = Array.fold_left max 0 depth in
    (* Neighbor lists are read on every replica install/evict and every
       context assembly; the tree is immutable once frozen, so build them
       once here instead of re-allocating parent :: children per call. *)
    let neighbors =
      Array.init n (fun v ->
          let kids = Array.to_list children.(v) in
          if v = 0 then kids else b.parents.(v) :: kids)
    in
    {
      component = Array.sub b.comps 0 n;
      parent = Array.sub b.parents 0 n;
      children;
      neighbors;
      depth;
      name_of = Array.sub b.names 0 n;
      by_name = b.by_name;
      max_depth;
    }
end

let size t = Array.length t.component

let check_node t v op =
  if v < 0 || v >= size t then invalid_arg ("Tree." ^ op ^ ": node id out of range")

let name t v =
  check_node t v "name";
  t.name_of.(v)

let name_string t v = Name.to_string (name t v)

let parent t v =
  check_node t v "parent";
  if v = 0 then None else Some t.parent.(v)

let children t v =
  check_node t v "children";
  t.children.(v)

let num_children t v = Array.length (children t v)

let depth t v =
  check_node t v "depth";
  t.depth.(v)

let max_depth t = t.max_depth

let neighbors t v =
  check_node t v "neighbors";
  t.neighbors.(v)

let find t n = Hashtbl.find_opt t.by_name (Name.id n)

let find_string t s = find t (Name.of_string s)

let rec lift t v target_depth = if t.depth.(v) > target_depth then lift t t.parent.(v) target_depth else v

(* Climb two equal-depth nodes in lockstep until they meet. *)
let rec meet t a b = if a = b then a else meet t t.parent.(a) t.parent.(b)

let lca t a b =
  check_node t a "lca";
  check_node t b "lca";
  let d = min t.depth.(a) t.depth.(b) in
  meet t (lift t a d) (lift t b d)

let is_ancestor t a b =
  check_node t a "is_ancestor";
  check_node t b "is_ancestor";
  t.depth.(a) <= t.depth.(b) && lift t b t.depth.(a) = a

let ancestor_at_depth t v d =
  check_node t v "ancestor_at_depth";
  if d < 0 || d > t.depth.(v) then invalid_arg "Tree.ancestor_at_depth: bad depth";
  lift t v d

let distance t a b =
  let l = lca t a b in
  t.depth.(a) + t.depth.(b) - (2 * t.depth.(l))

let route_path t src dst =
  let l = lca t src dst in
  let rec up acc v = if v = l then List.rev (v :: acc) else up (v :: acc) t.parent.(v) in
  let upward = up [] src in
  let rec down acc v = if v = l then acc else down (v :: acc) t.parent.(v) in
  upward @ down [] dst

let level_sizes t =
  let levels = Array.make (t.max_depth + 1) 0 in
  Array.iter (fun d -> levels.(d) <- levels.(d) + 1) t.depth;
  levels

let iter t f =
  for v = 0 to size t - 1 do
    f v
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun v -> acc := f !acc v);
  !acc

let leaves t = fold t ~init:[] ~f:(fun acc v -> if num_children t v = 0 then v :: acc else acc)

let check_invariants t =
  let n = size t in
  if n = 0 then failwith "Tree: empty";
  if t.parent.(0) <> -1 then failwith "Tree: root has a parent";
  if t.depth.(0) <> 0 then failwith "Tree: root depth non-zero";
  for v = 1 to n - 1 do
    let p = t.parent.(v) in
    if p < 0 || p >= n then failwith "Tree: parent out of range";
    if t.depth.(v) <> t.depth.(p) + 1 then failwith "Tree: depth mismatch";
    if not (Array.exists (fun c -> c = v) t.children.(p)) then
      failwith "Tree: child missing from parent's children"
  done;
  let total_children = Array.fold_left (fun acc kids -> acc + Array.length kids) 0 t.children in
  if total_children <> n - 1 then failwith "Tree: children count mismatch";
  iter t (fun v ->
      match find t (name t v) with
      | Some v' when v' = v -> ()
      | _ -> failwith "Tree: name interning mismatch")
