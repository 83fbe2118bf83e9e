(* Proper vertex colorings: checking, and exact colorability for the
   small shift graphs of the lower-bound experiments. The distributed
   colorings the solvers run live in [Lll_local.Dist_coloring]. *)

type t = int array (* node -> color, colors are >= 0 *)

let is_proper g (c : t) =
  Array.length c = Graph.n g
  && Graph.fold_edges (fun ok _ u v -> ok && c.(u) <> c.(v)) true g

let num_colors (c : t) = Array.fold_left (fun acc x -> max acc (x + 1)) 0 c

(* Exact c-colorability by backtracking with forward checking, visiting
   nodes in descending-degree order; [budget] caps the number of search
   nodes (None result = budget exhausted, undecided). Exponential in the
   worst case — meant for the small, structured graphs of the lower-bound
   experiments (shift graphs). *)
let colorable_exn ?(budget = 10_000_000) g c =
  let n = Graph.n g in
  if n = 0 then Some (Some [||])
  else begin
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare (Graph.degree g b) (Graph.degree g a)) order;
    let colors = Array.make n (-1) in
    let steps = ref 0 in
    let exception Out_of_budget in
    let rec go i =
      if i = n then true
      else begin
        incr steps;
        if !steps > budget then raise Out_of_budget;
        let v = order.(i) in
        let used = Array.make c false in
        Graph.iter_adj g v (fun u _ -> if colors.(u) >= 0 then used.(colors.(u)) <- true);
        let rec try_color k =
          if k = c then false
          else if used.(k) then try_color (k + 1)
          else begin
            colors.(v) <- k;
            if go (i + 1) then true
            else begin
              colors.(v) <- -1;
              try_color (k + 1)
            end
          end
        in
        try_color 0
      end
    in
    try if go 0 then Some (Some (Array.copy colors)) else Some None
    with Out_of_budget -> None
  end

let colorable ?budget g c =
  match colorable_exn ?budget g c with
  | Some (Some _) -> Some true
  | Some None -> Some false
  | None -> None

(* Exact chromatic number (within the search budget): smallest [c] for
   which the graph is [c]-colorable. [None] if the budget ran out before
   a decision. *)
let chromatic_number ?budget g =
  let rec go c =
    if c > Graph.n g then None
    else
      match colorable ?budget g c with
      | Some true -> Some c
      | Some false -> go (c + 1)
      | None -> None
  in
  if Graph.n g = 0 then Some 0 else go 1
