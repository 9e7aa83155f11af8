(* The benchmark's own reference computations.  Each recomputes its answer
   from the raw tuples the benchmark generated, without calling the
   library's evaluators or solvers: a brute-force package enumerator for
   the recommendation problems, a (count, cost) dynamic program for PaQL
   optima, and a naive join for the churn reads. *)

module Tuple = Relational.Tuple
module Value = Relational.Value

let int_at t i = match Tuple.get t i with Value.Int n -> n | _ -> 0
let str_at t i = match Tuple.get t i with Value.Str s -> s | v -> Value.to_string v

(* ---- recommendation instances: brute force ---- *)

(* A recommendation instance as the benchmark sees it: the items Q(D)
   computed from raw tuples, the additive cost and value columns, and the
   compatibility predicate evaluated on raw tuples. *)
type rinst = {
  items : Tuple.t array;
  cost_col : int;
  value_col : int;
  budget : int;
  max_size : int;
  compatible : Tuple.t list -> bool;
}

type solution = { value : int; members : Tuple.t list }

(* Every valid package (conditions (1)–(4)), the empty one included when
   it is valid, sorted by decreasing value. *)
let enumerate r =
  let n = Array.length r.items in
  let acc = ref [] in
  let rec go i size cost value members =
    if i = n then begin
      if r.compatible members then acc := { value; members } :: !acc
    end
    else begin
      go (i + 1) size cost value members;
      let t = r.items.(i) in
      let cost' = cost + int_at t r.cost_col in
      if size < r.max_size && cost' <= r.budget then
        go (i + 1) (size + 1) cost' (value + int_at t r.value_col) (t :: members)
    end
  in
  go 0 0 0 0 [];
  List.stable_sort (fun a b -> compare b.value a.value) !acc

(* Validity of one package from raw tuples: members are distinct items
   of Q(D), within budget and size, and compatible. *)
let valid r members =
  let rec distinct = function
    | [] -> true
    | t :: rest -> (not (List.exists (Tuple.equal t) rest)) && distinct rest
  in
  List.for_all (fun t -> Array.exists (Tuple.equal t) r.items) members
  && distinct members
  && List.length members <= r.max_size
  && List.fold_left (fun c t -> c + int_at t r.cost_col) 0 members <= r.budget
  && r.compatible members

let value_of r members =
  List.fold_left (fun v t -> v + int_at t r.value_col) 0 members

let sort_members ms = List.sort Tuple.compare ms

(* A top-k answer is right when it has k pairwise-distinct valid packages
   whose values are the k largest values over all valid packages (ties
   may be broken either way), or is absent exactly when fewer than k
   valid packages exist. *)
let topk r sols ~k (answer : Tuple.t list list option) =
  let best = List.filteri (fun i _ -> i < k) sols in
  match answer with
  | None ->
      if List.length sols < k then Ok ()
      else Error (Printf.sprintf "no answer, but %d valid packages" (List.length sols))
  | Some pkgs ->
      let pkgs = List.map sort_members pkgs in
      let rec distinct = function
        | [] -> true
        | p :: rest -> (not (List.mem p rest)) && distinct rest
      in
      if List.length best < k then Error "answer, but fewer than k valid packages"
      else if List.length pkgs <> k then Error "wrong number of packages"
      else if not (distinct pkgs) then Error "packages not distinct"
      else if not (List.for_all (valid r) pkgs) then Error "invalid package"
      else
        let got = List.sort (fun a b -> compare b a) (List.map (value_of r) pkgs) in
        let want = List.map (fun s -> s.value) best in
        if got = want then Ok ()
        else
          Error
            (Printf.sprintf "values [%s], expected [%s]"
               (String.concat ";" (List.map string_of_int got))
               (String.concat ";" (List.map string_of_int want)))

let max_bound sols ~k =
  match List.nth_opt sols (k - 1) with Some s -> Some s.value | None -> None

let count sols ~bound = List.length (List.filter (fun s -> s.value >= bound) sols)

(* ---- PaQL optima: (count, cost) dynamic program ---- *)

(* A package query of one shape: optional per-tuple filters, then
   SUM(cost) <= max_cost (or = with [cost_eq]) AND COUNT( * ) <= max_count
   (or = with [count_eq]), MAXIMIZE SUM(val).  With neither equality it is
   a knapsack shape, on which the empty package is always feasible. *)
type shape = {
  where_max_cost : int option;  (** WHERE cost <= c *)
  where_min_val : int option;  (** WHERE val >= v *)
  max_cost : int;
  max_count : int;
  cost_eq : bool;
  count_eq : bool;
}

let knapsack sh = not (sh.cost_eq || sh.count_eq)

(* Rows are (id, cost, val) with nonnegative integer cost. *)
let passes sh (_, c, v) =
  (match sh.where_max_cost with Some m -> c <= m | None -> true)
  && match sh.where_min_val with Some m -> v >= m | None -> true

(* The exact optimum of the shape's query, [None] when no package is
   feasible.  best.(j).(c) is the largest value of a package of exactly j
   rows and total cost exactly c; the optimum is the largest entry the
   shape's count and cost constraints admit. *)
let paql_optimum sh (rows : (int * int * int) array) =
  let jmax = sh.max_count and cmax = sh.max_cost in
  let neg = min_int / 2 in
  let best = Array.make_matrix (jmax + 1) (cmax + 1) neg in
  best.(0).(0) <- 0;
  Array.iter
    (fun ((_, c, v) as row) ->
      if passes sh row && c <= cmax then
        for j = jmax downto 1 do
          let prev = best.(j - 1) and cur = best.(j) in
          for x = cmax downto c do
            let cand = prev.(x - c) + v in
            if prev.(x - c) > neg && cand > cur.(x) then cur.(x) <- cand
          done
        done)
    rows;
  let opt = ref neg in
  Array.iteri
    (fun j row ->
      if (not sh.count_eq) || j = jmax then
        Array.iteri (fun x b -> if ((not sh.cost_eq) || x = cmax) && b > !opt then opt := b) row)
    best;
  if !opt > neg then Some !opt else None

(* Feasibility of a returned package, recomputed from the catalog. *)
let paql_feasible sh (catalog : (int, int * int) Hashtbl.t) members =
  let ids = List.map (fun (id, _, _) -> id) members in
  let rec distinct = function
    | [] -> true
    | x :: rest -> (not (List.mem x rest)) && distinct rest
  in
  let genuine =
    List.for_all
      (fun (id, c, v) ->
        match Hashtbl.find_opt catalog id with
        | Some (c', v') -> c = c' && v = v'
        | None -> false)
      members
  in
  let n = List.length members in
  let cost = List.fold_left (fun a (_, c, _) -> a + c) 0 members in
  genuine && distinct ids
  && List.for_all (passes sh) members
  && (if sh.count_eq then n = sh.max_count else n <= sh.max_count)
  && if sh.cost_eq then cost = sh.max_cost else cost <= sh.max_cost

let paql_text sh =
  let where =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "cost <= %d") sh.where_max_cost;
        Option.map (Printf.sprintf "val >= %d") sh.where_min_val;
      ]
  in
  let rel eq = if eq then "=" else "<=" in
  Printf.sprintf "SELECT PACKAGE(P) FROM R %sSUCH THAT SUM(cost) %s %d AND COUNT(*) %s %d MAXIMIZE SUM(val)"
    (if where = [] then "" else "WHERE " ^ String.concat " AND " where ^ " ")
    (rel sh.cost_eq) sh.max_cost (rel sh.count_eq) sh.max_count

(* ---- naive join ---- *)

(* Nested-loop equi-join of two tuple lists on one column each, with the
   projection applied to each matching pair; a sorted, duplicate-free
   result. *)
let naive_join ~left ~lcol ~right ~rcol ~keep ~out =
  let acc = ref [] in
  List.iter
    (fun l ->
      List.iter
        (fun r ->
          if Value.equal (Tuple.get l lcol) (Tuple.get r rcol) && keep l r then
            acc := out l r :: !acc)
        right)
    left;
  List.sort_uniq Tuple.compare !acc
