(* paql: PaQL package queries over generated catalogs R(id, cost, val)
   (cost 1..9, val 0..99), each operation parsing, compiling and solving
   one query text.  Exact solves (Core.Paql_compile over Solvers.Pb) run
   on catalogs of 50-70 rows with small COUNT caps, the sizes the exact
   solver closes in milliseconds; SketchRefine runs on 10^3-10^5 rows,
   some queries behind WHERE filters, some with equality constraints.
   Every answer is checked against the benchmark's own (count, cost)
   dynamic program. *)

open Harness
module Tuple = Relational.Tuple
module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

type query = {
  shape : Check.shape;
  approx : bool;
  catalog : int;  (** rows of the catalog it runs on, one catalog per query *)
  fixed : int option;  (** the catalog is drawn from this seed, not the run's *)
}

let le cost count =
  {
    Check.where_max_cost = None;
    where_min_val = None;
    max_cost = cost;
    max_count = count;
    cost_eq = false;
    count_eq = false;
  }

let eq cost count = { (le cost count) with Check.cost_eq = true; count_eq = true }

(* One round: 16 exact solves on 50-70 row catalogs, then 67 SketchRefine
   solves on knapsack shapes (upper bounds only, some behind WHERE
   filters) at 10^3-10^5 rows, where it reaches about 0.97 of the exact
   optimum, then 8 SketchRefine solves of SUM(cost) = 23 AND COUNT( * ) = 5,
   with and without WHERE cost <= 7, on 2,000-row catalogs.  Exact solve
   times vary tenfold between catalogs of one size, and 10^3-row sketches
   take 50-200 ms depending on the catalog; with 64 of those the run's
   quantiles and throughput move little from seed to seed.  On equality shapes
   SketchRefine is far from optimal and on some catalogs returns no
   package although one is feasible; which catalogs depends on the data,
   so these four catalogs are drawn from fixed seeds, and every run
   attempts, and fails, the same solves. *)
let exact_queries =
  List.init 16 (fun j ->
      let shape = le 10 4 in
      {
        catalog = 50 + (10 * (j mod 3));
        approx = false;
        shape = (if j mod 4 = 3 then { shape with where_min_val = Some 20 } else shape);
        fixed = None;
      })

let sketch_shapes =
  [|
    le 50 8;
    { (le 40 8) with where_min_val = Some 10 };
    le 20 5;
    { (le 30 6) with where_max_cost = Some 7 };
  |]

let sketch q catalog shape = { catalog; approx = true; shape; fixed = q }

let sketch_queries =
  List.init 64 (fun j -> sketch None 1_000 sketch_shapes.(j mod 4))
  @ [
      sketch None 10_000 (le 50 8);
      sketch None 10_000 sketch_shapes.(3);
      sketch None 100_000 (le 50 8);
    ]

let equality_queries =
  List.concat_map
    (fun k ->
      [ sketch (Some k) 2_000 (eq 23 5); sketch (Some k) 2_000 { (eq 23 5) with where_max_cost = Some 7 } ])
    [ 1; 2; 3; 4 ]

let queries = exact_queries @ sketch_queries @ equality_queries

let schema = Schema.make "R" [ "id"; "cost"; "val" ]

(* The raw rows of every query's catalog, (id, cost, val). *)
let rows seed =
  let rng = Random.State.make [| seed; 2 |] in
  let gen rng n = Array.init n (fun id -> (id, 1 + Random.State.int rng 9, Random.State.int rng 100)) in
  Array.of_list
  @@ List.map
       (fun q ->
         match q.fixed with
         | Some k -> gen (Random.State.make [| k; 5 |]) q.catalog
         | None -> gen rng q.catalog)
       queries

(* Generation and load: one fresh catalog per query. *)
let setup seed =
  Array.map
    (fun rows ->
      Database.of_relations
        [
          Relation.of_list schema
            (Array.to_list (Array.map (fun (a, b, c) -> Tuple.of_ints [ a; b; c ]) rows));
        ])
    (rows seed)

type reference = {
  q : query;
  text : string;
  opt : int option;  (** the exact optimum, [None] when infeasible *)
  by_id : (int, int * int) Hashtbl.t;
  nrows : int;
}

(* The exact optimum of every query, computed once per run from its own
   copy of the rows, outside set-up time. *)
let reference seed =
  let all = rows seed in
  List.mapi
    (fun j q ->
      let rows = all.(j) in
      let by_id = Hashtbl.create (Array.length rows) in
      Array.iter (fun (id, c, v) -> Hashtbl.replace by_id id (c, v)) rows;
      { q; text = Check.paql_text q.shape; opt = Check.paql_optimum q.shape rows; by_id;
        nrows = Array.length rows })
    queries

let members (a : Core.Paql_compile.answer) =
  List.map
    (fun t -> (Check.int_at t 0, Check.int_at t 1, Check.int_at t 2))
    (Core.Package.to_list a.Core.Paql_compile.package)

let objective ms = List.fold_left (fun s (_, _, v) -> s + v) 0 ms

(* The check of one answer, [None] or a package's (id, cost, val) rows,
   against the optimum [opt] of its catalog.  An exact answer must reach
   the optimum; an approximate one must be feasible, not above the
   optimum and, on knapsack shapes, at least half of it.  No package
   where one is feasible on an equality shape is SketchRefine's known
   fault: a failed operation, not a wrong answer. *)
let verdict st ~shape ~approx ~by_id ~opt ~nrows ~text ans =
  let on = Printf.sprintf " on %d rows: %s" nrows text in
  let wrong msg = Error (`Wrong, msg ^ on) in
  match (ans, opt) with
  | None, None -> Ok ()
  | None, Some _ when Check.knapsack shape -> wrong "no package, but the empty one is feasible"
  | None, Some o -> Error (`Error, Printf.sprintf "no package, but one of value %d is feasible%s" o on)
  | Some _, None -> wrong "a package, but none is feasible"
  | Some ms, Some opt ->
      let obj = objective ms in
      if not (Check.paql_feasible shape by_id ms) then wrong "infeasible package"
      else if not approx then
        if obj = opt then Ok () else wrong (Printf.sprintf "objective %d, optimum %d" obj opt)
      else if obj > opt then wrong "approximate objective above the optimum"
      else if Check.knapsack shape && 2 * obj < opt then
        wrong (Printf.sprintf "objective %d below half the optimum %d" obj opt)
      else begin
        if opt > 0 then quality st (float_of_int obj /. float_of_int opt);
        Ok ()
      end

let round refs dbs st =
  List.iteri
    (fun j { q; text; opt; by_id; nrows } ->
      let solve () =
        let parsed = layer "qlang.paql_parse" (fun () -> Qlang.Paql.parse text) in
        let c =
          layer "core.paql_compile" (fun () -> Core.Paql_compile.compile_exn dbs.(j) parsed)
        in
        if q.approx then begin
          let o = layer "sketch.solve" (fun () -> Sketch.solve c) in
          if !tracing then begin
            let s = o.Sketch.stats in
            tally st "sketch.pb_nodes" (s.Sketch.sketch_nodes + s.Sketch.refine_nodes);
            if s.Sketch.winner = "sketch-refine" then tally st "sketch.refine_won" 1
          end;
          o.Sketch.answer
        end
        else layer "solvers.pb_solve" (fun () -> Core.Paql_compile.solve_exact c)
      in
      op st "paql" solve (fun ans ->
          match ans with
          | Some a when float_of_int (objective (members a)) <> a.Core.Paql_compile.objective ->
              Error (`Wrong, "reported objective differs from the package's: " ^ text)
          | _ -> verdict st ~shape:q.shape ~approx:q.approx ~by_id ~opt ~nrows ~text
                   (Option.map members ans)))
    refs
