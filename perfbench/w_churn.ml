(* churn: single-tuple writes interleaved with reads on one database.
   Relations: item(id, cat, price, score) (3,000 rows), active(cat),
   tag(cat, label) and log(a, b).  The selection query joins item with
   active; the ad-hoc read joins item with tag; log is mentioned by no
   query.  One operation is one step: a write through
   Core.Instance.insert_tuple/delete_tuple (the second instance follows
   with Core.Instance.update_db), then Instance.candidates, an
   Engine.eval of the ad-hoc query and, on every fourth step, a
   constant-bound Dispatch.topk.  A round of 64 steps undoes its own
   writes, so every round starts from the same database and the expected
   answers of each step are computed once, by naive joins over relation
   mirrors the benchmark keeps itself. *)

open Harness
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let nitems = 3_000
let ncats = 50

let select_q = "Q(i, p, s) := exists c. item(i, c, p, s) & active(c)"
let eval_q = "E(i, t) := exists c, p, s. item(i, c, p, s) & tag(c, t) & p <= 20"

(* The top-k instance: premium items of active categories, packages of at
   most two within a price budget. *)
let topk_q = "P(i, p, s) := exists c. item(i, c, p, s) & active(c) & p >= 95"
let topk_budget = 196

let schemas =
  [
    Schema.make "item" [ "id"; "cat"; "price"; "score" ];
    Schema.make "active" [ "cat" ];
    Schema.make "tag" [ "cat"; "label" ];
    Schema.make "log" [ "a"; "b" ];
  ]

type write = { rel : string; tuple : Tuple.t; insert : bool; topk : bool }

type raw = {
  rels : (string * Tuple.t list) list;
  writes : write list;  (** one round *)
}

let ints = Tuple.of_ints

let raw seed =
  let rng = Random.State.make [| seed; 3 |] in
  let int n = Random.State.int rng n in
  let items = List.init nitems (fun id -> ints [ id; int ncats; 1 + int 100; int 100 ]) in
  (* exactly half the categories active, so Q(D) has the same size on
     every seed *)
  let shuffled =
    List.map snd (List.sort compare (List.map (fun c -> (Random.State.bits rng, c)) (List.init ncats Fun.id)))
  in
  let active = List.sort compare (List.filteri (fun j _ -> j < ncats / 2) shuffled) in
  let inactive = List.filter (fun c -> not (List.mem c active)) (List.init ncats Fun.id) in
  let tags = List.init 100 (fun j -> ints [ int ncats; j ]) |> List.sort_uniq Tuple.compare in
  let logs = List.init 2_000 (fun j -> ints [ j; int 1000 ]) in
  let pick l = List.nth l (int (List.length l)) in
  let w ?(topk = false) rel tuple insert = { rel; tuple; insert; topk } in
  (* One block of 16 writes that undoes itself: ten to relations the
     selection query mentions (M), six to ones it does not (U); the top-k
     read follows four M writes.  A round is four blocks on different
     tuples, so its top-k reads see sixteen different databases. *)
  let block b =
    let fresh_item id = ints [ id; pick active; 1 + int 100; int 100 ] in
    let new1 = fresh_item (nitems + (2 * b)) and new2 = fresh_item (nitems + (2 * b) + 1) in
    let old1 = pick items in
    let old2 = List.nth items ((Check.int_at old1 0 + 1 + int (nitems - 1)) mod nitems) in
    let cat = ints [ pick inactive ] in
    let tag_new = ints [ pick active; 1_000 + b ] in
    let log_new = ints [ 5_000 + b; 5_000 ] and log_old = pick logs in
    [
      w "item" new1 true (* M *);
      w "log" log_new true (* U *);
      w ~topk:true "item" old1 false (* M *);
      w "active" cat true (* M *);
      w "tag" tag_new true (* U *);
      w "item" old2 false (* M *);
      w ~topk:true "item" new2 true (* M *);
      w "log" log_old false (* U *);
      w "active" cat false (* M *);
      w ~topk:true "item" old1 true (* M *);
      w "tag" tag_new false (* U *);
      w "item" new1 false (* M *);
      w "log" log_old true (* U *);
      w ~topk:true "item" old2 true (* M *);
      w "item" new2 false (* M *);
      w "log" log_new false (* U *);
    ]
  in
  let writes = List.concat_map block [ 0; 1; 2; 3 ] in
  {
    rels =
      [
        ("item", items);
        ("active", List.map (fun c -> ints [ c ]) active);
        ("tag", tags);
        ("log", logs);
      ];
    writes;
  }

let parse q = Qlang.Query.Fo (Qlang.Parser.parse_query q)

type state = {
  main : Core.Instance.t;  (** selection query Q *)
  premium : Core.Instance.t;  (** the top-k instance, same database *)
}

(* Generation and load: the database, both instances, and their first
   evaluation. *)
let setup seed =
  let r = raw seed in
  let db =
    Database.of_relations
      (List.map (fun s -> Relation.of_list s (List.assoc s.Schema.name r.rels)) schemas)
  in
  let main =
    Core.Instance.make ~db ~select:(parse select_q)
      ~cost:(Core.Rating.sum_col ~nonneg:true 1) ~value:(Core.Rating.sum_col 2)
      ~budget:(float_of_int topk_budget) ()
  in
  let premium =
    Core.Instance.make ~db ~select:(parse topk_q)
      ~cost:(Core.Rating.sum_col ~nonneg:true 1) ~value:(Core.Rating.sum_col 2)
      ~budget:(float_of_int topk_budget) ~size_bound:(Core.Size_bound.Const 2) ()
  in
  Core.Instance.prewarm main;
  Core.Instance.prewarm premium;
  { main; premium }

type expected = {
  cands : Tuple.t list;
  evaled : Tuple.t list;
  top : (Check.rinst * Check.solution list) option;
}

(* Replay one round on mirrors: after each write, the expected answers of
   that step's reads. *)
let reference r =
  let mirror = Hashtbl.create 4 in
  List.iter (fun (n, ts) -> Hashtbl.replace mirror n ts) r.rels;
  let get n = Hashtbl.find mirror n in
  List.map
    (fun w ->
      let cur = get w.rel in
      Hashtbl.replace mirror w.rel
        (if w.insert then w.tuple :: cur else List.filter (fun t -> not (Tuple.equal t w.tuple)) cur);
      let active_items ~keep =
        Check.naive_join ~left:(get "item") ~lcol:1 ~right:(get "active") ~rcol:0
          ~keep:(fun l _ -> keep l)
          ~out:(fun l _ -> Tuple.project [ 0; 2; 3 ] l)
      in
      let cands = active_items ~keep:(fun _ -> true) in
      let evaled =
        Check.naive_join ~left:(get "item") ~lcol:1 ~right:(get "tag") ~rcol:0
          ~keep:(fun l _ -> Check.int_at l 2 <= 20)
          ~out:(fun l r -> ints [ Check.int_at l 0; Check.int_at r 1 ])
      in
      let top =
        if not w.topk then None
        else
          let items = Array.of_list (active_items ~keep:(fun l -> Check.int_at l 2 >= 95)) in
          let ri =
            {
              Check.items;
              cost_col = 1;
              value_col = 2;
              budget = topk_budget;
              max_size = 2;
              compatible = (fun _ -> true);
            }
          in
          Some (ri, Check.enumerate ri)
      in
      (w, { cands; evaled; top }))
    r.writes

let same got want =
  let got = Relation.to_list got in
  List.length got = List.length want && List.for_all2 Tuple.equal got want

let round eval_query state expected st =
  List.iter
    (fun (w, e) ->
      let step () =
        let s = !state in
        let main =
          layer "core.update" (fun () ->
              (if w.insert then Core.Instance.insert_tuple else Core.Instance.delete_tuple)
                s.main w.rel w.tuple)
        in
        let premium =
          layer "core.update" (fun () -> Core.Instance.update_db s.premium main.Core.Instance.db)
        in
        let cands = layer "core.candidates" (fun () -> Core.Instance.candidates main) in
        let evaled = layer "qlang.eval" (fun () -> Qlang.Engine.eval main.Core.Instance.db eval_query) in
        let top =
          if w.topk then Some (layer "core.topk" (fun () -> Core.Dispatch.topk premium ~k:2))
          else None
        in
        state := { main; premium };
        (cands, evaled, top)
      in
      tally st "write" 1;
      tally st "candidates" 1;
      tally st "eval" 1;
      if w.topk then tally st "topk" 1;
      op st "step" step (fun (cands, evaled, top) ->
          let wrong m = Error (`Wrong, m) in
          if not (same cands e.cands) then wrong "candidates differ from the naive join"
          else if not (same evaled e.evaled) then wrong "ad-hoc query differs from the naive join"
          else
            match (top, e.top) with
            | Some ans, Some (ri, sols) -> (
                let ans = Option.map (List.map Core.Package.to_list) ans in
                match Check.topk ri sols ~k:2 ans with
                | Ok () -> Ok ()
                | Error m -> wrong ("top-k: " ^ m))
            | None, None -> Ok ()
            | _ -> wrong "top-k read missing"))
    expected
