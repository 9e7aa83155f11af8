(* recommend: the paper's four problems (FRP top-k, MBP, CPP, RPP) through
   Core.Dispatch and Core.Rpp on small random instances, each answered on
   a freshly made instance so that every visit starts with a cold memo.
   Two instance families alternate: expert teams (a CQ compatibility
   constraint: no conflicting pair) and course plans (an FO constraint with
   negation: prerequisite closure).  Both are small enough (10-11 items)
   for the benchmark to enumerate every package itself. *)

open Harness
module Tuple = Relational.Tuple
module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let team_select = "Q(e, s, p, v) := expert(e, s, p, v) & s != \"data\""

let team_compat =
  "Qc() := exists a, s1, c1, v1, b, s2, c2, v2. RQ(a, s1, c1, v1) & RQ(b, \
   s2, c2, v2) & conflict(a, b)"

let course_select = "Q(c, a, l, cr, r) := course(c, a, l, cr, r) & a != \"sys\""

let course_compat =
  "Qc() := exists c, ca, cl, ccr, cr, p. RQ(c, ca, cl, ccr, cr) & prereq(c, \
   p) & not (exists pa, pl, pcr, pr. RQ(p, pa, pl, pcr, pr))"

type case = {
  make : unit -> Core.Instance.t;  (** a fresh instance, cold memo *)
  ref_ : Check.rinst;
  sols : Check.solution list;  (** every valid package, best first *)
}

let s v = Value.Str v
let i v = Value.Int v

(* Raw tuples of one team instance: twelve experts, two of them in the
   "data" skill the selection query filters out, so every instance has
   ten items and a fixed budget; only the values and conflicts vary. *)
let team_raw rng =
  let n = 12 in
  let skills = [| "backend"; "frontend"; "design" |] in
  let experts =
    List.init n (fun k ->
        Tuple.of_list
          [
            s ("e" ^ string_of_int k);
            s (if k mod 6 = 5 then "data" else skills.(Random.State.int rng 3));
            i (60 + Random.State.int rng 80);
            i (1 + Random.State.int rng 9);
          ])
  in
  let conflicts =
    List.init (n / 2) (fun _ ->
        let a = Random.State.int rng n in
        let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
        Tuple.of_list [ s ("e" ^ string_of_int a); s ("e" ^ string_of_int b) ])
  in
  (experts, conflicts, 280)

(* Thirteen courses, two of them in the "sys" area the selection query
   filters out: eleven items per instance. *)
let course_raw rng =
  let n = 13 in
  let areas = [| "db"; "ml"; "theory" |] in
  let courses =
    List.init n (fun k ->
        Tuple.of_list
          [
            s ("c" ^ string_of_int k);
            s (if k mod 6 = 5 then "sys" else areas.(Random.State.int rng 3));
            i (1 + Random.State.int rng 3);
            i (5 + (5 * Random.State.int rng 2));
            i (1 + Random.State.int rng 9);
          ])
  in
  let edges =
    List.init (n / 2) (fun _ ->
        let a = 1 + Random.State.int rng (n - 1) in
        Tuple.of_list
          [ s ("c" ^ string_of_int a); s ("c" ^ string_of_int (Random.State.int rng a)) ])
  in
  (courses, edges, 30)

let parse q = Qlang.Query.Fo (Qlang.Parser.parse_query q)

let team_db (experts, conflicts, _) =
  Database.of_relations
    [
      Relation.of_list (Schema.make "expert" [ "eid"; "skill"; "salary"; "score" ]) experts;
      Relation.of_list (Schema.make "conflict" [ "a"; "b" ]) conflicts;
    ]

let course_db (courses, edges, _) =
  Database.of_relations
    [
      Relation.of_list
        (Schema.make "course" [ "cid"; "area"; "level"; "credits"; "rating" ])
        courses;
      Relation.of_list (Schema.make "prereq" [ "cid"; "requires" ]) edges;
    ]

let team_case ((experts, conflicts, budget) as raw) =
  let db = team_db raw in
  let make () =
    Core.Instance.make ~db ~select:(parse team_select)
      ~compat:(Core.Instance.Compat_query (parse team_compat))
      ~cost:(Core.Rating.sum_col ~nonneg:true 2)
      ~value:(Core.Rating.sum_col 3) ~budget:(float_of_int budget) ()
  in
  let items =
    Array.of_list
      (List.sort Tuple.compare
         (List.filter (fun t -> Check.str_at t 1 <> "data") experts))
  in
  let clash members =
    List.exists
      (fun c ->
        let a = Check.str_at c 0 and b = Check.str_at c 1 in
        let inp x = List.exists (fun t -> Check.str_at t 0 = x) members in
        inp a && inp b)
      conflicts
  in
  let ref_ =
    {
      Check.items;
      cost_col = 2;
      value_col = 3;
      budget;
      max_size = List.length experts + List.length conflicts;
      compatible = (fun ms -> not (clash ms));
    }
  in
  (make, ref_)

let course_case ((courses, edges, budget) as raw) =
  let db = course_db raw in
  let max_size = 4 in
  let make () =
    Core.Instance.make ~db ~select:(parse course_select)
      ~compat:(Core.Instance.Compat_query (parse course_compat))
      ~cost:(Core.Rating.sum_col ~nonneg:true 3)
      ~value:(Core.Rating.sum_col 4) ~budget:(float_of_int budget)
      ~size_bound:(Core.Size_bound.Const max_size) ()
  in
  let items =
    Array.of_list
      (List.sort Tuple.compare
         (List.filter (fun t -> Check.str_at t 1 <> "sys") courses))
  in
  let closed members =
    List.for_all
      (fun m ->
        List.for_all
          (fun e ->
            Check.str_at e 0 <> Check.str_at m 0
            || List.exists (fun t -> Check.str_at t 0 = Check.str_at e 1) members)
          edges)
      members
  in
  let ref_ =
    { Check.items; cost_col = 3; value_col = 4; budget; max_size; compatible = closed }
  in
  (make, ref_)

let ninstances = 192

(* Generation and load: raw tuples, then the relations the instances are
   made over. *)
let setup seed =
  let rng = Random.State.make [| seed; 1 |] in
  List.init ninstances (fun j ->
      if j mod 2 = 0 then team_case (team_raw rng) else course_case (course_raw rng))

(* A first top-3 on every instance, so that set-up ends with the plans
   compiled and the relations' indexes built, as they are for every later
   round. *)
let warm cases = List.iter (fun (make, _) -> ignore (Core.Dispatch.topk (make ()) ~k:3)) cases

(* The reference answers, computed once per run outside set-up time. *)
let reference cases =
  List.map (fun (make, ref_) -> { make; ref_; sols = Check.enumerate ref_ }) cases

let members p = Core.Package.to_list p

let round cases st =
  List.iter
    (fun c ->
      let inst = c.make () in
      let r = c.ref_ in
      let wrong msg = Error (`Wrong, msg) in
      List.iter
        (fun k ->
          op st "topk"
            (fun () -> layer "core.topk" (fun () -> Core.Dispatch.topk inst ~k))
            (fun ans ->
              let ans = Option.map (List.map members) ans in
              match Check.topk r c.sols ~k ans with Ok () -> Ok () | Error m -> wrong m))
        [ 1; 2; 3 ];
      op st "maxbound"
        (fun () -> layer "core.maxbound" (fun () -> Core.Dispatch.max_bound inst ~k:3))
        (fun b ->
          let want = Check.max_bound c.sols ~k:3 in
          if Option.map int_of_float b = want then Ok ()
          else wrong "max bound differs");
      let bound = Option.value (Check.max_bound c.sols ~k:3) ~default:1 in
      op st "count"
        (fun () ->
          layer "core.count" (fun () ->
              Core.Dispatch.count inst ~bound:(float_of_int bound)))
        (fun n ->
          let want = Check.count c.sols ~bound in
          if n = want then Ok ()
          else wrong (Printf.sprintf "count %d, expected %d" n want));
      (* RPP on the enumerator's own top-3 (a yes-instance) and on that set
         with its last package replaced by a strictly worse valid one (a
         no-instance). *)
      let pkg (s : Check.solution) = Core.Package.of_tuples s.Check.members in
      match c.sols with
      | a :: b :: third :: rest ->
          op st "rpp"
            (fun () -> layer "core.rpp" (fun () -> Core.Rpp.is_topk inst [ pkg a; pkg b; pkg third ]))
            (fun yes -> if yes then Ok () else wrong "top-3 rejected");
          (match List.find_opt (fun s -> s.Check.value < third.Check.value) rest with
          | Some worse ->
              op st "rpp"
                (fun () ->
                  layer "core.rpp" (fun () -> Core.Rpp.is_topk inst [ pkg a; pkg b; pkg worse ]))
                (fun yes -> if yes then wrong "non-top-3 accepted" else Ok ())
          | None -> ())
      | _ -> ())
    cases
