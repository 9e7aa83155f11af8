(* serve: the `recommend serve` daemon in a process of its own, with one
   worker domain and warm loaded instances, driven by one connection in a
   closed loop.  The instances are 64 of the recommend workload's kind
   (32 expert teams, 32 course plans) and 41 PaQL catalogs; one round
   sends 490 requests: eval, topk, count, maxbound, rpp and analyze on
   every recommend instance, an exact paql query on each of eight 30-row
   catalogs, an approx one (SketchRefine) on each of 32 40-row catalogs,
   enough of them that the mean approximation ratio and the round's time
   vary little from seed to seed, and two approx ones with equality
   constraints on a 40-row catalog that is the same on every seed.  Answers are memo-hot, so most requests spend their time on
   the serving path: parse, admission, queue handoff, socket I/O and
   response write.  Every answer is checked with the checkers of the
   recommend and paql workloads. *)

open Harness
module Tuple = Relational.Tuple
module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let exe = ref "_build/default/bin/recommend.exe"
let out_dir = ref "perfbench/_out"
let sock () = Filename.concat !out_dir "serve.sock"
let trace_file () = Filename.concat !out_dir "serve-trace.ndjson"

type check = stats -> Json.t -> (unit, [ `Wrong | `Error ] * string) result

type inputs = {
  files : (string * string) list;  (** wire name, instance-file text *)
  requests : (string * check) list;  (** request line without id, check *)
}

(* ---- inputs ---- *)

let rating_sum col = Core.Rating_expr.E_sum col

let spec ~db ~select ?compat ~cost_col ~value_col ~budget ?(size = Core.Size_bound.linear) () =
  {
    Core.Instance_file.s_db = db;
    s_select = select;
    s_compat = compat;
    s_cost = rating_sum cost_col;
    s_value = rating_sum value_col;
    s_budget = float_of_int budget;
    s_size = size;
    s_dists = [];
  }

(* The wire form of a tuple, as the daemon prints it: (v1, ..., vn), strings
   quoted.  The generated strings hold no commas or quotes. *)
let tuple_of_wire s =
  let inner = String.sub s 1 (String.length s - 2) in
  Tuple.of_list
    (List.map
       (fun v ->
         let v = String.trim v in
         if String.length v > 0 && v.[0] = '"' then Value.Str (String.sub v 1 (String.length v - 2))
         else Value.Int (int_of_string v))
       (String.split_on_char ',' inner))

let items_of pkg = List.map (fun i -> tuple_of_wire (Json.str i)) (Json.list (Json.field "items" pkg))

let wrong m = Error (`Wrong, m)
let verdict = function Ok () -> Ok () | Error m -> wrong m

let topk_answer d =
  if not (Json.bool (Json.field "exists" d)) then None
  else Some (List.map items_of (Json.list (Json.field "packages" d)))

let recommend_requests name (r : Check.rinst) sols =
  let q fmt = Printf.sprintf fmt in
  let b3 = Option.value (Check.max_bound sols ~k:3) ~default:1 in
  [
    (q "topk inst=%s k=1" name, fun _ d -> verdict (Check.topk r sols ~k:1 (topk_answer d)));
    (q "topk inst=%s k=3" name, fun _ d -> verdict (Check.topk r sols ~k:3 (topk_answer d)));
    ( q "count inst=%s bound=%d" name b3,
      fun _ d ->
        let n = int_of_float (Json.num (Json.field "count" d)) in
        if n = Check.count sols ~bound:b3 then Ok () else wrong "count differs" );
    ( q "maxbound inst=%s k=2" name,
      fun _ d ->
        let got = match Json.field "bound" d with Json.Null -> None | v -> Some (int_of_float (Json.num v)) in
        if got = Check.max_bound sols ~k:2 then Ok () else wrong "max bound differs" );
    ( q "rpp inst=%s k=3" name,
      fun _ d ->
        match Json.field "is_topk" d with
        | Json.Bool true -> Ok ()
        | Json.Null when List.length sols < 3 -> Ok ()
        | _ -> wrong "the daemon's own top-3 was not certified" );
    ( q "eval inst=%s" name,
      fun _ d ->
        let got = List.map (fun t -> tuple_of_wire (Json.str t)) (Json.list (Json.field "answers" d)) in
        if List.length got = Array.length r.Check.items && List.for_all2 Tuple.equal got (Array.to_list r.Check.items)
        then Ok ()
        else wrong "eval answer differs from Q(D)" );
    ( q "analyze inst=%s" name,
      fun _ d -> if Json.bool (Json.field "ok" d) then Ok () else wrong "the selection query was rejected" );
  ]


let paql_request name approx (sh : Check.shape) ~by_id ~nrows opt =
  let text = Check.paql_text sh in
  let line = Printf.sprintf "paql inst=%s q=%S%s" name text (if approx then " approx=true" else "") in
  ( line,
    fun st d ->
      let ans =
        match Json.field "answer" d with
        | Json.Null -> None
        | a ->
            Some
              (List.map
                 (fun t -> (Check.int_at t 0, Check.int_at t 1, Check.int_at t 2))
                 (items_of (Json.field "package" a)))
      in
      W_paql.verdict st ~shape:sh ~approx ~by_id ~opt ~nrows ~text ans )

let catalog_select = Qlang.Query.Fo (Qlang.Parser.parse_query "Q(i, c, v) := R(i, c, v)")

(* Generation: instance files and the request mix of one round.  The
   reference answers are computed here too; [setup] times only the
   daemon's start. *)
let inputs seed =
  let rng = Random.State.make [| seed; 4 |] in
  let recommend =
    List.init 64 (fun j ->
        let name = Printf.sprintf "%s%d" (if j mod 2 = 0 then "team" else "course") (j / 2) in
        if j mod 2 = 0 then begin
          let ((_, _, budget) as raw) = W_recommend.team_raw rng in
          let _, r = W_recommend.team_case raw in
          let s =
            spec ~db:(W_recommend.team_db raw) ~select:(W_recommend.parse W_recommend.team_select)
              ~compat:(W_recommend.parse W_recommend.team_compat) ~cost_col:2 ~value_col:3 ~budget ()
          in
          (name, s, r)
        end
        else begin
          let ((_, _, budget) as raw) = W_recommend.course_raw rng in
          let _, r = W_recommend.course_case raw in
          let s =
            spec ~db:(W_recommend.course_db raw) ~select:(W_recommend.parse W_recommend.course_select)
              ~compat:(W_recommend.parse W_recommend.course_compat) ~cost_col:3 ~value_col:4 ~budget
              ~size:(Core.Size_bound.Const r.Check.max_size) ()
          in
          (name, s, r)
        end)
  in
  let exact = W_paql.le 10 3 in
  let catalogs =
    List.init 41 (fun j ->
        let n = if j < 8 then 30 else 40 in
        (* the last catalog, with equality shapes, is the same on every
           seed: see the paql workload *)
        let rng = if j = 40 then Random.State.make [| 1; 6 |] else rng in
        let rows = Array.init n (fun id -> (id, 1 + Random.State.int rng 9, Random.State.int rng 100)) in
        let by_id = Hashtbl.create n in
        Array.iter (fun (id, c, v) -> Hashtbl.replace by_id id (c, v)) rows;
        let db =
          Database.of_relations
            [
              Relation.of_list W_paql.schema
                (Array.to_list (Array.map (fun (a, b, c) -> Tuple.of_ints [ a; b; c ]) rows));
            ]
        in
        let s = spec ~db ~select:catalog_select ~cost_col:1 ~value_col:2 ~budget:10 () in
        let name = Printf.sprintf "cat%d" j in
        let shapes =
          if j < 8 then [ (false, exact) ]
          else if j < 40 then [ (true, W_paql.le 20 4) ]
          else
            [ (true, W_paql.eq 23 5); (true, { (W_paql.eq 23 5) with Check.where_max_cost = Some 7 }) ]
        in
        let request (approx, sh) =
          paql_request name approx sh ~by_id ~nrows:n (Check.paql_optimum sh rows)
        in
        (name, s, List.map request shapes))
  in
  let file (n, s, _) = (n, Core.Instance_file.to_string s) in
  {
    files = List.map file recommend @ List.map file catalogs;
    requests =
      List.concat_map (fun (n, _, r) -> recommend_requests n r (Check.enumerate r)) recommend
      @ List.concat_map (fun (_, _, reqs) -> reqs) catalogs;
  }

(* ---- the daemon ---- *)

type daemon = { pid : int; conn : Serve.Client.t }

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let reap pid ~timeout =
  let t0 = now () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () -. t0 < timeout ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Write the instance files, part of generating the inputs; the result is
   the daemon's arguments that load them. *)
let write_files files =
  mkdir_p !out_dir;
  List.concat_map
    (fun (name, text) ->
      let path = Filename.concat !out_dir (name ^ ".inst") in
      write_file path text;
      [ "--load"; name ^ "=" ^ path ])
    files

(* Start the daemon on the instance files and wait until it accepts a
   connection (it loads and prewarms every instance before listening). *)
let start ~traced loads =
  let args =
    Array.of_list
      ([ !exe; "serve"; "--socket"; sock (); "--domains"; "1" ]
      @ loads
      @ if traced then [ "--trace-json" ] else [])
  in
  if Sys.file_exists (sock ()) then Sys.remove (sock ());
  let out =
    Unix.openfile (trace_file ()) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process !exe args Unix.stdin out Unix.stderr in
  Unix.close out;
  (* probe with a throwaway socket, so that failed attempts leak no
     descriptor, then connect once *)
  let accepting () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let ok = try Unix.connect fd (Unix.ADDR_UNIX (sock ())); true with Unix.Unix_error _ -> false in
    Unix.close fd;
    ok
  in
  let t0 = now () in
  while not (accepting ()) do
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "perfbench: the serve daemon exited before listening");
    if now () -. t0 > 60. then begin
      reap pid ~timeout:0.;
      failwith "perfbench: the serve daemon did not listen within 60 s"
    end;
    Unix.sleepf 0.002
  done;
  { pid; conn = Serve.Client.connect_unix (sock ()) }

let stop d =
  (try ignore (Serve.Client.request d.conn "shutdown") with _ -> ());
  Serve.Client.close d.conn;
  reap d.pid ~timeout:10.

(* ---- the loop ---- *)

let next_id = ref 0

let round daemon requests st =
  List.iter
    (fun (line, check) ->
      incr next_id;
      let line = Printf.sprintf "%s id=%d" line !next_id in
      op st "request"
        (fun () ->
          let t0 = now () in
          match Serve.Client.request (daemon ()).conn line with
          | Some r -> (r, now () -. t0)
          | None -> failwith "connection closed")
        (fun (r, rtt) ->
          match Json.parse r with
          | exception Json.Bad m -> Error (`Error, "unparseable response: " ^ m)
          | j -> (
              let ms = Json.num (Json.field "ms" j) in
              if !tracing then begin
                add_layer "serve.exec" (ms /. 1000.);
                add_layer "serve.overhead" (rtt -. (ms /. 1000.))
              end;
              match Json.str (Json.field "status" j) with
              | "ok" -> (
                  try check st (Json.field "data" j)
                  with Json.Bad m -> Error (`Wrong, "malformed data: " ^ m))
              | s -> Error (`Error, s ^ " response to " ^ line))))
    requests

(* The traced half: per-request queue wait and the Observe counters the
   daemon captured around each request, summed. *)
let trace_records () =
  let ic = open_in (trace_file ()) in
  let queue = ref 0. and totals : (string, Observe.value) Hashtbl.t = Hashtbl.create 64 in
  (try
     while true do
       let line = input_line ic in
       match Json.parse line with
       | exception Json.Bad _ -> ()
       | j -> (
           match Json.field "serve_trace" j with
           | exception Json.Bad _ -> ()
           | t ->
               queue := !queue +. Json.num (Json.field "queue_ms" t);
               (match Json.field "counters" t with
               | Json.Obj kv ->
                   List.iter
                     (fun (k, v) ->
                       let v =
                         match v with
                         | Json.Num n -> Observe.Count (int_of_float n)
                         | o ->
                             Observe.Span
                               {
                                 entries = int_of_float (Json.num (Json.field "entries" o));
                                 seconds = Json.num (Json.field "seconds" o);
                               }
                       in
                       let sum =
                         match (Hashtbl.find_opt totals k, v) with
                         | Some (Observe.Count a), Observe.Count b -> Observe.Count (a + b)
                         | Some (Observe.Span a), Observe.Span b ->
                             Observe.Span { entries = a.entries + b.entries; seconds = a.seconds +. b.seconds }
                         | _, v -> v
                       in
                       Hashtbl.replace totals k sum)
                     kv
               | _ -> ()))
     done
   with End_of_file -> ());
  close_in ic;
  (!queue, Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare)
