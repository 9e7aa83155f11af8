(* Measurement harness shared by the workloads: the closed-loop operation
   runner, latency quantiles, process resources, and the per-layer
   accounting of the traced run.

   Every workload is one caller in one process issuing its next operation
   only after the previous one returned (a closed loop).  An operation is
   timed around the call into the library alone; the benchmark's own
   answer check runs after the clock stops. *)

let now = Unix.gettimeofday

(* ---- growable sample buffer ---- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 4096 0.; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

(* Quantile of samples [lo, hi) with linear interpolation between order
   statistics. *)
let quantile_range s lo hi q =
  let n = hi - lo in
  if n <= 0 then 0.
  else begin
    let v = Array.sub s.a lo n in
    Array.sort Float.compare v;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then v.(n - 1)
    else v.(i) +. ((pos -. float_of_int i) *. (v.(i + 1) -. v.(i)))
  end

let quantile s q = quantile_range s 0 s.n q

let median xs =
  let s = samples () in
  List.iter (push s) xs;
  quantile s 0.5

(* ---- process resources ---- *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable. *)
let rss_peak_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ---- per-layer accounting (traced run only) ---- *)

let tracing = ref false

(* Seconds spent in each timed layer call, keyed by metric stem. *)
let layer_time : (string, float ref) Hashtbl.t = Hashtbl.create 16

let accumulate t name dt =
  match Hashtbl.find_opt t name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.add t name (ref dt)

let add_layer = accumulate layer_time

(* [layer name f] times one call into a layer when tracing.  Calls timed
   here never nest, so their sum never exceeds the operation's wall time;
   the rest of the operation is reported as [unattributed_ms]. *)
let layer name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    match f () with
    | v ->
        add_layer name (now () -. t0);
        v
    | exception e ->
        add_layer name (now () -. t0);
        raise e
  end

(* Time inside a layer call already timed above (the serve queue wait is
   part of the daemon's execution time): reported, never summed. *)
let nested_time : (string, float ref) Hashtbl.t = Hashtbl.create 4

let add_nested = accumulate nested_time

let layer_seconds name =
  let find t = Option.map ( ! ) (Hashtbl.find_opt t name) in
  match find layer_time with Some s -> s | None -> Option.value (find nested_time) ~default:0.

(* ---- operations ---- *)

type stats = {
  lat : samples;  (** per-operation wall time, ms *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** answers that disagreed with the reference *)
  mutable op_wall : float;  (** summed operation wall time, s *)
  mutable q_sum : float;
  mutable q_n : int;
  counts : (string, int ref) Hashtbl.t;  (** operations per kind, tallies *)
}

let stats () =
  {
    lat = samples ();
    attempted = 0;
    failed = 0;
    wrong = 0;
    op_wall = 0.;
    q_sum = 0.;
    q_n = 0;
    counts = Hashtbl.create 8;
  }

let kind_count st what =
  match Hashtbl.find_opt st.counts what with Some r -> !r | None -> 0

let tally st what n =
  match Hashtbl.find_opt st.counts what with
  | Some r -> r := !r + n
  | None -> Hashtbl.add st.counts what (ref n)

let reported = ref 0

let complain what msg =
  if !reported < 10 then prerr_endline ("perfbench: FAILED " ^ what ^ ": " ^ msg);
  incr reported

(* Failure kinds: [`Wrong] is an answer that disagrees with the
   benchmark's own computation; [`Error] is an exception, a partial or an
   error response. *)
let fail st kind what msg =
  st.failed <- st.failed + 1;
  if kind = `Wrong then st.wrong <- st.wrong + 1;
  complain what msg

(* [op st what call check]: one timed call, then its check. *)
let op st what call check =
  st.attempted <- st.attempted + 1;
  tally st what 1;
  let t0 = now () in
  let r = try Ok (call ()) with e -> Error (Printexc.to_string e) in
  let dt = now () -. t0 in
  push st.lat (dt *. 1000.);
  st.op_wall <- st.op_wall +. dt;
  match r with
  | Error e -> fail st `Error what ("raised " ^ e)
  | Ok v -> (
      match check v with
      | Ok () -> ()
      | Error (`Wrong, msg) -> fail st `Wrong what msg
      | Error (`Error, msg) -> fail st `Error what msg)

let quality st r =
  st.q_sum <- st.q_sum +. r;
  st.q_n <- st.q_n + 1

(* ---- phases ---- *)

(* A window: consecutive whole rounds lasting at least [window_s]. *)
type window = {
  w_ops : int;
  w_elapsed : float;  (** s *)
  w_cpu : float;  (** s *)
  w_p50 : float;  (** ms *)
  w_p90 : float;  (** ms *)
}

let window_s = 1.0

type phase = {
  st : stats;
  windows : window list;
  elapsed : float;  (** loop wall time, s *)
  cpu : float;  (** CPU of the working process over the loop, s *)
  minor : int;
  major : int;
  promoted : float;  (** words *)
  observed : Observe.snapshot;  (** counter increase over the loop *)
}

(* Run whole rounds until [seconds] have passed (at least one round), so
   every run attempts the same operations in the same proportions.  The
   rounds are also grouped into windows of at least [window_s] each (a
   last, shorter window counts when it is at least half that long or the
   only one): the machine's speed changes over seconds, and the medians
   over windows are less moved by a slow stretch than totals are. *)
let run_phase ?(cpu = cpu_seconds) ~seconds round =
  let st = stats () in
  let snap0 = Observe.snapshot () in
  let g0 = Gc.quick_stat () in
  let c0 = cpu () in
  let t0 = now () in
  let rounds = ref 0 and windows = ref [] in
  let w_t = ref t0 and w_c = ref c0 and w_n = ref 0 in
  let close_window t c =
    windows :=
      {
        w_ops = st.attempted - !w_n;
        w_elapsed = t -. !w_t;
        w_cpu = c -. !w_c;
        w_p50 = quantile_range st.lat !w_n st.lat.n 0.5;
        w_p90 = quantile_range st.lat !w_n st.lat.n 0.9;
      }
      :: !windows;
    w_t := t;
    w_c := c;
    w_n := st.attempted
  in
  while !rounds = 0 || now () -. t0 < seconds do
    round st;
    incr rounds;
    let t = now () in
    if t -. !w_t >= window_s then close_window t (cpu ())
  done;
  let t1 = now () in
  let c1 = cpu () in
  if st.attempted > !w_n && (!windows = [] || t1 -. !w_t >= window_s /. 2.) then close_window t1 c1;
  let elapsed = t1 -. t0 in
  let cpu = c1 -. c0 in
  let g1 = Gc.quick_stat () in
  {
    st;
    windows = List.rev !windows;
    elapsed;
    cpu;
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    observed = Observe.diff snap0 (Observe.snapshot ());
  }

(* Two phases as one: their operations, times and counter increases
   added up.  The per-layer times of [layer] accumulate over every traced
   phase of a run by themselves. *)
let merge a b =
  let st = stats () in
  List.iter
    (fun s ->
      for i = 0 to s.lat.n - 1 do
        push st.lat s.lat.a.(i)
      done;
      st.attempted <- st.attempted + s.attempted;
      st.failed <- st.failed + s.failed;
      st.wrong <- st.wrong + s.wrong;
      st.op_wall <- st.op_wall +. s.op_wall;
      st.q_sum <- st.q_sum +. s.q_sum;
      st.q_n <- st.q_n + s.q_n;
      Hashtbl.iter (fun k r -> tally st k !r) s.counts)
    [ a.st; b.st ];
  let add_value x y =
    match (x, y) with
    | Observe.Count m, Observe.Count n -> Observe.Count (m + n)
    | Observe.Span x, Observe.Span y ->
        Observe.Span { entries = x.entries + y.entries; seconds = x.seconds +. y.seconds }
    | _, y -> y
  in
  let names = List.sort_uniq compare (List.map fst a.observed @ List.map fst b.observed) in
  {
    st;
    windows = a.windows @ b.windows;
    elapsed = a.elapsed +. b.elapsed;
    cpu = a.cpu +. b.cpu;
    minor = a.minor + b.minor;
    major = a.major + b.major;
    promoted = a.promoted +. b.promoted;
    observed =
      List.map
        (fun k ->
          match (List.assoc_opt k a.observed, List.assoc_opt k b.observed) with
          | Some x, Some y -> (k, add_value x y)
          | Some x, None | None, Some x -> (k, x)
          | None, None -> assert false)
        names;
  }

let obs_count p name =
  match List.assoc_opt name p.observed with
  | Some (Observe.Count n) -> n
  | Some (Observe.Span { entries; _ }) -> entries
  | None -> 0

let obs_seconds p name =
  match List.assoc_opt name p.observed with
  | Some (Observe.Span { seconds; _ }) -> seconds
  | _ -> 0.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per p x = if p.st.attempted = 0 then 0. else x /. float_of_int p.st.attempted

(* Set-up time: [reps] repetitions of [setup], median wall time.  The
   last repetition's result is the one the run uses; [before] runs
   untimed ahead of each repetition.  The previous repetition's result is
   dropped before the next one starts, so that one set-up at a time is
   alive and the peak resident set is the run's, not two set-ups'. *)
let timed_setup ?(before = ignore) ~reps setup =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    before ();
    last := None;
    Gc.compact ();
    let t0 = now () in
    let v = setup () in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  (median !times, Option.get !last)

(* ---- output ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The traced phases' time per layer.  The top-level rows are the timed
   layer calls, which never nest; with [unattributed] they add up to the
   operations' wall time.  The rows below them are time already counted
   above (Observe timers inside the library, summed over every domain
   that recorded them, and the serve queue wait inside the daemon's
   execution time). *)
let layer_table ~workload p =
  let st = p.st in
  let ops = float_of_int (max 1 st.attempted) in
  let wall_ms = st.op_wall *. 1000. in
  let b = Buffer.create 1024 in
  let row name ms =
    Printf.bprintf b "  %-30s %12.4f %8.1f%%\n" name (ms /. ops)
      (if wall_ms > 0. then 100. *. ms /. wall_ms else 0.)
  in
  Printf.bprintf b "per-layer time, %s, traced phases (%d operations)\n" workload st.attempted;
  Printf.bprintf b "  %-30s %12s %9s\n" "layer" "ms per op" "of wall";
  let top = List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r *. 1000.) :: acc) layer_time []) in
  List.iter (fun (k, ms) -> row k ms) top;
  let timed = List.fold_left (fun a (_, ms) -> a +. ms) 0. top in
  row "unattributed" (wall_ms -. timed);
  row "= operation wall time" wall_ms;
  let inner =
    List.filter_map
      (fun name ->
        match List.assoc_opt name p.observed with
        | Some (Observe.Span { seconds; _ }) when seconds > 0. -> Some (name, seconds *. 1000.)
        | _ -> None)
      [ "oracle.search"; "plan.run"; "pb.solve"; "sketch.sketch"; "sketch.refine"; "serve.exec" ]
    @ Hashtbl.fold (fun k r acc -> (k, !r *. 1000.) :: acc) nested_time []
  in
  if inner <> [] then begin
    Printf.bprintf b "  within the rows above:\n";
    List.iter (fun (k, ms) -> row ("  " ^ k) ms) inner
  end;
  Buffer.contents b

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value =
  { name; value = (if Float.is_finite value then value else 0.); unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun { name; value; unit_ } -> Printf.printf "  %-34s %14.6f %s\n" name value unit_)
    metrics;
  Printf.printf "  %-34s %14d\n  %-34s %14d\n" "operations attempted" attempted
    "operations failed" failed;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun { name; value; unit_ } ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
              value unit_)
          metrics))
