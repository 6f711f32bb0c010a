(* The benchmark's clock and span recorder.

   Every timing in the benchmark reads [now_ns], a monotonic clock
   (bechamel's [clock_gettime (CLOCK_MONOTONIC)] stub), never the wall
   clock.  Spans are recorded from the benchmark's own code around its
   calls into the library, so the library itself carries no tracing.
   Spans are kept in memory and written out once, when the run ends. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  pass : int;
  start : int64;
  stop : int64;
}

let enabled = ref false
let pass = ref 0
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

(* [span name f] runs [f] and, while tracing is enabled, records its
   interval as a child of the innermost open span. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let start = now_ns () in
    let close () =
      recorded :=
        { id; name; parent; pass = !pass; start; stop = now_ns () } :: !recorded;
      current := parent
    in
    Fun.protect ~finally:close f
  end

let spans () = List.rev !recorded
let duration s = Int64.to_float (Int64.sub s.stop s.start) *. 1e-9

(* Self time: a span's duration minus the part its children cover
   (children never overlap: they run sequentially on one domain). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Chrome trace-event format ("X" complete events, microseconds), one
   event per span with its parent, pass and self time as arguments. *)
let to_chrome spans =
  let module Json = Iddq_util.Json in
  let t0 = List.fold_left (fun acc s -> Int64.min acc s.start) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun (s, self) ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("ph", Json.String "X");
                   ("ts", Json.Float (us s.start));
                   ("dur", Json.Float (us s.stop -. us s.start));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("pass", Json.Int s.pass);
                         ("self_us", Json.Float (self *. 1e6));
                       ] );
                 ])
             (self_times spans)) );
      ("displayTimeUnit", Json.String "ms");
    ]
