(* The timed loop shared by the batch workloads, and the statistics the
   records are built from.

   A batch workload is a list of items (circuits, ladder steps); one
   pass runs every item once.  Passes repeat until the run's time is
   up, so the last pass may stop part-way: a pass time is therefore
   estimated as the sum over items of each item's median time, which
   uses every sample and needs at least one per item.  Each pass draws
   fresh inputs from the workload seed and the pass number, so one run
   already averages over several inputs.

   With tracing on, odd passes are traced and even passes are not: the
   untraced passes give the reference for the tracing overhead, the
   traced ones the per-layer numbers. *)

type item = {
  name : string;
  prepare : pass:int -> unit -> (string * float) list;
      (** Untimed: draws the pass's inputs and returns the timed
          operation, which answers with named counts and quality
          values for this item and pass. *)
}

type sample = {
  item : int;
  pass : int;
  traced : bool;
  seconds : float;
  values : (string * float) list;
      (** The operation's own values, plus, on traced passes, the
          self time of each stage span as ["<stage>_s"]. *)
}

type outcome = { samples : sample list; attempted : int; failed : int }

(* What a workload reports. *)
type result = {
  setup_s : float;
  e2e : (string * float) list;  (** Every end-to-end metric but [peak_rss_mb]. *)
  layer : (string * float) list;
  attempted : int;
  failed : int;
}

(* Failed checks are counted and reported on stderr, never raised: a
   run always ends with a record, and [failed] says how trustworthy it
   is. *)
let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "check failed: %s\n%!" what
  end

let median xs = Iddq_util.Stats.median (Array.of_list xs)

(* Set-up is timed on its own so that work moved into it shows.  The
   shared host the bounds were set on switches between a fast and a
   slow state, up to 1.5x apart, that last from a second to minutes; a
   set-up of milliseconds falls wholly inside one, so repetitions made
   back to back read all fast or all slow, and their median flips
   between the two with the share of slow time.  So the set-up is
   repeated in series spread over the run: a round before it (at least
   3 times, and until a quarter second is spent, at most 25 times), then
   either, for a set-up under 20 ms, 20 ms of repetitions after every
   item ([run ~setup]), or another round after the run
   ([repeat_setup]).  [setup_seconds] is the mean over the series of
   each series' median: the median drops a slow repetition within a
   series, the mean follows the share of slow time smoothly, as a pass
   time does.

   A full collection starts each series, so that a set-up does not pay
   for collecting the garbage of the item before it.  A collection
   before every repetition instead made the peak resident set of
   atpg_testset grow with the length of the run, from 20 to 86 MiB in
   25 s.  The last result of the first round is kept; every other one
   is [release]d. *)
type setup = {
  series : float list list ref;  (** Repetition seconds, one list per series. *)
  repeat : unit -> float;  (** One more repetition, released; its seconds. *)
}

let round_done n total = n >= 3 && (total >= 0.25 || n >= 25)

(* One more series, repeated until [enough count seconds]. *)
let add_series s ~enough =
  Gc.full_major ();
  let rec go n total acc =
    if enough n total then s.series := acc :: !(s.series)
    else
      let dt = s.repeat () in
      go (n + 1) (total +. dt) (dt :: acc)
  in
  go 0 0.0 []

let setup ?(release = ignore) f =
  let once () =
    let t0 = Trace.now_ns () in
    let r = f () in
    (Trace.seconds_since t0, r)
  in
  let rec first n total acc last =
    Option.iter release last;
    let dt, r = once () in
    let n = n + 1 and total = total +. dt and acc = dt :: acc in
    if round_done n total then (acc, r) else first n total acc (Some r)
  in
  Gc.full_major ();
  let times, kept = first 0 0.0 [] None in
  let repeat () =
    let dt, r = once () in
    release r;
    dt
  in
  ({ series = ref [ times ]; repeat }, kept)

let repeat_setup s = add_series s ~enough:round_done

let setup_seconds s = Iddq_util.Stats.mean (Array.of_list (List.map median !(s.series)))

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.0

(* Highest percentile with at least ten samples beyond it (the largest
   [p] with [n * (1 - p/100) >= 10]), or the median below 20 samples. *)
let tail_percentile n =
  if n < 20 then 50.0 else Float.floor (100.0 *. (1.0 -. (10.0 /. float_of_int n)))

let run ?setup ~seconds ~trace items =
  let items = Array.of_list items in
  let n = Array.length items in
  let untraced = Array.make n 0 and traced = Array.make n 0 in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let t0 = Trace.now_ns () in
  let done_ () =
    Trace.seconds_since t0 >= seconds
    && Array.for_all (fun c -> c > 0) untraced
    && ((not trace) || Array.for_all (fun c -> c > 0) traced)
  in
  let pass = ref 0 in
  while not (done_ ()) do
    let tracing = trace && !pass mod 2 = 1 in
    Trace.enabled := tracing;
    Trace.pass := !pass;
    let i = ref 0 in
    while !i < n && not (done_ ()) do
      let it = items.(!i) in
      incr attempted;
      let failures_before = !failures in
      (match it.prepare ~pass:!pass with
      | op ->
        let minor0 = Gc.minor_words ()
        and major0 = (Gc.quick_stat ()).Gc.major_collections in
        let start = Trace.now_ns () in
        (match Trace.span it.name op with
        | values ->
          let seconds = Trace.seconds_since start in
          let gc =
            [
              ("gc.minor_mwords", (Gc.minor_words () -. minor0) /. 1e6);
              ( "gc.major_collections",
                float_of_int ((Gc.quick_stat ()).Gc.major_collections - major0) );
            ]
          in
          samples :=
            { item = !i; pass = !pass; traced = tracing; seconds; values = values @ gc }
            :: !samples
        | exception e -> check (it.name ^ ": " ^ Printexc.to_string e) false)
      | exception e -> check (it.name ^ " inputs: " ^ Printexc.to_string e) false);
      if tracing then traced.(!i) <- traced.(!i) + 1
      else untraced.(!i) <- untraced.(!i) + 1;
      if !failures > failures_before then incr failed;
      (* after every item, a set-up under 20 ms is repeated for 20 ms *)
      Option.iter
        (fun s ->
          if setup_seconds s < 0.02 then add_series s ~enough:(fun _ spent -> spent >= 0.02))
        setup;
      incr i
    done;
    incr pass
  done;
  Trace.enabled := false;
  (* attach each traced operation's stage self times to its sample *)
  let stage = Hashtbl.create 256 and roots = Hashtbl.create 64 in
  let with_self = Trace.self_times (Trace.spans ()) in
  List.iter
    (fun ((s : Trace.span), _) -> if s.parent < 0 then Hashtbl.replace roots s.id s)
    with_self;
  let add key kv =
    Hashtbl.replace stage key (kv :: Option.value ~default:[] (Hashtbl.find_opt stage key))
  in
  List.iter
    (fun ((s : Trace.span), self) ->
      if s.parent < 0 then add (s.name, s.pass) ("trace.unattributed_s", self)
      else
        match Hashtbl.find_opt roots s.parent with
        | Some root -> add (root.Trace.name, root.Trace.pass) (s.name ^ "_s", self)
        | None -> ())
    with_self;
  let samples =
    List.rev_map
      (fun s ->
        if not s.traced then s
        else
          let key = (items.(s.item).name, s.pass) in
          { s with values = s.values @ Option.value ~default:[] (Hashtbl.find_opt stage key) })
      !samples
  in
  { samples; attempted = !attempted; failed = !failed }

(* Sum over items of the median over the matching samples of [f]
   (samples where [f] is [None] are skipped). *)
let sum_of_medians ?(traced = false) samples f =
  let per_item = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.traced = traced then
        match f s with
        | Some v ->
          Hashtbl.replace per_item s.item
            (v :: Option.value ~default:[] (Hashtbl.find_opt per_item s.item))
        | None -> ())
    samples;
  Hashtbl.fold (fun _ vs acc -> acc +. median vs) per_item 0.0

let value key s = List.assoc_opt key s.values

(* The pass time: the e2e latency of a batch workload, in seconds. *)
let pass_seconds ?traced samples = sum_of_medians ?traced samples (fun s -> Some s.seconds)

(* Mean over the items of the per-item mean of [f] over all samples,
   traced or not: for quality values, which do not depend on timing. *)
let mean_over_items samples f =
  let per_item = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match f s with
      | Some v ->
        Hashtbl.replace per_item s.item
          (v :: Option.value ~default:[] (Hashtbl.find_opt per_item s.item))
      | None -> ())
    samples;
  let means =
    Hashtbl.fold (fun _ vs acc -> Iddq_util.Stats.mean (Array.of_list vs) :: acc) per_item []
  in
  Iddq_util.Stats.mean (Array.of_list means)

(* Every named value of the traced samples: per pass like the pass time
   (absent in a sample = 0 for that item), except the [intensive] ones
   (coverages, ratios), which average over the items. *)
let layer_values ~intensive samples =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.traced then List.iter (fun (k, _) -> Hashtbl.replace keys k ()) s.values)
    samples;
  Hashtbl.fold
    (fun k () acc ->
      let v =
        if List.mem k intensive then mean_over_items samples (value k)
        else sum_of_medians ~traced:true samples (fun s -> Some (Option.value ~default:0.0 (value k s)))
      in
      (k, v) :: acc)
    keys []
