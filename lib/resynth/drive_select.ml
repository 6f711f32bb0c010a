module Charac = Iddq_analysis.Charac
module Timing = Iddq_analysis.Timing
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost

type swap = { gate : int; module_id : int; slot : int }

type result = {
  charac : Charac.t;
  partition : Partition.t;
  swaps : swap list;
  priced : int;
  before : Cost.breakdown;
  after : Cost.breakdown;
}

(* The module and slot holding the globally worst transient peak. *)
let worst_peak p =
  List.fold_left
    (fun acc m ->
      let profile = Partition.current_profile p m in
      Array.to_seq profile
      |> Seq.fold_lefti
           (fun acc slot current ->
             match acc with
             | Some (_, _, best) when current <= best -> acc
             | _ when current <= 0.0 -> acc
             | _ -> Some (m, slot, current))
           acc)
    None (Partition.module_ids p)

let optimize ?weights ?(max_swaps = 64) ~metrics start =
  let assignment = Partition.assignment start in
  let priced = ref 0 in
  let rec loop ch p swaps budget best_cost =
    if budget = 0 then (ch, p, swaps)
    else begin
      match worst_peak p with
      | None -> (ch, p, swaps)
      | Some (m, slot, _) ->
        let slacks = Timing.slacks ch ~gate_delay:(Charac.delay ch) in
        (* candidates: peak-slot gates of the worst module, not yet
           low-drive, whose slack absorbs the 1.5x delay increase *)
        let candidates =
          Array.to_list (Partition.members p m)
          |> List.filter (fun g ->
                 Charac.can_switch_at ch g slot
                 && (not (Charac.is_low_power ch g))
                 && Charac.delay ch g *. 0.5 <= slacks.(g))
        in
        (* try the highest-current candidates first; evaluating the
           full cost per candidate is cheap at bench sizes, but cap
           the fan-out of attempts to keep the pass near-linear *)
        let ranked =
          List.sort
            (fun a b ->
              Float.compare (Charac.peak_current ch b) (Charac.peak_current ch a))
            candidates
        in
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: rest -> x :: take (n - 1) rest
        in
        let attempt g =
          let ch' = Charac.with_low_power ch ~gates:[| g |] in
          let p' = Partition.create ch' ~assignment in
          incr priced;
          let cost = (Cost.evaluate ?weights ~metrics p').Cost.penalized in
          (g, ch', p', cost)
        in
        let attempts = List.map attempt (take 6 ranked) in
        let best =
          List.fold_left
            (fun acc ((_, _, _, cost) as cand) ->
              match acc with
              | Some (_, _, _, best) when best <= cost -> acc
              | _ -> Some cand)
            None attempts
        in
        (match best with
        | Some (g, ch', p', cost) when cost < best_cost ->
          loop ch' p'
            ({ gate = g; module_id = m; slot } :: swaps)
            (budget - 1) cost
        | Some _ | None -> (ch, p, swaps))
    end
  in
  let ch0 = Partition.charac start in
  let before = Cost.evaluate ?weights ~metrics start in
  let ch, p, swaps =
    loop ch0 (Partition.copy start) [] max_swaps before.Cost.penalized
  in
  {
    charac = ch;
    partition = p;
    swaps = List.rev swaps;
    priced = !priced;
    before;
    after = Cost.evaluate ?weights ~metrics p;
  }
