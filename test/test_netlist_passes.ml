(* Digests of every pass that walks the netlist gate by gate: timing,
   SCOAP, signal probabilities, characterization, realized activity,
   the stuck-at fault list, bridge re-propagation and the two
   writers.  Floats are recorded through [Int64.bits_of_float],
   so a pass that visits fanins in a different order (and so folds
   floats differently, or breaks a tie on another fanin) changes its
   digest. *)

module Circuit = Iddq_netlist.Circuit
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Bench_io = Iddq_netlist.Bench_io
module Dot = Iddq_netlist.Dot
module Charac = Iddq_analysis.Charac
module Timing = Iddq_analysis.Timing
module Scoap = Iddq_analysis.Scoap
module Probability = Iddq_analysis.Probability
module Activity = Iddq_analysis.Activity
module Stuck_at = Iddq_defects.Stuck_at
module Bridge_logic = Iddq_defects.Bridge_logic
module Library = Iddq_celllib.Library
module Rng = Iddq_util.Rng

let digest_of f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ' '

let add_float b x = Buffer.add_string b (Printf.sprintf "%Lx " (Int64.bits_of_float x))
let add_bool b v = Buffer.add_char b (if v then '1' else '0')
let floats xs = digest_of (fun b -> Array.iter (add_float b) xs)

let pass_digests c =
  let ch = Charac.make ~library:Library.default c in
  let ng = Circuit.num_gates c and n = Circuit.num_nodes c in
  let gate_delay = Charac.delay ch in
  let scoap = Scoap.compute c in
  let rng = Rng.create 1 in
  let vectors =
    Array.init 16 (fun _ -> Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng))
  in
  let activity = Activity.measure ch ~gates:(Array.init ng Fun.id) ~vectors in
  let bridge_pairs =
    [ (n / 3, 2 * n / 3); (Circuit.num_inputs c, n - 1); (0, n / 2); (n - 2, n - 1) ]
  in
  [
    ("longest_path", floats [| Timing.longest_path ch ~gate_delay |]);
    ("slacks", floats (Timing.slacks ch ~gate_delay));
    ( "critical_path",
      digest_of (fun b -> List.iter (add_int b) (Timing.critical_path ch ~gate_delay)) );
    (* unit delays tie everywhere: the walk must keep the first latest fanin *)
    ( "critical_path_unit",
      digest_of (fun b ->
          List.iter (add_int b) (Timing.critical_path ch ~gate_delay:(fun _ -> 1.0))) );
    ( "scoap",
      digest_of (fun b ->
          for id = 0 to n - 1 do
            add_int b (Scoap.cc0 scoap id);
            add_int b (Scoap.cc1 scoap id);
            add_int b (Scoap.co scoap id)
          done) );
    ("probability", floats (Probability.signal_probabilities c));
    ( "charac",
      digest_of (fun b ->
          for g = 0 to ng - 1 do
            add_int b (Charac.gate_depth ch g);
            Charac.iter_switch_slots ch g (add_int b);
            Buffer.add_char b '\n'
          done) );
    ( "activity",
      digest_of (fun b ->
          Array.iter (add_float b) activity.Activity.realized_profile;
          add_float b activity.Activity.realized_max;
          Array.iter (add_int b) activity.Activity.toggles_per_pair) );
    ( "stuck_at",
      digest_of (fun b ->
          List.iter
            (function
              | Stuck_at.Stem (id, v) ->
                Buffer.add_char b 's';
                add_int b id;
                add_bool b v
              | Stuck_at.Pin { gate; pin; value } ->
                Buffer.add_char b 'p';
                add_int b gate;
                add_int b pin;
                add_bool b value)
            (Stuck_at.collapsed_fault_list c)) );
    ( "bridge",
      digest_of (fun b ->
          List.iter
            (fun (a, b') ->
              match Bridge_logic.faulty_eval c ~a ~b:b' vectors.(3) with
              | None -> Buffer.add_string b "feedback;"
              | Some values -> Array.iter (add_bool b) values; Buffer.add_char b ';')
            bridge_pairs) );
    ("bench", Digest.to_hex (Digest.string (Bench_io.to_string c)));
    ("dot", Digest.to_hex (Digest.string (Dot.of_circuit c)));
    ( "dot_modules",
      Digest.to_hex (Digest.string (Dot.of_circuit ~module_of_gate:(fun g -> g mod 5) c)) );
  ]

let test_netlist_passes_pinned () =
  List.iter
    (fun (name, c, expected) ->
      Alcotest.(check (list (pair string string))) (name ^ " pass digests") expected
        (pass_digests c))
    [
      ( "c432_like",
        Iscas.c432_like (),
        [
          ("longest_path", "472b0e6ca5a6b7b8e10459e86c1077b9");
          ("slacks", "19f3eb20e76c1c43795bf86676e75094");
          ("critical_path", "f721d873165d4116e59b120b3f12ee5e");
          ("critical_path_unit", "e755247baceeba8609e1acc7d854f73d");
          ("scoap", "b5fbb290c1cdd45f43abc34f76406e46");
          ("probability", "3d557dd3849821d584690e6a6a9601dd");
          ("charac", "6c441cfd4e4a009d86512738d3efdec0");
          ("activity", "5f0f3da8d60b88202efd8e4b8642df80");
          ("stuck_at", "d284e7b5a7218b6c76dfa2a02031d059");
          ("bridge", "0a2ff91443e8f5e4c3855d5475e6f21e");
          ("bench", "0aa593b59f9978e765072b869fd72d6f");
          ("dot", "083b43842dcf75679d51ce541cfae4d0");
          ("dot_modules", "ad81d202f1aaaa60de2e1ec60093bc43");
        ] );
      ( "c880_like",
        Iscas.c880_like (),
        [
          ("longest_path", "05f03180608ab8957d8ac31e13e05c14");
          ("slacks", "0308f100e49c21bc30d9e1338748593a");
          ("critical_path", "b32781776719a788dd35717d4c0671bc");
          ("critical_path_unit", "0f5598e23c642c7839b79b0f1d4f938f");
          ("scoap", "aae0d3a0a2d8da251d835974b55207bb");
          ("probability", "7a4c867331371e2e49d30bb4224c6d39");
          ("charac", "073c84d0cdfb039536371a3746d97ba2");
          ("activity", "f91991704042114e3d7d00d63b90c365");
          ("stuck_at", "cb9880d4f07cdb2b0d9f5c34868be4c6");
          ("bridge", "56440bea122449fe5438281e7a6a2e5e");
          ("bench", "454b38da4eeb4cf5843386113954a469");
          ("dot", "20e0243420cd710c21b9e824ed12a44a");
          ("dot_modules", "848dad175a7d38ecb81fe49b86edb728");
        ] );
      ( "c1908_like",
        Iscas.c1908_like (),
        [
          ("longest_path", "a2a3a0c6074027fad5be9ecc583012e5");
          ("slacks", "7d5058064c1ef54a5936d6b490d752cd");
          ("critical_path", "52e2b45a3983a2f41046d6ef3e4423da");
          ("critical_path_unit", "07372c987645f56090d8060388f4d560");
          ("scoap", "168f2b2b0ecc68e0afb55f83818a3c0a");
          ("probability", "746277b679053ba30896686b41cded25");
          ("charac", "726c1603768f727727e2b19c1096fe1b");
          ("activity", "b56f49750974da43be76422cd73b397b");
          ("stuck_at", "2056685da7957e03e15a7ca9d74a8f77");
          ("bridge", "c0740db8a9b7c38aede15e298b9ac2ed");
          ("bench", "3e7332c2b86deeb36181ef8585dafe4f");
          ("dot", "ebb0e03b725bec772ca4c61c92db2936");
          ("dot_modules", "acc80e1a6503c69cb1bc5ba04b3f7668");
        ] );
      ( "layered_dag_3000",
        Generator.layered_dag ~rng:(Rng.create 7) ~name:"pinned" ~num_inputs:64
          ~num_outputs:32 ~num_gates:3000 ~depth:40 (),
        [
          ("longest_path", "8ce4a10a622d3a3b082030770ad2ad46");
          ("slacks", "2f8bb4f919c91147c8ed8dd2601f0c4b");
          ("critical_path", "ab2601c4aa6f3f58fabecc3c4576d95c");
          ("critical_path_unit", "c262c392fa5691754375c8dc390e968c");
          ("scoap", "663763911fd7b913b259d808514174a3");
          ("probability", "b1dc055573cd829ac444373dda4cc893");
          ("charac", "fbc4c5786dedefe9b82bded5a4c5915c");
          ("activity", "347a717eb296fb45ef898036fedefddd");
          ("stuck_at", "b720266c41f65bfe704d44a2f49dd65b");
          ("bridge", "4685b439e048bbae54fc30ed2944de77");
          ("bench", "c78bb9f67a2096fa14245e5c7499790c");
          ("dot", "0a80bdaf4eaf3df8e2f8272e9119c73e");
          ("dot_modules", "36644ca61cf20fa324c9af541c913725");
        ] );
    ]

let tests =
  [ Alcotest.test_case "netlist passes pinned" `Quick test_netlist_passes_pinned ]
