(* Domain_pool, the one chunk scheduler every parallel pass runs on
   (the striped simulator's stripes among them). *)

module Domain_pool = Iddq_util.Domain_pool

let test_pool_covers_all_chunks () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "size" 3 (Domain_pool.size pool);
      for trial = 1 to 3 do
        let n = 1 + (trial * 17) in
        let hits = Array.make n (Atomic.make 0) in
        Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
        let steals =
          Domain_pool.run pool ~chunks:n (fun c ->
              ignore (Atomic.fetch_and_add hits.(c) 1))
        in
        Array.iteri
          (fun i h ->
            Alcotest.(check int)
              (Printf.sprintf "trial %d chunk %d ran once" trial i)
              1 (Atomic.get h))
          hits;
        if steals < 0 then Alcotest.fail "negative steals"
      done)

let test_pool_serial_inline () =
  let pool = Domain_pool.create ~domains:1 in
  let sum = ref 0 in
  let steals = Domain_pool.run pool ~chunks:10 (fun c -> sum := !sum + c) in
  Alcotest.(check int) "all chunks on the caller" 45 !sum;
  Alcotest.(check int) "no steals serially" 0 steals;
  Domain_pool.shutdown pool;
  (* run after shutdown still executes, inline *)
  let again = Domain_pool.run pool ~chunks:3 (fun _ -> incr sum) in
  Alcotest.(check int) "inline after shutdown" 48 !sum;
  Alcotest.(check int) "no steals after shutdown" 0 again;
  Domain_pool.shutdown pool

exception Boom

let test_pool_reraises () =
  Domain_pool.with_pool ~domains:2 (fun pool ->
      (match
         Domain_pool.run pool ~chunks:8 (fun c -> if c = 5 then raise Boom)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom -> ());
      (* the pool survives a failed job *)
      let ran = Atomic.make 0 in
      ignore
        (Domain_pool.run pool ~chunks:4 (fun _ ->
             ignore (Atomic.fetch_and_add ran 1)));
      Alcotest.(check int) "pool reusable after exception" 4 (Atomic.get ran))

(* Past the runtime's domain limit [create] fails; the workers it had
   spawned are joined, so they do not use up the limit for later
   pools. *)
let test_pool_spawn_failure_joins () =
  (match Domain_pool.create ~domains:10_000 with
  | pool ->
    Domain_pool.shutdown pool;
    Alcotest.fail "10000 domains spawned"
  | exception Failure _ -> ());
  Domain_pool.with_pool ~domains:2 (fun pool ->
      let ran = Atomic.make 0 in
      ignore
        (Domain_pool.run pool ~chunks:4 (fun _ ->
             ignore (Atomic.fetch_and_add ran 1)));
      Alcotest.(check int) "a 2-domain pool runs after the failure" 4
        (Atomic.get ran))

let tests =
  [
    Alcotest.test_case "pool runs every chunk exactly once" `Quick
      test_pool_covers_all_chunks;
    Alcotest.test_case "pool serial and post-shutdown inline" `Quick
      test_pool_serial_inline;
    Alcotest.test_case "pool re-raises and survives" `Quick test_pool_reraises;
    Alcotest.test_case "pool spawn failure joins its workers" `Quick
      test_pool_spawn_failure_joins;
  ]
