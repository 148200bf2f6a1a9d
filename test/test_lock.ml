(* Lock manager: compatibility, upgrades, release, deadlock detection,
   timeouts.  There is one acquisition function: a conflict at timeout 0
   gives up at once, and the holders a request waits for are read from
   the dump while that request is parked on another domain. *)

module L = Imdb_lock.Lock_manager
module M = Imdb_obs.Metrics
module Tid = Imdb_clock.Tid

let t1 = Tid.of_int 1
let t2 = Tid.of_int 2
let t3 = Tid.of_int 3
let t4 = Tid.of_int 4
let rec_a = L.Record (1, "a")
let rec_b = L.Record (1, "b")
let tbl = L.Table 1

let granted what lm tid res mode =
  Alcotest.(check int) what 0 (L.acquire ~timeout_us:0 lm tid res mode)

(* At timeout 0 a conflict raises [Lock_timeout] for the requester. *)
let refused what lm tid res mode =
  match L.acquire ~timeout_us:0 lm tid res mode with
  | exception L.Lock_timeout { tid = victim; res = r } ->
      Alcotest.(check bool) (what ^ ": requester gives up") true (Tid.equal victim tid && r = res)
  | _ -> Alcotest.failf "%s: granted over a conflicting holder" what

let deadlocked what ?(timeout_us = 0) lm tid res mode =
  match L.acquire ~timeout_us lm tid res mode with
  | exception L.Deadlock victim ->
      Alcotest.(check bool) (what ^ ": requester is the victim") true (Tid.equal victim tid)
  | _ -> Alcotest.failf "%s: deadlock undetected" what

(* Park [tid]'s request on another domain, wait until [parked] requests
   are parked, and return the domain and the holders [tid] waits for.
   The domain returns the microseconds it spent parked once granted;
   with [~release:true] it then releases everything it holds. *)
let park ?(parked = 1) ?(release = false) lm tid res mode =
  let d =
    Domain.spawn (fun () ->
        let waited = L.acquire ~timeout_us:5_000_000 lm tid res mode in
        if release then L.release_all lm tid;
        waited)
  in
  let dump = Helpers.await_waiters lm parked in
  match List.find_opt (fun (w, _, _, _) -> Tid.equal w tid) dump.L.d_waiters with
  | Some (_, r, m, blockers) ->
      Alcotest.(check bool) "parked on the requested resource" true (r = res && m = mode);
      (d, blockers)
  | None -> Alcotest.fail "request never parked"

let tids = Alcotest.testable (Fmt.list Tid.pp) (List.equal Tid.equal)

let joined_after_wait d =
  Alcotest.(check bool) "granted after parking" true (Domain.join d > 0)

let test_compatibility () =
  let lm = L.create () in
  (* S + S compatible *)
  granted "S grant" lm t1 rec_a L.S;
  granted "S+S" lm t2 rec_a L.S;
  (* X conflicts with S, and waits for both readers *)
  refused "X over S" lm t3 rec_a L.X;
  let d, blockers = park lm t3 rec_a L.X in
  Alcotest.check tids "two blockers" [ t1; t2 ] blockers;
  L.release_all lm t1;
  L.release_all lm t2;
  joined_after_wait d;
  Alcotest.(check bool) "X after both readers left" true (L.holds lm t3 rec_a = Some L.X);
  (* intention locks *)
  granted "IS" lm t1 tbl L.IS;
  granted "IX+IS" lm t2 tbl L.IX;
  refused "table X over intents" lm t4 tbl L.X

let test_upgrade_and_reentry () =
  let lm = L.create () in
  granted "S" lm t1 rec_a L.S;
  (* self-upgrade S -> X with no other holders *)
  granted "upgrade to X" lm t1 rec_a L.X;
  Alcotest.(check bool) "holds X" true (L.holds lm t1 rec_a = Some L.X);
  (* re-request is idempotent *)
  granted "reentrant" lm t1 rec_a L.X;
  (* but another reader now blocks *)
  refused "S over X" lm t2 rec_a L.S

let test_upgrade_blocked_by_other_reader () =
  let lm = L.create () in
  granted "S" lm t1 rec_a L.S;
  granted "S+S" lm t2 rec_a L.S;
  refused "upgrade over a concurrent reader" lm t1 rec_a L.X;
  let d, blockers = park lm t1 rec_a L.X in
  Alcotest.check tids "blocked by the other reader" [ t2 ] blockers;
  L.release_all lm t2;
  joined_after_wait d;
  Alcotest.(check bool) "upgraded once alone" true (L.holds lm t1 rec_a = Some L.X)

let test_release_all () =
  let lm = L.create () in
  granted "X" lm t1 rec_a L.X;
  granted "IX" lm t1 tbl L.IX;
  Alcotest.(check int) "holds two" 2 (List.length (L.held_by lm t1));
  L.release_all lm t1;
  Alcotest.(check int) "holds none" 0 (List.length (L.held_by lm t1));
  granted "lock free again" lm t2 rec_a L.X

let test_deadlock_cycle () =
  let lm = L.create () in
  granted "a" lm t1 rec_a L.X;
  granted "b" lm t2 rec_b L.X;
  (* t1 waits for b (held by t2) *)
  let d, blockers = park lm t1 rec_b L.X in
  Alcotest.check tids "t1 waits for t2" [ t2 ] blockers;
  (* t2 requesting a completes the cycle: deadlock, even at timeout 0 *)
  deadlocked "t2 closes the cycle" lm t2 rec_a L.X;
  (* the victim aborts: t1 proceeds, and after t1 ends so does t2 *)
  L.release_all lm t2;
  joined_after_wait d;
  L.release_all lm t1;
  granted "t2 proceeds after release" lm t2 rec_a L.X

let test_three_party_cycle () =
  let lm = L.create () in
  let r1 = L.Record (1, "r1") and r2 = L.Record (1, "r2") and r3 = L.Record (1, "r3") in
  granted "r1" lm t1 r1 L.X;
  granted "r2" lm t2 r2 L.X;
  granted "r3" lm t3 r3 L.X;
  let d1, _ = park lm t1 r2 L.X (* t1 -> t2 *) in
  let d2, _ = park ~parked:2 lm t2 r3 L.X (* t2 -> t3 *) in
  deadlocked "three-party" lm t3 r1 L.X;
  L.release_all lm t3;
  joined_after_wait d2;
  L.release_all lm t2;
  joined_after_wait d1

let test_no_false_deadlock () =
  let lm = L.create () in
  granted "a" lm t1 rec_a L.X;
  (* t2 waits on a; t3 waits on a too: a queue, not a cycle *)
  let d2, _ = park ~release:true lm t2 rec_a L.X in
  let d3, blockers = park ~parked:2 ~release:true lm t3 rec_a L.X in
  Alcotest.check tids "t3 waits for the holder only" [ t1 ] blockers;
  (* a third contender on the queue times out; it is not a victim *)
  refused "no cycle through the queue" lm t4 rec_a L.X;
  (* an unrelated grant must not be declared a deadlock *)
  granted "independent resource fine" lm t1 rec_b L.X;
  L.release_all lm t1;
  joined_after_wait d2;
  joined_after_wait d3

(* --- multigranularity upgrade edges ------------------------------------ *)

let test_lub_collapse () =
  (* the merge table, including the S+IX -> X collapse (no SIX mode) *)
  Alcotest.(check bool) "S lub IX = X" true (L.lub L.S L.IX = L.X);
  Alcotest.(check bool) "IX lub S = X" true (L.lub L.IX L.S = L.X);
  Alcotest.(check bool) "IS lub IX = IX" true (L.lub L.IS L.IX = L.IX);
  Alcotest.(check bool) "IS lub S = S" true (L.lub L.IS L.S = L.S);
  Alcotest.(check bool) "X absorbs" true (L.lub L.X L.IS = L.X && L.lub L.S L.X = L.X);
  (* behaviorally: a table-scanning writer (S then IX) ends up exclusive *)
  let lm = L.create () in
  granted "S" lm t1 tbl L.S;
  granted "then IX" lm t1 tbl L.IX;
  Alcotest.(check bool) "collapsed to X" true (L.holds lm t1 tbl = Some L.X);
  refused "IS over collapsed X" lm t2 tbl L.IS;
  let d, blockers = park lm t2 tbl L.IS in
  Alcotest.check tids "even IS blocks now" [ t1 ] blockers;
  L.release_all lm t1;
  joined_after_wait d

let test_is_ix_interleavings () =
  let lm = L.create () in
  (* intents stack freely in either order *)
  granted "IX" lm t1 tbl L.IX;
  granted "IS over IX" lm t2 tbl L.IS;
  (* a whole-table reader conflicts with the writer's intent only *)
  let d, blockers = park lm t3 tbl L.S in
  Alcotest.check tids "IX blocks S, IS does not" [ t1 ] blockers;
  (* writer commits: S is now compatible with the remaining IS *)
  L.release_all lm t1;
  joined_after_wait d;
  Alcotest.(check bool) "S over IS after release" true (L.holds lm t3 tbl = Some L.S);
  (* and a late IX now blocks on the granted S *)
  let d, blockers = park lm t1 tbl L.IX in
  Alcotest.check tids "S blocks IX" [ t3 ] blockers;
  L.release_all lm t3;
  joined_after_wait d

let test_deadlock_victim_determinism () =
  (* the victim is always the transaction whose wait edge closes the
     cycle — whichever side that is, on every run *)
  let round closer =
    let lm = L.create () in
    granted "a" lm t1 rec_a L.X;
    granted "b" lm t2 rec_b L.X;
    let waiter, victim, wants, d =
      if closer = 2 then
        let d, _ = park lm t1 rec_b L.X in
        (t1, t2, rec_a, d)
      else
        let d, _ = park lm t2 rec_a L.X in
        (t2, t1, rec_b, d)
    in
    let died =
      match L.acquire ~timeout_us:0 lm victim wants L.X with
      | exception L.Deadlock v -> v
      | _ -> Alcotest.fail "deadlock undetected"
    in
    L.release_all lm died;
    joined_after_wait d;
    L.release_all lm waiter;
    died
  in
  for _ = 1 to 5 do
    Alcotest.(check bool) "t2 closes, t2 dies" true (Tid.equal (round 2) t2);
    Alcotest.(check bool) "t1 closes, t1 dies" true (Tid.equal (round 1) t1)
  done

(* --- parked waits ------------------------------------------------------- *)

let test_wait_granted_on_release () =
  let lm = L.create () in
  granted "X" lm t1 rec_a L.X;
  let d, _ = park lm t2 rec_a L.X in
  (* parked, then released: the wait must resolve to a grant *)
  Alcotest.(check bool) "still waiting" true (L.holds lm t2 rec_a = None);
  L.release_all lm t1;
  joined_after_wait d;
  Alcotest.(check bool) "holds X" true (L.holds lm t2 rec_a = Some L.X)

let test_wait_timeout () =
  let lm = L.create () in
  let m = M.create () in
  L.set_metrics lm m;
  granted "X" lm t1 rec_a L.X;
  (* timeout 0 gives up at once: a conflict, but no park and no wait *)
  refused "timeout 0" lm t2 rec_a L.X;
  Alcotest.(check int) "conflict counted" 1 (M.get m M.lock_conflicts);
  Alcotest.(check int) "not a parked timeout" 0 (M.get m M.lock_timeouts);
  Alcotest.(check bool) "no wait observed" true (M.histogram m M.h_lock_wait_us = None);
  (* a positive timeout parks until the deadline *)
  (match L.acquire ~timeout_us:30_000 lm t2 rec_a L.X with
  | exception L.Lock_timeout { tid; res } ->
      Alcotest.(check bool) "victim is the waiter" true (Tid.equal tid t2);
      Alcotest.(check bool) "on the contested resource" true (res = rec_a)
  | _ -> Alcotest.fail "wait succeeded against a held X lock");
  Alcotest.(check int) "parked timeout counted" 1 (M.get m M.lock_timeouts);
  Alcotest.(check bool) "the park was observed" true
    (match M.histogram m M.h_lock_wait_us with
    | Some s -> s.M.h_count = 1 && s.M.h_max >= 30_000
    | None -> false);
  (* the timed-out waiter left no residue: after release, t2 gets through *)
  Alcotest.(check int) "no edge left" 0 (List.length (L.dump lm).L.d_waiters);
  L.release_all lm t1;
  granted "clean retry" lm t2 rec_a L.X

let test_wait_deadlock_at_edge_insert () =
  let lm = L.create () in
  granted "a" lm t1 rec_a L.X;
  granted "b" lm t2 rec_b L.X;
  let d, _ = park lm t1 rec_b L.X in
  (* a parking request detects the cycle before parking — no timeout burn *)
  let started = Unix.gettimeofday () in
  deadlocked "on the wait path" ~timeout_us:5_000_000 lm t2 rec_a L.X;
  Alcotest.(check bool) "refused before the deadline" true
    (Unix.gettimeofday () -. started < 2.5);
  L.release_all lm t2;
  joined_after_wait d

let suite =
  [
    Alcotest.test_case "compatibility" `Quick test_compatibility;
    Alcotest.test_case "upgrade & reentry" `Quick test_upgrade_and_reentry;
    Alcotest.test_case "upgrade blocked" `Quick test_upgrade_blocked_by_other_reader;
    Alcotest.test_case "release all" `Quick test_release_all;
    Alcotest.test_case "deadlock cycle" `Quick test_deadlock_cycle;
    Alcotest.test_case "three-party cycle" `Quick test_three_party_cycle;
    Alcotest.test_case "no false deadlock" `Quick test_no_false_deadlock;
    Alcotest.test_case "lub collapse S+IX" `Quick test_lub_collapse;
    Alcotest.test_case "IS/IX interleavings" `Quick test_is_ix_interleavings;
    Alcotest.test_case "deadlock victim determinism" `Quick test_deadlock_victim_determinism;
    Alcotest.test_case "wait granted on release" `Quick test_wait_granted_on_release;
    Alcotest.test_case "wait timeout" `Quick test_wait_timeout;
    Alcotest.test_case "wait deadlock at edge insert" `Quick test_wait_deadlock_at_edge_insert;
  ]
