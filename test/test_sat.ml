(* SAT solver tests: hand-written cases plus random-CNF cross-validation
   against a brute-force enumerator. *)

module Lit = Sat.Lit
module Solver = Sat.Solver
module Dimacs = Sat.Dimacs

let fresh_vars solver n = List.init n (fun _ -> Solver.new_var solver)

(* Brute-force satisfiability of a clause list over [n] variables. *)
let brute_force n clauses =
  let lit_true assignment l =
    let v = assignment land (1 lsl Lit.var l) <> 0 in
    if Lit.is_neg l then not v else v
  in
  let rec try_assignment a =
    if a >= 1 lsl n then false
    else if List.for_all (List.exists (lit_true a)) clauses then true
    else try_assignment (a + 1)
  in
  try_assignment 0

let check_model solver clauses =
  List.for_all (List.exists (Solver.value solver)) clauses

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "v true" true (Solver.value s (Lit.pos v))

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Solver.add_clause s [ Lit.neg v ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "not ok" false (Solver.ok s)

let test_empty_clause () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_no_clauses () =
  let s = Solver.create () in
  ignore (fresh_vars s 3);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_unit_propagation_chain () =
  (* x1 and (x_i -> x_{i+1}) forces all true. *)
  let s = Solver.create () in
  let n = 50 in
  let vs = Array.of_list (fresh_vars s n) in
  Solver.add_clause s [ Lit.pos vs.(0) ];
  for i = 0 to n - 2 do
    Solver.add_clause s [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ]
  done;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Array.iter (fun v -> Alcotest.(check bool) "true" true (Solver.value s (Lit.pos v))) vs

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT with real conflict analysis. *)
  let s = Solver.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Solver.new_var s)) in
  for i = 0 to 2 do
    Solver.add_clause s [ Lit.pos p.(i).(0); Lit.pos p.(i).(1) ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Solver.add_clause s [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_pigeonhole_5_4 () =
  let s = Solver.create () in
  let np = 5 and nh = 4 in
  let p = Array.init np (fun _ -> Array.init nh (fun _ -> Solver.new_var s)) in
  for i = 0 to np - 1 do
    Solver.add_clause s (List.init nh (fun h -> Lit.pos p.(i).(h)))
  done;
  for h = 0 to nh - 1 do
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        Solver.add_clause s [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_assumptions_flip () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.(check bool) "sat under a=false" true
    (Solver.solve ~assumptions:[ Lit.neg a ] s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.value s (Lit.pos b));
  Alcotest.(check bool) "sat under b=false" true
    (Solver.solve ~assumptions:[ Lit.neg b ] s = Solver.Sat);
  Alcotest.(check bool) "a forced" true (Solver.value s (Lit.pos a));
  Alcotest.(check bool) "unsat under both false" true
    (Solver.solve ~assumptions:[ Lit.neg a; Lit.neg b ] s = Solver.Unsat);
  (* Solver must remain usable and satisfiable afterwards. *)
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat)

let test_unsat_core () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ Lit.neg a; Lit.neg b ];
  (* c is irrelevant. *)
  let r = Solver.solve ~assumptions:[ Lit.pos a; Lit.pos b; Lit.pos c ] s in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  let core = Solver.unsat_assumptions s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool) "core subset of assumptions" true
    (List.for_all (fun l -> List.mem l [ Lit.pos a; Lit.pos b; Lit.pos c ]) core);
  Alcotest.(check bool) "c not needed" true (not (List.mem (Lit.pos c) core));
  (* The core itself must be unsatisfiable. *)
  Alcotest.(check bool) "core unsat" true (Solver.solve ~assumptions:core s = Solver.Unsat)

let test_incremental_strengthening () =
  let s = Solver.create () in
  let vs = Array.of_list (fresh_vars s 4) in
  Solver.add_clause s (Array.to_list vs |> List.map Lit.pos);
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  (* Force variables one at a time to false; stays SAT until all are. *)
  for i = 0 to 2 do
    Solver.add_clause s [ Lit.neg vs.(i) ];
    Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat)
  done;
  Solver.add_clause s [ Lit.neg vs.(3) ];
  Alcotest.(check bool) "finally unsat" true (Solver.solve s = Solver.Unsat)

let test_tautology_dropped () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.neg a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let st = Solver.stats s in
  Alcotest.(check int) "no clause stored" 0 st.Solver.clauses

let test_duplicate_literals () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos a; Lit.pos b; Lit.pos b ];
  Solver.add_clause s [ Lit.neg a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b true" true (Solver.value s (Lit.pos b))

(* Random CNF cross-validation. *)
let random_cnf_gen =
  let open QCheck.Gen in
  int_range 1 10 >>= fun n ->
  int_range 0 45 >>= fun m ->
  let clause =
    int_range 1 3 >>= fun len ->
    list_size (return len)
      (int_range 0 (n - 1) >>= fun v ->
       bool >>= fun neg -> return (Lit.make v ~neg))
  in
  list_size (return m) clause >>= fun clauses -> return (n, clauses)

let print_cnf (n, clauses) =
  Printf.sprintf "vars=%d clauses=[%s]" n
    (String.concat "; "
       (List.map
          (fun c -> String.concat "," (List.map (fun l -> string_of_int (Lit.to_dimacs l)) c))
          clauses))

let prop_matches_brute_force =
  QCheck.Test.make ~count:500 ~name:"solver agrees with brute force"
    (QCheck.make ~print:print_cnf random_cnf_gen)
    (fun (n, clauses) ->
      let s = Solver.create () in
      ignore (fresh_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_force n clauses in
      match Solver.solve s with
      | Solver.Sat -> expected && check_model s clauses
      | Solver.Unsat -> not expected
      | Solver.Unknown _ -> false)

let prop_assumptions_match_brute_force =
  QCheck.Test.make ~count:300 ~name:"solve-under-assumptions agrees with brute force"
    (QCheck.make
       ~print:(fun (c, asms) -> print_cnf c ^ " asms=" ^ print_cnf (0, [ asms ]))
       QCheck.Gen.(
         random_cnf_gen >>= fun (n, clauses) ->
         let lit = int_range 0 (n - 1) >>= fun v -> bool >>= fun neg -> return (Lit.make v ~neg) in
         list_size (int_range 0 3) lit >>= fun asms -> return ((n, clauses), asms)))
    (fun ((n, clauses), assumptions) ->
      let s = Solver.create () in
      ignore (fresh_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_force n (clauses @ List.map (fun l -> [ l ]) assumptions) in
      match Solver.solve ~assumptions s with
      | Solver.Sat ->
          expected && check_model s clauses
          && List.for_all (Solver.value s) assumptions
      | Solver.Unsat -> not expected
      | Solver.Unknown _ -> false)

let prop_incremental_consistency =
  (* Solving twice in a row gives the same answer; adding a model-blocking
     clause to a SAT instance keeps the solver usable. *)
  QCheck.Test.make ~count:200 ~name:"repeat solve is stable"
    (QCheck.make ~print:print_cnf random_cnf_gen)
    (fun (n, clauses) ->
      let s = Solver.create () in
      ignore (fresh_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let r1 = Solver.solve s in
      let r2 = Solver.solve s in
      r1 = r2)

(* DIMACS *)
let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  match Dimacs.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok cnf ->
      Alcotest.(check int) "vars" 3 cnf.Dimacs.num_vars;
      Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses);
      let text' = Dimacs.to_string cnf in
      (match Dimacs.parse_string text' with
      | Error e -> Alcotest.fail e
      | Ok cnf' -> Alcotest.(check bool) "roundtrip" true (cnf = cnf'))

let test_dimacs_errors () =
  let is_error t = match Dimacs.parse_string t with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "no header" true (is_error "1 2 0\n");
  Alcotest.(check bool) "unterminated" true (is_error "p cnf 2 1\n1 2\n");
  Alcotest.(check bool) "out of range" true (is_error "p cnf 1 1\n2 0\n");
  Alcotest.(check bool) "wrong count" true (is_error "p cnf 2 2\n1 0\n")

let test_dimacs_solve () =
  match Dimacs.solve_string "p cnf 2 2\n1 0\n-1 2 0\n" with
  | Error e -> Alcotest.fail e
  | Ok (result, model) ->
      Alcotest.(check bool) "sat" true (result = Solver.Sat);
      (match model with
      | None -> Alcotest.fail "expected model"
      | Some m ->
          Alcotest.(check bool) "x1" true m.(0);
          Alcotest.(check bool) "x2" true m.(1))

let test_dimacs_multiline_clause () =
  match Dimacs.parse_string "p cnf 3 1\n1\n2\n3 0\n" with
  | Error e -> Alcotest.fail e
  | Ok cnf -> Alcotest.(check int) "one clause" 1 (List.length cnf.Dimacs.clauses)

(* Seeded DIMACS fuzz, now shared with the `gqed fuzz` harness: ≥500 random
   instances with up to 20 variables, fed through the DIMACS text pipeline,
   cross-checked against an exhaustive enumerator — and with a DRAT
   certificate demanded (and independently checked) for every UNSAT verdict.
   The clause-length distribution is biased toward binary clauses so the
   specialised binary implication lists, watcher blockers and LBD-based
   learnt reduction all see real traffic. *)

let test_dimacs_fuzz_20vars () =
  Alcotest.(check (list (pair int string)))
    "all instances agree and certify" []
    (Fuzz.dimacs ~max_vars:20 ~seed:0xD1CA5 ~count:500 ~cert:true ())

let prop_exhaustive_matches_brute_force =
  (* Keep the fuzz harness's reference enumerator honest: the pruned
     backtracking search must agree with naive full enumeration. *)
  QCheck.Test.make ~count:300 ~name:"fuzz enumerator agrees with brute force"
    (QCheck.make ~print:print_cnf random_cnf_gen)
    (fun (n, clauses) -> Fuzz.exhaustive_sat n clauses = brute_force n clauses)

let test_contradictory_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  (* No clauses at all: the contradiction lives in the assumptions. *)
  let r = Solver.solve ~assumptions:[ Lit.pos a; Lit.neg a ] s in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "still ok" true (Solver.ok s);
  Alcotest.(check bool) "sat afterwards" true (Solver.solve s = Solver.Sat)

let test_duplicate_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  let r = Solver.solve ~assumptions:[ Lit.pos a; Lit.pos a; Lit.pos a ] s in
  Alcotest.(check bool) "sat" true (r = Solver.Sat);
  Alcotest.(check bool) "b implied" true (Solver.value s (Lit.pos b))

let test_many_vars_no_clauses () =
  let s = Solver.create () in
  ignore (fresh_vars s 2000);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check int) "model covers all" 2000 (Array.length (Solver.model s))

let test_value_before_solve_raises () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Alcotest.(check bool) "raises" true
    (match Solver.value s (Lit.pos a) with exception Failure _ -> true | _ -> false)

let test_stats_monotone () =
  let s = Solver.create () in
  let vs = Array.of_list (fresh_vars s 6) in
  (* A small unsatisfiable XOR-ish cluster to force real conflicts. *)
  for i = 0 to 4 do
    Solver.add_clause s [ Lit.pos vs.(i); Lit.pos vs.(i + 1) ];
    Solver.add_clause s [ Lit.neg vs.(i); Lit.neg vs.(i + 1) ]
  done;
  ignore (Solver.solve s);
  let st1 = Solver.stats s in
  ignore (Solver.solve s);
  let st2 = Solver.stats s in
  Alcotest.(check bool) "propagations monotone" true
    (st2.Solver.propagations >= st1.Solver.propagations);
  Alcotest.(check int) "vars stable" st1.Solver.vars st2.Solver.vars

let test_lit_encoding () =
  Alcotest.(check int) "pos var" 3 (Lit.var (Lit.pos 3));
  Alcotest.(check bool) "pos sign" false (Lit.is_neg (Lit.pos 3));
  Alcotest.(check bool) "neg sign" true (Lit.is_neg (Lit.neg 3));
  Alcotest.(check int) "negate involutive" (Lit.pos 7) (Lit.negate (Lit.negate (Lit.pos 7)));
  Alcotest.(check int) "dimacs pos" 4 (Lit.to_dimacs (Lit.pos 3));
  Alcotest.(check int) "dimacs neg" (-4) (Lit.to_dimacs (Lit.neg 3));
  Alcotest.(check int) "dimacs roundtrip" (Lit.neg 9) (Lit.of_dimacs (Lit.to_dimacs (Lit.neg 9)))

(* ---- CNF preprocessing (Simplify + Solver.preprocess) ---- *)

module Simplify = Sat.Simplify

let no_flags n = Array.make n false

let test_simplify_subsumption () =
  let x = Lit.pos 0 and y = Lit.pos 1 and z = Lit.pos 2 in
  let clauses = [| [| x; y |]; [| x; y; z |] |] in
  let actions, stats =
    Simplify.run ~nvars:3 ~frozen:(no_flags 3) ~protected:(no_flags 2) clauses
  in
  Alcotest.(check int) "one clause subsumed" 1 stats.Simplify.s_subsumed;
  Alcotest.(check bool) "the superset clause was removed" true
    (List.exists (function Simplify.Remove 1 -> true | _ -> false) actions)

let test_simplify_self_subsume () =
  let a = Lit.pos 0 and b = Lit.pos 1 and c = Lit.pos 2 in
  (* Resolving on c: (a|b|c) x (a|b|~c) -> (a|b), which strengthens both. *)
  let clauses = [| [| a; b; c |]; [| a; b; Lit.negate c |] |] in
  let _, stats =
    Simplify.run ~nvars:3 ~frozen:(no_flags 3) ~protected:(no_flags 2) clauses
  in
  Alcotest.(check bool) "strengthening happened" true (stats.Simplify.s_strengthened >= 1)

let test_simplify_bve_extend_model () =
  (* x <-> y & z, Tseitin-style. All three variables are eliminable (in
     some order); whatever the eliminator picked, model extension must
     repair an arbitrary assignment into one satisfying the original
     clauses. *)
  let x = Lit.pos 0 and y = Lit.pos 1 and z = Lit.pos 2 in
  let clauses =
    [|
      [| Lit.negate x; y |];
      [| Lit.negate x; z |];
      [| x; Lit.negate y; Lit.negate z |];
    |]
  in
  let config = { Simplify.default_config with Simplify.bve = true } in
  let actions, stats =
    Simplify.run ~config ~nvars:3 ~frozen:(no_flags 3) ~protected:(no_flags 3) clauses
  in
  Alcotest.(check bool) "something eliminated" true (stats.Simplify.s_eliminated >= 1);
  (* Reverse elimination order, as the solver's elim stack accumulates. *)
  let stack =
    List.fold_left
      (fun acc -> function Simplify.Eliminate (v, cls) -> (v, cls) :: acc | _ -> acc)
      [] actions
  in
  let lit_true model l =
    let v = model.(Lit.var l) in
    if Lit.is_neg l then not v else v
  in
  for init = 0 to 7 do
    let model = Array.init 3 (fun i -> init land (1 lsl i) <> 0) in
    Simplify.extend_model stack model;
    Array.iter
      (fun cl ->
        if not (Array.exists (lit_true model) cl) then
          Alcotest.failf "extended model violates a clause (init %d)" init)
      clauses
  done

let random_instance rand nvars nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Random.State.int rand 3 in
      List.init len (fun _ ->
          Lit.make (Random.State.int rand nvars) ~neg:(Random.State.bool rand)))

(* Preprocessing (with elimination) never changes the verdict, and SAT
   models — after reconstruction of eliminated variables — still satisfy
   every original clause. *)
let test_preprocess_matches_plain () =
  let rand = Random.State.make [| 2025 |] in
  for _trial = 1 to 200 do
    let nvars = 3 + Random.State.int rand 6 in
    let clauses = random_instance rand nvars (2 + Random.State.int rand 20) in
    let expected = brute_force nvars clauses in
    let s = Solver.create () in
    let _ = fresh_vars s nvars in
    List.iter (Solver.add_clause s) clauses;
    let _ = Solver.preprocess ~elim:true s in
    match Solver.solve s with
    | Solver.Sat ->
        if not expected then Alcotest.fail "preprocessed solver said SAT, brute force UNSAT";
        if not (check_model s clauses) then
          Alcotest.fail "model does not satisfy the original clauses"
    | Solver.Unsat ->
        if expected then Alcotest.fail "preprocessed solver said UNSAT, brute force SAT"
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
  done

(* Same, but incrementally: preprocess between clause batches and solve
   under assumptions. Only the equivalence-preserving reductions run here
   (no elimination), so later batches are safe. *)
let test_preprocess_incremental () =
  let rand = Random.State.make [| 2026 |] in
  for _trial = 1 to 200 do
    let nvars = 3 + Random.State.int rand 5 in
    let batch1 = random_instance rand nvars (2 + Random.State.int rand 10) in
    let batch2 = random_instance rand nvars (2 + Random.State.int rand 10) in
    let assumption = Lit.make (Random.State.int rand nvars) ~neg:(Random.State.bool rand) in
    let s = Solver.create () in
    let _ = fresh_vars s nvars in
    List.iter (Solver.add_clause s) batch1;
    let _ = Solver.preprocess s in
    List.iter (Solver.add_clause s) batch2;
    let _ = Solver.preprocess s in
    let expected = brute_force nvars ([ assumption ] :: batch1 @ batch2) in
    match Solver.solve ~assumptions:[ assumption ] s with
    | Solver.Sat ->
        if not expected then Alcotest.fail "incremental preprocess: SAT vs brute UNSAT";
        if not (check_model s (batch1 @ batch2)) then
          Alcotest.fail "incremental preprocess: bad model"
    | Solver.Unsat ->
        if expected then Alcotest.fail "incremental preprocess: UNSAT vs brute SAT"
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
  done

(* Assumption variables passed as [frozen] survive bounded variable
   elimination, and the extended model of a SAT answer under those
   assumptions honours both the assumptions and every original clause —
   including clauses whose other variables were resolved away. *)
let test_preprocess_elim_frozen_assumptions () =
  let rand = Random.State.make [| 2027 |] in
  for _trial = 1 to 200 do
    let nvars = 3 + Random.State.int rand 6 in
    let clauses = random_instance rand nvars (2 + Random.State.int rand 15) in
    let a = Lit.make (Random.State.int rand nvars) ~neg:(Random.State.bool rand) in
    let expected = brute_force nvars ([ a ] :: clauses) in
    let s = Solver.create () in
    let _ = fresh_vars s nvars in
    List.iter (Solver.add_clause s) clauses;
    let _ = Solver.preprocess ~elim:true ~frozen:[ a ] s in
    match Solver.solve ~assumptions:[ a ] s with
    | Solver.Sat ->
        if not expected then
          Alcotest.fail "elim+frozen solver said SAT, brute force UNSAT";
        if not (Solver.value s a) then
          Alcotest.fail "model does not honour the frozen assumption";
        if not (check_model s clauses) then
          Alcotest.fail "extended model violates an original clause"
    | Solver.Unsat ->
        if expected then Alcotest.fail "elim+frozen solver said UNSAT, brute force SAT"
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
  done

(* Targeted shape: x <-> y & z with only x frozen, so the eliminator is
   free to resolve y and z away. Assuming x afterwards must reconstruct
   y = z = true in the extended model. *)
let test_preprocess_elim_assumption_pulls_definition () =
  let s = Solver.create () in
  let x = Lit.pos (Solver.new_var s) in
  let y = Lit.pos (Solver.new_var s) in
  let z = Lit.pos (Solver.new_var s) in
  Solver.add_clause s [ Lit.negate x; y ];
  Solver.add_clause s [ Lit.negate x; z ];
  Solver.add_clause s [ x; Lit.negate y; Lit.negate z ];
  let _ = Solver.preprocess ~elim:true ~frozen:[ x ] s in
  match Solver.solve ~assumptions:[ x ] s with
  | Solver.Sat ->
      Alcotest.(check bool) "x true" true (Solver.value s x);
      Alcotest.(check bool) "y reconstructed true" true (Solver.value s y);
      Alcotest.(check bool) "z reconstructed true" true (Solver.value s z)
  | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "satisfiable instance rejected"

(* Every preprocessing step is DRAT-logged: UNSAT verdicts after
   elimination still carry a certificate the independent checker accepts. *)
let test_preprocess_drat_certified () =
  let rand = Random.State.make [| 2027 |] in
  let certified = ref 0 in
  for _trial = 1 to 100 do
    let nvars = 3 + Random.State.int rand 4 in
    (* Dense instances so a good fraction are UNSAT. *)
    let clauses = random_instance rand nvars (8 + Random.State.int rand 25) in
    let s = Solver.create () in
    Solver.start_proof s;
    let _ = fresh_vars s nvars in
    List.iter (Solver.add_clause s) clauses;
    let _ = Solver.preprocess ~elim:true s in
    match Solver.solve s with
    | Solver.Sat ->
        if not (check_model s clauses) then Alcotest.fail "SAT model broken under proof"
    | Solver.Unsat -> begin
        match Sat.Drat.check (Solver.proof s) with
        | Ok () -> incr certified
        | Error msg -> Alcotest.failf "DRAT certificate rejected: %s" msg
      end
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
  done;
  Alcotest.(check bool) "some UNSAT instances were certified" true (!certified > 0)

(* ------------------------------------------------------------------ *)
(* Resource governance: budgets, cancellation, fault injection, reuse.  *)

(* Pigeonhole np/nh over fresh variables of [s], as clause lists: one
   "some hole" clause per pigeon, then "not both" pairs hole by hole. *)
let pigeonhole_clauses s np nh =
  let p = Array.init np (fun _ -> Array.init nh (fun _ -> Solver.new_var s)) in
  let pairs = ref [] in
  for h = 0 to nh - 1 do
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        pairs := [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ] :: !pairs
      done
    done
  done;
  List.init np (fun i -> List.init nh (fun h -> Lit.pos p.(i).(h))) @ List.rev !pairs

(* Pigeonhole np/nh: UNSAT for np > nh, with enough real search that every
   budget kind gets a chance to fire before the verdict. *)
let pigeonhole np nh =
  let s = Solver.create () in
  List.iter (Solver.add_clause s) (pigeonhole_clauses s np nh);
  s

let expect_unknown name expected = function
  | Solver.Unknown r ->
      Alcotest.(check string) name
        (Solver.reason_to_string expected)
        (Solver.reason_to_string r)
  | Solver.Sat | Solver.Unsat -> Alcotest.failf "%s: budget did not fire" name

let test_budget_conflicts_fires () =
  expect_unknown "conflicts" Solver.Out_of_conflicts
    (Solver.solve ~budget:(Solver.budget ~conflicts:1 ()) (pigeonhole 6 5))

let test_budget_decisions_fires () =
  expect_unknown "decisions" Solver.Out_of_decisions
    (Solver.solve ~budget:(Solver.budget ~decisions:1 ()) (pigeonhole 6 5))

let test_budget_propagations_fires () =
  expect_unknown "propagations" Solver.Out_of_propagations
    (Solver.solve ~budget:(Solver.budget ~propagations:1 ()) (pigeonhole 6 5))

let test_budget_seconds_fires () =
  expect_unknown "seconds" Solver.Out_of_time
    (Solver.solve ~budget:(Solver.budget ~seconds:1e-9 ()) (pigeonhole 6 5))

let test_budget_learnt_mb_fires () =
  expect_unknown "learnt_mb" Solver.Out_of_memory_budget
    (Solver.solve ~budget:(Solver.budget ~learnt_mb:1e-9 ()) (pigeonhole 6 5))

let test_cancel_token_fires () =
  let token = Solver.cancel_token () in
  Solver.cancel token;
  expect_unknown "cancel" Solver.Cancelled (Solver.solve ~cancel:token (pigeonhole 6 5))

let test_fault_hook_fires () =
  let s = pigeonhole 5 4 in
  Solver.set_fault_hook s (Some (fun _ -> Some Solver.Fault_cancel));
  expect_unknown "fault" Solver.Cancelled (Solver.solve s);
  (* Clearing the hook restores normal operation on the same solver. *)
  Solver.set_fault_hook s None;
  Alcotest.(check bool) "unsat after clearing hook" true (Solver.solve s = Solver.Unsat)

let test_reusable_after_unknown () =
  (* An Unknown answer must leave the solver resumable: a follow-up call
     with a bigger (or absent) budget reaches the real verdict. *)
  let s = pigeonhole 6 5 in
  (match Solver.solve ~budget:(Solver.budget ~conflicts:1 ()) s with
  | Solver.Unknown _ -> ()
  | Solver.Sat | Solver.Unsat -> Alcotest.fail "expected unknown on the starved call");
  Alcotest.(check bool) "unsat on resume" true (Solver.solve s = Solver.Unsat);
  (* And a SAT instance still produces a usable model after an Unknown.
     An implication chain with no unit clause forces at least one decision,
     so the cancelled search loop is guaranteed to be entered. *)
  let s = Solver.create () in
  let vs = Array.init 30 (fun _ -> Solver.new_var s) in
  for i = 0 to 28 do
    Solver.add_clause s [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ]
  done;
  let token = Solver.cancel_token () in
  Solver.cancel token;
  (match Solver.solve ~cancel:token s with
  | Solver.Unknown _ -> ()
  | Solver.Sat | Solver.Unsat -> Alcotest.fail "expected cancellation");
  Alcotest.(check bool) "sat on resume" true (Solver.solve s = Solver.Sat);
  for i = 0 to 28 do
    Alcotest.(check bool) "model respects implication" true
      ((not (Solver.value s (Lit.pos vs.(i)))) || Solver.value s (Lit.pos vs.(i + 1)))
  done

let test_budget_scale () =
  let b = Solver.budget_scale (Solver.budget ~conflicts:10 ~seconds:2.0 ()) 4.0 in
  Alcotest.(check (option int)) "conflicts scaled" (Some 40) b.Solver.max_conflicts;
  (match b.Solver.max_seconds with
  | Some s -> Alcotest.(check bool) "seconds scaled" true (abs_float (s -. 8.0) < 1e-9)
  | None -> Alcotest.fail "seconds dropped");
  Alcotest.(check (option int)) "absent stays absent" None b.Solver.max_decisions

let test_seed_preserves_verdict () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true
        (Solver.solve ~seed (pigeonhole 5 4) = Solver.Unsat))
    [ 0; 1; 42; 1337 ]

(* ------------------------------------------------------------------ *)
(* Clause-sharing portfolio.                                            *)

module Portfolio = Sat.Portfolio

(* Like [pigeonhole] but with DRAT logging on from the start, so the
   merged portfolio certificate includes the Input events. *)
let pigeonhole_logged np nh =
  let s = Solver.create () in
  Solver.start_proof s;
  List.iter (Solver.add_clause s) (pigeonhole_clauses s np nh);
  s

let test_ring_overflow_drop () =
  let r = Portfolio.Ring.create 4 in
  Alcotest.(check int) "capacity" 4 (Portfolio.Ring.capacity r);
  for i = 1 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "push %d" i)
      (i <= 4)
      (Portfolio.Ring.push r [| Lit.pos i |])
  done;
  Alcotest.(check int) "two dropped on full" 2 (Portfolio.Ring.dropped r);
  for i = 1 to 4 do
    match Portfolio.Ring.pop r with
    | Some c ->
        Alcotest.(check bool) (Printf.sprintf "fifo order %d" i) true (c = [| Lit.pos i |])
    | None -> Alcotest.fail "ring drained too early"
  done;
  Alcotest.(check bool) "empty after drain" true (Portfolio.Ring.pop r = None);
  (* The consumer's head advance licenses slot reuse by the producer. *)
  Alcotest.(check bool) "reusable after drain" true
    (Portfolio.Ring.push r [| Lit.pos 9 |]);
  Alcotest.(check int) "dropped unchanged" 2 (Portfolio.Ring.dropped r)

let test_portfolio_unsat_matches_single () =
  (* Same verdict as the single-solver lane, and every non-winning worker
     either lost the race (Cancelled) or independently agreed — a losing
     worker must never decide the opposite verdict. *)
  let o =
    Portfolio.solve ~config:(Portfolio.config ~workers:3 ()) (pigeonhole 5 4)
  in
  Alcotest.(check bool) "unsat" true (o.Portfolio.o_result = Solver.Unsat);
  Alcotest.(check bool) "winner decided" true (o.Portfolio.o_winner >= 0);
  List.iter
    (fun (i, r, _) ->
      match r with
      | Solver.Unsat | Solver.Unknown Solver.Cancelled -> ()
      | Solver.Sat -> Alcotest.failf "worker %d flipped to Sat" i
      | Solver.Unknown reason ->
          Alcotest.failf "worker %d: unexpected %s" i (Solver.reason_to_string reason))
    o.Portfolio.o_reports

let test_portfolio_unsat_certified () =
  let s = pigeonhole_logged 5 4 in
  let o = Portfolio.solve ~config:(Portfolio.config ~workers:3 ()) s in
  Alcotest.(check bool) "unsat" true (o.Portfolio.o_result = Solver.Unsat);
  match Sat.Drat.check (Solver.proof s @ o.Portfolio.o_derived) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "merged certificate rejected: %s" m

let test_portfolio_sat_injects_model () =
  let s = Solver.create () in
  let vs = Array.of_list (fresh_vars s 8) in
  let clauses = ref [] in
  for i = 0 to 6 do
    clauses := [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ] :: !clauses
  done;
  clauses := [ Lit.pos vs.(0) ] :: !clauses;
  List.iter (Solver.add_clause s) !clauses;
  let o = Portfolio.solve ~config:(Portfolio.config ~workers:3 ()) s in
  Alcotest.(check bool) "sat" true (o.Portfolio.o_result = Solver.Sat);
  (* The winning model is injected into the master: [Solver.value] answers
     for the master as if it had solved the query itself. *)
  Alcotest.(check bool) "master model satisfies clauses" true (check_model s !clauses)

let test_portfolio_no_share_counters_zero () =
  let o =
    Portfolio.solve
      ~config:(Portfolio.config ~workers:2 ~share:false ())
      (pigeonhole 5 4)
  in
  Alcotest.(check bool) "unsat" true (o.Portfolio.o_result = Solver.Unsat);
  Alcotest.(check int) "nothing exported" 0 o.Portfolio.o_exported;
  Alcotest.(check int) "nothing imported" 0 o.Portfolio.o_imported;
  Alcotest.(check int) "nothing dropped" 0 o.Portfolio.o_dropped

let test_portfolio_deterministic_reproducible () =
  (* Deterministic mode: sharing off, every worker runs to completion,
     winner = lowest decided index. Two runs on equal masters must agree
     on the winner, the verdict and every worker's full counter set. *)
  let run () =
    Portfolio.solve ~seed:42
      ~config:(Portfolio.config ~workers:3 ~deterministic:true ())
      (pigeonhole 5 4)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "verdict" true (a.Portfolio.o_result = b.Portfolio.o_result);
  Alcotest.(check int) "winner" a.Portfolio.o_winner b.Portfolio.o_winner;
  Alcotest.(check int) "report count" (List.length a.Portfolio.o_reports)
    (List.length b.Portfolio.o_reports);
  List.iter2
    (fun (ia, ra, sta) (ib, rb, stb) ->
      Alcotest.(check int) "worker index" ia ib;
      Alcotest.(check bool) (Printf.sprintf "worker %d result" ia) true (ra = rb);
      Alcotest.(check bool) (Printf.sprintf "worker %d stats" ia) true (sta = stb))
    a.Portfolio.o_reports b.Portfolio.o_reports

let test_portfolio_cancel_all () =
  let token = Solver.cancel_token () in
  Solver.cancel token;
  let o =
    Portfolio.solve ~cancel:token
      ~config:(Portfolio.config ~workers:2 ())
      (pigeonhole 6 5)
  in
  (match o.Portfolio.o_result with
  | Solver.Unknown Solver.Cancelled -> ()
  | r ->
      Alcotest.failf "expected Unknown Cancelled, got %s"
        (match r with
        | Solver.Sat -> "Sat"
        | Solver.Unsat -> "Unsat"
        | Solver.Unknown reason -> "Unknown " ^ Solver.reason_to_string reason));
  Alcotest.(check int) "no winner" (-1) o.Portfolio.o_winner

let test_portfolio_one_worker_is_plain () =
  (* p_workers = 1 solves on the master itself: identical verdict and
     stats to a direct [Solver.solve] call on an equal solver. *)
  let direct = pigeonhole 5 4 in
  let r_direct = Solver.solve ~seed:7 direct in
  let o =
    Portfolio.solve ~seed:7 ~config:(Portfolio.config ~workers:1 ()) (pigeonhole 5 4)
  in
  Alcotest.(check bool) "same verdict" true (o.Portfolio.o_result = r_direct);
  Alcotest.(check bool) "same stats" true (o.Portfolio.o_stats = Solver.stats direct)

(* ------------------------------------------------------------------ *)
(* Long incremental runs. The random properties above stay far below the
   1000-learnt threshold of the learnt-database reduction; these runs learn
   enough to reduce many times, sweep satisfied clauses at level 0 and
   compact the clause arena, and every answer is still checked. *)

(* Random 3-SAT over variables [base .. base + nvars - 1], three distinct
   variables per clause. *)
let random_3sat rand ~base ~nvars ~nclauses =
  List.init nclauses (fun _ ->
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let v = base + Random.State.int rand nvars in
          pick (if List.mem v acc then acc else v :: acc)
      in
      List.map (fun v -> Lit.make v ~neg:(Random.State.bool rand)) (pick []))

(* The trace events of [f ()], run with tracing on. *)
let trace_of f =
  let was_on = Obs.on () in
  Obs.Trace.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.reset ();
      if not was_on then Obs.disable ())
    (fun () ->
      f ();
      Obs.Trace.events ())

let test_long_run_reduce_compact () =
  let events =
    trace_of (fun () ->
        let rand = Random.State.make [| 14 |] in
        let s = Solver.create () in
        Solver.start_proof s;
        (* Restarts grow the reduction threshold by 5% each; without them
           it stays at 1000 learnts and every ~1000 conflicts reduce. *)
        Solver.configure ~restart_base:1_000_000 s;
        let added = ref [] in
        let sat = ref 0 and unsat = ref 0 in
        (* Each round's clauses are guarded by a fresh activation literal and
           solved under it, so an UNSAT round leaves the solver usable. *)
        let round clauses =
          let act = Lit.pos (Solver.new_var s) in
          List.iter
            (fun c ->
              let c = Lit.negate act :: c in
              Solver.add_clause s c;
              added := c :: !added)
            clauses;
          ignore (Solver.preprocess ~elim:false s);
          (match Solver.solve ~assumptions:[ act ] s with
          | Solver.Sat ->
              incr sat;
              if not (Solver.value s act) then Alcotest.fail "model drops the assumption";
              if not (check_model s !added) then Alcotest.fail "model violates a clause"
          | Solver.Unsat -> (
              incr unsat;
              match Sat.Drat.check ~assumptions:[ act ] (Solver.proof s) with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "DRAT certificate rejected: %s" msg)
          | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget");
          act
        in
        for r = 1 to 24 do
          let base = Solver.nvars s in
          ignore (fresh_vars s 100);
          let act = round (random_3sat rand ~base ~nvars:100 ~nclauses:430) in
          (* Retire every other round: its clauses and the learnts over its
             activation literal become satisfied at level 0 and are swept. *)
          if r mod 2 = 1 then Solver.add_clause s [ Lit.negate act ];
          if r mod 8 = 0 then ignore (round (pigeonhole_clauses s 7 6))
        done;
        Alcotest.(check bool) "some rounds SAT" true (!sat > 0);
        Alcotest.(check bool) "some rounds UNSAT" true (!unsat > 0);
        (* The plain refutation: no assumptions, so the proof must end in
           the empty clause. *)
        let s = pigeonhole_logged 7 6 in
        ignore (Solver.preprocess ~elim:false s);
        Alcotest.(check bool) "php 7/6 unsat" true (Solver.solve s = Solver.Unsat);
        match Sat.Drat.check (Solver.proof s) with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "DRAT certificate rejected: %s" msg)
  in
  let named n = List.filter (fun e -> e.Obs.Trace.ev_name = n) events in
  let arg k e = int_of_string (List.assoc k e.Obs.Trace.ev_args) in
  let reduces = named "sat.reduce" in
  let begins = List.filter (fun e -> e.Obs.Trace.ev_kind = Obs.Trace.Begin) reduces in
  let ends = List.filter (fun e -> e.Obs.Trace.ev_kind = Obs.Trace.End) reduces in
  Alcotest.(check bool) "many reductions" true (List.length begins >= 5);
  Alcotest.(check bool)
    "a reduction shrank the learnt database" true
    (List.exists2 (fun b e -> arg "kept" e < arg "learnts" b) begins ends);
  Alcotest.(check bool) "level-0 sweeps ran" true (List.length (named "sat.simplify") > 0);
  Alcotest.(check bool) "the arena was compacted" true (named "sat.compact" <> [])

(* ------------------------------------------------------------------ *)
(* Pinned search trajectory. Bookkeeping changes to the solver (storage
   of the order heap, scheduling of level-0 sweeps, arena compaction)
   must not change one decision of the search, and a changed search keeps
   every verdict right, so only exact counters can tell. The numbers
   below are the solver's own on this instance; a change that moves them
   changes the search and must say so. *)

(* Literals assigned at decision level 0 (the unit clauses of a snapshot). *)
let level0_units s =
  List.length (List.filter (fun c -> Array.length c = 1) (snd (Solver.export_cnf s)))

let counters s =
  let st = Solver.stats s in
  Solver.(st.conflicts, st.decisions, st.propagations, st.restarts)

let check_counters name (c, d, p, r) s =
  let c', d', p', r' = counters s in
  Alcotest.(check (list int))
    (name ^ ": conflicts, decisions, propagations, restarts")
    [ c; d; p; r ] [ c'; d'; p'; r' ]

let test_pinned_trajectory () =
  let rand = Random.State.make [| 7 |] in
  let nvars = 200 in
  let s = Solver.create () in
  (* x is decided first (the heap's root while every activity is 0) and
     the last two variables right after it, so the gadget below makes the
     first descent learn the unit x. *)
  let x = Solver.new_var s in
  ignore (fresh_vars s nvars);
  List.iter (Solver.add_clause s) (random_3sat rand ~base:1 ~nvars ~nclauses:850);
  (* A level-0 unit from add_clause, and one that preprocessing derives:
     (b | c) and (b | ~c) strengthen to b. *)
  Solver.add_clause s [ Lit.pos 5 ];
  Alcotest.(check int) "add_clause unit" 1 (level0_units s);
  let b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ Lit.pos b; Lit.pos c ];
  Solver.add_clause s [ Lit.pos b; Lit.neg c ];
  ignore (Solver.preprocess s);
  Alcotest.(check int) "preprocess unit" 2 (level0_units s);
  let z = Solver.new_var s in
  let y = Solver.new_var s in
  List.iter
    (fun (ny, nz) -> Solver.add_clause s [ Lit.pos x; Lit.make y ~neg:ny; Lit.make z ~neg:nz ])
    [ (false, false); (false, true); (true, false); (true, true) ];
  let r1 = Solver.solve ~assumptions:[ Lit.neg 6; Lit.pos 7 ] s in
  Alcotest.(check bool) "first solve unsat under assumptions" true (r1 = Solver.Unsat);
  Alcotest.(check int) "learnt unit" 3 (level0_units s);
  check_counters "first solve" (4632, 5629, 182336, 24) s;
  (* Incremental: a guarded batch, solved under its guard. *)
  List.iter
    (fun c -> Solver.add_clause s (Lit.neg 9 :: c))
    (random_3sat rand ~base:1 ~nvars ~nclauses:100);
  let r2 = Solver.solve ~assumptions:[ Lit.pos 9; Lit.neg 8 ] s in
  Alcotest.(check bool) "second solve unsat under assumptions" true (r2 = Solver.Unsat);
  Alcotest.(check bool) "still ok" true (Solver.ok s);
  check_counters "second solve" (5240, 6338, 202599, 29) s

(* ------------------------------------------------------------------ *)
(* Level-0 sweeps. The search sweeps satisfied clauses out of the
   databases at level 0 only when the level-0 trail has grown since the
   last sweep (or a clause entered). A missed sweep keeps every verdict
   right but silently changes the search, so each way a level-0 literal
   arrives is checked here: the clauses it satisfies must be gone after
   the next solve. *)

(* A solver holding one guarded batch, (~act | C) for each random C,
   already solved (Sat) under [act]: its learnt clauses all contain ~act,
   since act sits at level 1 under every conflict. *)
let guarded_solver seed =
  let rand = Random.State.make [| seed |] in
  let s = Solver.create () in
  let act = Lit.pos (Solver.new_var s) in
  ignore (fresh_vars s 100);
  List.iter
    (fun c -> Solver.add_clause s (Lit.negate act :: c))
    (random_3sat rand ~base:1 ~nvars:100 ~nclauses:426);
  Alcotest.(check bool) "guarded batch sat" true
    (Solver.solve ~assumptions:[ act ] s = Solver.Sat);
  let st = Solver.stats s in
  Alcotest.(check bool) "learnt clauses to sweep" true (st.Solver.learnt_clauses > 0);
  (s, act)

(* Clauses (~act | w) and (~act | ~w) over a fresh w: act alone implies a
   conflict. *)
let add_refutation s act =
  let w = Solver.new_var s in
  Solver.add_clause s [ Lit.negate act; Lit.pos w ];
  Solver.add_clause s [ Lit.negate act; Lit.neg w ]

let check_all_swept name s =
  let st = Solver.stats s in
  Alcotest.(check (pair int int))
    (name ^ ": problem and learnt clauses left")
    (0, 0)
    (st.Solver.clauses, st.Solver.learnt_clauses)

let test_sweep_after_level0_unit () =
  (* An add_clause unit. *)
  let s, act = guarded_solver 21 in
  Solver.add_clause s [ Lit.negate act ];
  ignore (Solver.solve s);
  check_all_swept "add_clause unit" s;
  (* A preprocess unit: strengthening the refutation derives ~act, which
     subsumes the guarded problem clauses, but preprocessing never sees
     the learnt ones; the next solve's sweep must drop them. *)
  let s, act = guarded_solver 23 in
  add_refutation s act;
  let learnts = (Solver.stats s).Solver.learnt_clauses in
  ignore (Solver.preprocess s);
  Alcotest.(check int) "preprocess leaves the learnts" learnts
    (Solver.stats s).Solver.learnt_clauses;
  ignore (Solver.solve s);
  check_all_swept "preprocess unit" s;
  (* A learnt unit: under [act] the refutation conflicts at level 1 and
     the solver learns ~act mid-solve, after the solve's first sweep. *)
  let s, act = guarded_solver 25 in
  add_refutation s act;
  Alcotest.(check bool) "unsat under act" true
    (Solver.solve ~assumptions:[ act ] s = Solver.Unsat);
  check_all_swept "learnt unit" s

let test_sweep_skipped_when_unchanged () =
  let sweeps f =
    let events = trace_of f in
    List.length
      (List.filter
         (fun e -> e.Obs.Trace.ev_name = "sat.simplify" && e.Obs.Trace.ev_kind = Obs.Trace.Begin)
         events)
  in
  let s, act = guarded_solver 29 in
  let u = level0_units s in
  (* Nothing new at level 0 since the last sweep: the solve sweeps never. *)
  Alcotest.(check int) "no sweep on an unchanged level 0" 0
    (sweeps (fun () -> ignore (Solver.solve ~assumptions:[ act ] s)));
  Alcotest.(check int) "no level-0 literal learnt" u (level0_units s);
  (* A new clause, even one that adds no level-0 literal, forces one. *)
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.(check int) "one sweep after add_clause" 1
    (sweeps (fun () -> ignore (Solver.solve ~assumptions:[ act ] s)))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("sat.trivial_sat", `Quick, test_trivial_sat);
    ("sat.trivial_unsat", `Quick, test_trivial_unsat);
    ("sat.empty_clause", `Quick, test_empty_clause);
    ("sat.no_clauses", `Quick, test_no_clauses);
    ("sat.unit_chain", `Quick, test_unit_propagation_chain);
    ("sat.pigeonhole_3_2", `Quick, test_pigeonhole_3_2);
    ("sat.pigeonhole_5_4", `Quick, test_pigeonhole_5_4);
    ("sat.assumptions", `Quick, test_assumptions_flip);
    ("sat.unsat_core", `Quick, test_unsat_core);
    ("sat.incremental", `Quick, test_incremental_strengthening);
    ("sat.tautology", `Quick, test_tautology_dropped);
    ("sat.duplicates", `Quick, test_duplicate_literals);
    ("sat.contradictory_assumptions", `Quick, test_contradictory_assumptions);
    ("sat.duplicate_assumptions", `Quick, test_duplicate_assumptions);
    ("sat.many_vars", `Quick, test_many_vars_no_clauses);
    ("sat.value_before_solve", `Quick, test_value_before_solve_raises);
    ("sat.stats_monotone", `Quick, test_stats_monotone);
    ("sat.lit_encoding", `Quick, test_lit_encoding);
    ("dimacs.roundtrip", `Quick, test_dimacs_roundtrip);
    ("dimacs.errors", `Quick, test_dimacs_errors);
    ("dimacs.solve", `Quick, test_dimacs_solve);
    ("dimacs.multiline", `Quick, test_dimacs_multiline_clause);
    ("dimacs.fuzz_20vars", `Quick, test_dimacs_fuzz_20vars);
    ("simplify.subsumption", `Quick, test_simplify_subsumption);
    ("simplify.self_subsume", `Quick, test_simplify_self_subsume);
    ("simplify.bve_extend_model", `Quick, test_simplify_bve_extend_model);
    ("simplify.preprocess_matches_plain", `Quick, test_preprocess_matches_plain);
    ("simplify.preprocess_incremental", `Quick, test_preprocess_incremental);
    ("simplify.preprocess_drat", `Quick, test_preprocess_drat_certified);
    ( "simplify.elim_frozen_assumptions",
      `Quick,
      test_preprocess_elim_frozen_assumptions );
    ( "simplify.elim_assumption_definition",
      `Quick,
      test_preprocess_elim_assumption_pulls_definition );
    ("govern.conflicts", `Quick, test_budget_conflicts_fires);
    ("govern.decisions", `Quick, test_budget_decisions_fires);
    ("govern.propagations", `Quick, test_budget_propagations_fires);
    ("govern.seconds", `Quick, test_budget_seconds_fires);
    ("govern.learnt_mb", `Quick, test_budget_learnt_mb_fires);
    ("govern.cancel", `Quick, test_cancel_token_fires);
    ("govern.fault_hook", `Quick, test_fault_hook_fires);
    ("govern.reuse_after_unknown", `Quick, test_reusable_after_unknown);
    ("govern.budget_scale", `Quick, test_budget_scale);
    ("govern.seed_verdict", `Quick, test_seed_preserves_verdict);
    ("sat.long_run_reduce_compact", `Quick, test_long_run_reduce_compact);
    ("sat.pinned_trajectory", `Quick, test_pinned_trajectory);
    ("sat.sweep_after_level0_unit", `Quick, test_sweep_after_level0_unit);
    ("sat.sweep_skipped_when_unchanged", `Quick, test_sweep_skipped_when_unchanged);
    ("portfolio.ring_overflow", `Quick, test_ring_overflow_drop);
    ("portfolio.unsat_matches_single", `Quick, test_portfolio_unsat_matches_single);
    ("portfolio.unsat_certified", `Quick, test_portfolio_unsat_certified);
    ("portfolio.sat_injects_model", `Quick, test_portfolio_sat_injects_model);
    ("portfolio.no_share_counters", `Quick, test_portfolio_no_share_counters_zero);
    ("portfolio.deterministic", `Quick, test_portfolio_deterministic_reproducible);
    ("portfolio.cancel_all", `Quick, test_portfolio_cancel_all);
    ("portfolio.one_worker_plain", `Quick, test_portfolio_one_worker_is_plain);
    q prop_matches_brute_force;
    q prop_assumptions_match_brute_force;
    q prop_incremental_consistency;
    q prop_exhaustive_matches_brute_force;
  ]
