(* Tests for the benchmark's own logic: golden parsing, the seeded draws,
   the tail-percentile rule and span self-time derivation. *)

open Perfbench

let cell design mutant golden = { design; mutant; golden }

(* {1 Golden-file parsing} *)

let test_parse_lines () =
  let text = "a m1 proved@5\n\nb m:2 detected@3:gfc-state\n" in
  match parse_golden text with
  | Error e -> Alcotest.fail e
  | Ok cells ->
      Alcotest.(check (list string)) "ids" [ "a/m1"; "b/m:2" ] (List.map cell_id cells);
      Alcotest.(check (list string))
        "classes" [ "proved"; "detected" ]
        (List.map (fun c -> verdict_class c.golden) cells)

let test_parse_rejects () =
  List.iter
    (fun bad ->
      match parse_golden bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "a m1"; "a m1 proved@"; "a m1 proved@x"; "a m1 detected@3"; "a m1 detected@3:";
      "a m1 unknown@3"; "a m1 proved@5 extra" ]

(* The dune rule copies the repository's golden matrix next to the test. *)
let test_parse_repo_golden () =
  let path = Filename.concat (Filename.concat ".." "test") "matrix_golden.txt" in
  match parse_golden (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> Alcotest.fail e
  | Ok cells ->
      let n cls = List.length (List.filter (fun c -> verdict_class c.golden = cls) cells) in
      Alcotest.(check int) "cells" 1311 (List.length cells);
      Alcotest.(check int) "proved" 1031 (n "proved");
      Alcotest.(check int) "detected" 280 (n "detected")

(* {1 Seeded draws} *)

let pool =
  List.concat_map
    (fun d ->
      List.init 5 (fun i -> cell d (Printf.sprintf "p%d" i) "proved@4")
      @ List.init 2 (fun i -> cell d (Printf.sprintf "d%d" i) "detected@2:gfc-output"))
    [ "x"; "y"; "z" ]

let of_class cls = List.filter (fun c -> verdict_class c.golden = cls) pool

let test_draw_deterministic () =
  let ids seed = List.map cell_id (take 50 (draw ~seed (of_class "proved"))) in
  Alcotest.(check (list string)) "same seed, same cells" (ids 7) (ids 7);
  Alcotest.(check bool) "another seed, another order" true (ids 7 <> ids 8)

let test_draw_purity () =
  List.iter
    (fun cls ->
      List.iter
        (fun c -> Alcotest.(check string) "class" cls (verdict_class c.golden))
        (take 100 (draw ~seed:3 (of_class cls))))
    [ "proved"; "detected" ]

(* Each pass is a permutation of the pool, and every prefix of it holds
   each design in proportion to its cells, within one. *)
let test_draw_stratified () =
  let skewed =
    List.init 8 (fun i -> cell "x" (Printf.sprintf "p%d" i) "proved@4")
    @ List.init 4 (fun i -> cell "y" (Printf.sprintf "p%d" i) "proved@4")
    @ List.init 2 (fun i -> cell "z" (Printf.sprintf "p%d" i) "proved@4")
  in
  List.iter
    (fun seed ->
      let next = draw ~seed skewed in
      List.iter
        (fun _ ->
          let p = take 14 next in
          Alcotest.(check (list string))
            "a pass is a permutation" (List.sort compare (List.map cell_id skewed))
            (List.sort compare (List.map cell_id p));
          List.iteri
            (fun k _ ->
              let prefix = List.filteri (fun i _ -> i <= k) p in
              List.iter
                (fun (d, n) ->
                  let got = List.length (List.filter (fun c -> c.design = d) prefix) in
                  let want = float_of_int ((k + 1) * n) /. 14. in
                  Alcotest.(check bool)
                    (Printf.sprintf "seed %d prefix %d design %s" seed (k + 1) d)
                    true
                    (Float.abs (float_of_int got -. want) <= 1.5))
                [ ("x", 8); ("y", 4); ("z", 2) ])
            p)
        [ (); (); () ])
    [ 1; 2; 3; 4; 5 ]

let test_interleave () =
  let a = draw ~seed:1 (of_class "proved") and b = draw ~seed:1 (of_class "detected") in
  let classes = List.map (fun c -> verdict_class c.golden) (take 10 (interleave [ (a, 3); (b, 2) ])) in
  Alcotest.(check (list string))
    "3:2 blocks"
    [ "proved"; "proved"; "proved"; "detected"; "detected";
      "proved"; "proved"; "proved"; "detected"; "detected" ]
    classes

(* {1 Tail percentile} *)

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  let check n q v =
    let q', v' = tail (range n) in
    Alcotest.(check int) (Printf.sprintf "percentile of %d" n) q q';
    Alcotest.(check (float 0.)) (Printf.sprintf "value of %d" n) v v'
  in
  check 100 90 90.;
  check 200 95 190.;
  check 1000 99 990.;
  check 50 80 40.;
  check 15 33 5.;
  (* Too few samples for ten beyond any percentile: the median. *)
  check 10 50 5.5

let test_tail_beyond () =
  List.iter
    (fun n ->
      let xs = range n in
      let _, v = tail xs in
      let beyond = List.length (List.filter (fun x -> x > v) xs) in
      Alcotest.(check bool) (Printf.sprintf ">= 10 beyond at n=%d" n) true (beyond >= 10);
      let q, _ = tail xs in
      if q < 99 then begin
        let rank = (((q + 1) * n) + 99) / 100 in
        Alcotest.(check bool) (Printf.sprintf "q+1 has < 10 beyond at n=%d" n) true (n - rank < 10)
      end)
    [ 11; 12; 37; 64; 99; 101; 250; 999; 5000 ]

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (median [ 4.; 1.; 3.; 2. ])

(* {1 Self times} *)

let ev seq dom ts kind name =
  { Obs.Trace.ev_seq = seq; ev_domain = dom; ev_ts = ts; ev_kind = kind; ev_name = name; ev_args = [] }

let test_self_time () =
  let open Obs.Trace in
  (* check [0,10] holds query [1,7] (holding preprocess [2,3] and reduce
     [4,6]) and query [8,9]; domain 1 runs an unrelated check [0,4] in
     parallel; instants and counters are ignored. *)
  let events =
    [
      ev 0 0 0. Begin "check";
      ev 1 1 0. Begin "check";
      ev 2 0 1. Begin "query";
      ev 3 0 2. Begin "preprocess";
      ev 4 0 3. End "preprocess";
      ev 5 0 3.5 Instant "restart";
      ev 6 0 4. Begin "reduce";
      ev 7 1 4. End "check";
      ev 8 0 5. (Counter 3.) "conflicts";
      ev 9 0 6. End "reduce";
      ev 10 0 7. End "query";
      ev 11 0 8. Begin "query";
      ev 12 0 9. End "query";
      ev 13 0 10. End "check";
    ]
  in
  (match check events with Ok () -> () | Error e -> Alcotest.fail e);
  let table = span_table events in
  let row name = List.assoc name table in
  let expect name count total self =
    let r = row name in
    Alcotest.(check int) (name ^ " count") count r.count;
    Alcotest.(check (float 1e-9)) (name ^ " total") total r.total;
    Alcotest.(check (float 1e-9)) (name ^ " self") self r.self
  in
  Alcotest.(check (list string))
    "names" [ "check"; "preprocess"; "query"; "reduce" ] (List.map fst table);
  expect "check" 2 14. 7.;
  expect "query" 2 7. 4.;
  expect "preprocess" 1 1. 1.;
  expect "reduce" 1 2. 2.

let () =
  Alcotest.run "perfbench"
    [
      ( "golden",
        [
          Alcotest.test_case "parse lines" `Quick test_parse_lines;
          Alcotest.test_case "reject malformed" `Quick test_parse_rejects;
          Alcotest.test_case "repository golden" `Quick test_parse_repo_golden;
        ] );
      ( "draw",
        [
          Alcotest.test_case "deterministic" `Quick test_draw_deterministic;
          Alcotest.test_case "class purity" `Quick test_draw_purity;
          Alcotest.test_case "stratified" `Quick test_draw_stratified;
          Alcotest.test_case "interleave" `Quick test_interleave;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "ten beyond" `Quick test_tail_beyond;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ]
