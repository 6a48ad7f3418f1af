(* Unit tests for the solver's growable-array container. *)

module Vec = Sat.Vec

let test_push_pop () =
  let v = Vec.create 0 in
  Alcotest.(check int) "empty" 0 (Vec.size v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Vec.size v);
  Alcotest.(check int) "get" 42 (Vec.get v 41);
  Alcotest.(check int) "last" 100 (Vec.last v);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Alcotest.(check int) "size after pop" 99 (Vec.size v)

let test_bounds () =
  let v = Vec.create 0 in
  Vec.push v 1;
  Alcotest.(check bool) "get oob" true
    (match Vec.get v 1 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "set oob" true
    (match Vec.set v 5 0 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "pop empty" true
    (let w = Vec.create 0 in
     match Vec.pop w with exception Invalid_argument _ -> true | _ -> false)

let test_shrink_clear () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 1; 2; 3; 4; 5 ];
  Vec.shrink v 3;
  Alcotest.(check (list int)) "shrunk" [ 1; 2; 3 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.size v)

let test_swap_remove () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 10; 20; 30; 40 ];
  Vec.swap_remove v 1;
  Alcotest.(check (list int)) "last moved into slot" [ 10; 40; 30 ] (Vec.to_list v)

let test_iter_exists_sort () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 3; 1; 2 ];
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter sum" 6 !sum;
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v);
  Vec.sort_sub Int.compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let test_growth () =
  let v = Vec.create ~capacity:1 0 in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check int) "size" 1000 (Vec.size v);
  Alcotest.(check int) "content preserved across growth" 999 (Vec.get v 999)

let suite =
  [
    ("vec.push_pop", `Quick, test_push_pop);
    ("vec.bounds", `Quick, test_bounds);
    ("vec.shrink_clear", `Quick, test_shrink_clear);
    ("vec.swap_remove", `Quick, test_swap_remove);
    ("vec.iter_exists_sort", `Quick, test_iter_exists_sort);
    ("vec.growth", `Quick, test_growth);
  ]
