(* Standalone DIMACS front-end for the CDCL solver.

   Usage: dimacs_solve [FILE]     (reads stdin when no file is given)

   Prints the classic competition output: "c" comment lines with the
   instance size and the solve statistics (conflicts, decisions,
   propagations, solve seconds, propagations per second), an "s" status
   line and, for satisfiable formulas, "v" lines with the model. Exit
   code 10 = SAT, 20 = UNSAT, 1 = input error. *)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let print_stats (cnf : Sat.Dimacs.cnf) st seconds =
  let open Sat.Solver in
  Printf.printf "c vars          %d\n" cnf.num_vars;
  Printf.printf "c clauses       %d\n" (List.length cnf.clauses);
  Printf.printf "c conflicts     %d\n" st.conflicts;
  Printf.printf "c decisions     %d\n" st.decisions;
  Printf.printf "c propagations  %d\n" st.propagations;
  Printf.printf "c solve_s       %.3f\n" seconds;
  Printf.printf "c props_per_s   %.0f\n"
    (if seconds > 0. then float_of_int st.propagations /. seconds else 0.)

let () =
  let text =
    match Sys.argv with
    | [| _ |] -> read_all stdin
    | [| _; path |] ->
        let ic = open_in path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
    | _ ->
        prerr_endline "usage: dimacs_solve [FILE]";
        exit 1
  in
  match Sat.Dimacs.parse_string text with
  | Error msg ->
      Printf.eprintf "c parse error: %s\n" msg;
      exit 1
  | Ok cnf -> (
      let solver = Sat.Solver.create () in
      Sat.Dimacs.load solver cnf;
      let t0 = Unix.gettimeofday () in
      let result = Sat.Solver.solve solver in
      print_stats cnf (Sat.Solver.stats solver) (Unix.gettimeofday () -. t0);
      match result with
      | Sat.Solver.Unknown reason ->
          (* Unreachable today (no budget is passed), but keep the competition
             convention: 0 = no verdict. *)
          Printf.printf "c %s\ns UNKNOWN\n" (Sat.Solver.reason_to_string reason);
          exit 0
      | Sat.Solver.Unsat ->
          print_endline "s UNSATISFIABLE";
          exit 20
      | Sat.Solver.Sat ->
          print_endline "s SATISFIABLE";
          let buf = Buffer.create 256 in
          Buffer.add_string buf "v";
          Array.iteri
            (fun v value ->
              Buffer.add_string buf (Printf.sprintf " %d" (if value then v + 1 else -(v + 1))))
            (Sat.Solver.model solver);
          Buffer.add_string buf " 0";
          print_endline (Buffer.contents buf);
          exit 10)
