(* Tests for the distributed campaign layer (Dist): per-worker journal
   merge semantics (overlapping keys, torn shard tails, Unknown
   precedence), hardest-first scheduling, process supervision (crash
   restart, OOM class policy), and the end-to-end resume-equivalence
   sweep — SIGKILL a worker after every ack count in turn, resume, and
   the merged matrix must be bit-for-bit the serial run's.

   Multi-worker runs re-exec the test binary itself, so every solver
   used with [workers >= 2] is registered by name — the toy ones in
   [register_solvers] (called from test_main before [Dist.worker_entry]),
   the production verification solver by linking [Matrix] — and rebuilds
   its state from the [arg] string; only the [workers <= 1] in-process
   solvers may capture test-local state. *)

let tmp_path tag =
  let file = Filename.temp_file ("gqed-dist-" ^ tag) ".jrnl" in
  Sys.remove file;
  file

(* Dist runs leave per-worker shards next to the journal on abort; sweep
   them up with the main file. *)
let with_tmp tag f =
  let path = tmp_path tag in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      (path :: List.init 8 (Dist.worker_journal path))
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let fast_policy =
  { Dist.max_restarts = 2; backoff_s = 0.001; backoff_cap_s = 0.002; retry_oom = true }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let row_sig (r : Dist.row) = (r.Dist.r_key, r.Dist.r_decided, r.Dist.r_payload)
let rows_sig rows = List.map row_sig rows
let matrix = Alcotest.(list (triple string bool string))

let run_ok ?workers ?batch ?policy ?kill ?arg ~resume ~journal ~solver cells =
  match
    Dist.run ?workers ?batch ?policy ?kill ?arg ~resume ~force:false ~journal ~solver
      cells
  with
  | Ok v -> v
  | Error msg -> Alcotest.failf "dist run (%s): %s" journal msg

(* ------------------------------------------------------------------ *)
(* Solvers (registered for worker processes)                           *)
(* ------------------------------------------------------------------ *)

let toy_cells n =
  List.init n (fun i ->
      { Dist.cell_key = Printf.sprintf "cell-%02d" i; cell_hint = float_of_int (n - i) })

let toy_solve ~arg:_ key = (true, "v:" ^ key)

(* Deterministic mixed matrix: every 4th cell is an Unknown, which a
   resume must re-solve rather than skip. *)
let toy_matrix_solve ~arg:_ key =
  if Hashtbl.hash key mod 4 = 0 then (false, "unk:" ^ key) else (true, "v:" ^ key)

(* First process to touch the poisoned cell leaves the marker file named
   by [arg] and dies; the restarted (or sibling) worker then succeeds —
   a transient crash in process form. *)
let crash_once_solve ~arg key =
  if key = "cell-00" && not (Sys.file_exists arg) then begin
    let oc = open_out arg in
    close_out oc;
    failwith "injected worker crash"
  end
  else (true, "v:" ^ key)

let oom_solve ~arg:_ key =
  if key = "cell-00" then raise Out_of_memory else (true, "v:" ^ key)

(* Real mutant matrices run the production solver: Matrix's registered
   "campaign", over the tasks of one registry design. *)
let real_tasks name =
  let config = { (Matrix.default Qed.Checks.Gqed) with Matrix.names = [ name ] } in
  match Matrix.tasks config with
  | Ok tasks -> (Matrix.encode config, tasks)
  | Error msg -> Alcotest.failf "matrix tasks: %s" msg

let cells_of tasks = List.map (fun t -> t.Matrix.t_cell) tasks

let register_solvers () =
  Dist.register "test-toy" toy_solve;
  Dist.register "test-toy-matrix" toy_matrix_solve;
  Dist.register "test-crash-once" crash_once_solve;
  Dist.register "test-oom" oom_solve

(* ------------------------------------------------------------------ *)
(* Merge semantics, on hand-crafted worker shards                      *)
(* ------------------------------------------------------------------ *)

let write_shard path specs =
  match Persist.Journal.open_append path with
  | Error msg -> Alcotest.failf "shard %s: %s" path msg
  | Ok (j, _, _) ->
      List.iter
        (fun (key, decided, payload, seconds) ->
          Persist.Journal.append ~seconds j ~decided ~key ~payload)
        specs;
      Persist.Journal.close j

let start_campaign ?(resume = false) path =
  match Persist.Campaign.start ~resume ~force:false path with
  | Ok c -> c
  | Error msg -> Alcotest.failf "campaign %s: %s" path msg

let test_merge_overlap_and_precedence () =
  with_tmp "merge" (fun path ->
      let c = start_campaign path in
      (* Shard 0: decides a and b, later downgrades b to Unknown, leaves
         e undecided. Shard 1: re-decides a (later in scan order: wins),
         decides b (decided beats shard 0's trailing Unknown), leaves f
         undecided twice (last write wins within the class). *)
      write_shard (Dist.worker_journal path 0)
        [
          ("a", true, "a-w0", 0.2);
          ("b", true, "b-w0", 0.1);
          ("b", false, "b-unk", 0.1);
          ("e", false, "e-unk", 0.3);
        ];
      write_shard (Dist.worker_journal path 1)
        [
          ("a", true, "a-w1", 0.4);
          ("b", true, "b-w1", 0.1);
          ("f", false, "f-unk-1", 0.1);
          ("f", false, "f-unk-2", 0.2);
        ];
      let ms = Dist.merge ~delete:false ~into:c path in
      Alcotest.(check int) "two shards scanned" 2 ms.Dist.m_files;
      Alcotest.(check int) "all records replayed" 8 ms.Dist.m_records;
      Alcotest.(check int) "one merged record per key" 4 ms.Dist.m_merged;
      Alcotest.(check (option string)) "a: last decided wins across shards"
        (Some "a-w1")
        (Persist.Campaign.peek_decided c "a");
      Alcotest.(check (option string)) "b: decided beats a trailing Unknown"
        (Some "b-w1")
        (Persist.Campaign.peek_decided c "b");
      Alcotest.(check (option string)) "e: Unknown stays unskippable" None
        (Persist.Campaign.peek_decided c "e");
      Alcotest.(check (option string)) "f: Unknown stays unskippable" None
        (Persist.Campaign.peek_decided c "f");
      (* Merged seconds feed the hardness signal. *)
      Alcotest.(check (option (float 1e-9))) "a: seconds merged" (Some 0.4)
        (Persist.Campaign.last_seconds c "a");
      (* delete:false left the shards in place; the default sweeps them. *)
      Alcotest.(check bool) "shards kept" true
        (Sys.file_exists (Dist.worker_journal path 0));
      let _ = Dist.merge ~into:c path in
      Alcotest.(check bool) "shards deleted by default merge" false
        (Sys.file_exists (Dist.worker_journal path 0));
      Persist.Campaign.close c)

let test_merge_torn_shard_tail () =
  with_tmp "torn" (fun path ->
      let c = start_campaign path in
      let shard = Dist.worker_journal path 0 in
      write_shard shard
        [ ("a", true, "a-pay", 0.1); ("b", true, "b-pay", 0.1); ("c", true, "c-pay", 0.1) ];
      (* SIGKILL mid-append: keep 2 whole records plus half a third. *)
      Persist.Journal.chop ~torn_bytes:9 ~keep:2 shard;
      let ms = Dist.merge ~delete:false ~into:c path in
      Alcotest.(check int) "torn shard counted" 1 ms.Dist.m_torn_files;
      Alcotest.(check int) "surviving prefix merged" 2 ms.Dist.m_merged;
      Alcotest.(check (option string)) "a survives" (Some "a-pay")
        (Persist.Campaign.peek_decided c "a");
      Alcotest.(check (option string)) "c was torn away" None
        (Persist.Campaign.peek_decided c "c");
      Persist.Campaign.close c)

let test_merge_stale_unknown_never_downgrades () =
  with_tmp "stale" (fun path ->
      (* Main journal already decided k; a leftover shard holds an older
         Unknown for it. The merge must drop the Unknown — a decided
         fact beats a budget artifact — so k stays skippable. *)
      let c = start_campaign path in
      Persist.Campaign.record c ~decided:true ~key:"k" ~payload:"decided-pay";
      write_shard (Dist.worker_journal path 0) [ ("k", false, "old-unk", 0.1) ];
      let ms = Dist.merge ~into:c path in
      Alcotest.(check int) "stale Unknown dropped" 1 ms.Dist.m_stale_unknowns;
      Alcotest.(check int) "nothing merged" 0 ms.Dist.m_merged;
      Alcotest.(check (option string)) "k still skippable" (Some "decided-pay")
        (Persist.Campaign.peek_decided c "k");
      Persist.Campaign.close c)

(* ------------------------------------------------------------------ *)
(* Scheduling and rows (in-process lanes: solvers may capture state)   *)
(* ------------------------------------------------------------------ *)

let test_hardest_first_order () =
  with_tmp "hardest" (fun path ->
      (* Seed measured times (undecided so nothing is skipped): slow and
         fast have journaled seconds, the cold-* cells only hints. *)
      let c = start_campaign path in
      Persist.Campaign.record ~seconds:0.5 c ~decided:false ~key:"slow" ~payload:"";
      Persist.Campaign.record ~seconds:0.01 c ~decided:false ~key:"fast" ~payload:"";
      Persist.Campaign.close c;
      let order = ref [] in
      Dist.register "test-track" (fun ~arg:_ key ->
          order := key :: !order;
          (true, "v:" ^ key));
      let cells =
        [
          { Dist.cell_key = "cold-small"; cell_hint = 1.0 };
          { Dist.cell_key = "fast"; cell_hint = 0.0 };
          { Dist.cell_key = "cold-big"; cell_hint = 9.0 };
          { Dist.cell_key = "slow"; cell_hint = 0.0 };
        ]
      in
      let rows, stats = run_ok ~workers:1 ~resume:true ~journal:path ~solver:"test-track" cells in
      Alcotest.(check (list string))
        "measured beat hints, biggest first within each class"
        [ "slow"; "fast"; "cold-big"; "cold-small" ]
        (List.rev !order);
      Alcotest.(check (list string)) "rows in input order"
        [ "cold-small"; "fast"; "cold-big"; "slow" ]
        (List.map (fun r -> r.Dist.r_key) rows);
      Alcotest.(check bool) "no rows warm" true
        (List.for_all (fun r -> not r.Dist.r_warm) rows);
      Alcotest.(check int) "in-process run" 0 stats.Dist.d_workers)

let test_warm_rows_on_repeat () =
  with_tmp "warm" (fun path ->
      let cells = toy_cells 4 in
      let rows1, _ = run_ok ~workers:1 ~resume:false ~journal:path ~solver:"test-toy" cells in
      Alcotest.(check bool) "first run cold" true
        (List.for_all (fun r -> not r.Dist.r_warm) rows1);
      Dist.register "test-boom" (fun ~arg:_ _key ->
          Alcotest.fail "skippable cell re-solved");
      let rows2, stats = run_ok ~workers:1 ~resume:true ~journal:path ~solver:"test-boom" cells in
      Alcotest.(check bool) "second run warm" true
        (List.for_all (fun r -> r.Dist.r_warm) rows2);
      Alcotest.(check matrix) "same matrix" (rows_sig rows1) (rows_sig rows2);
      Alcotest.(check int) "all skipped" 4 stats.Dist.d_skipped)

let test_unregistered_solver_rejected () =
  with_tmp "noreg" (fun path ->
      match
        Dist.run ~resume:false ~force:false ~journal:path ~solver:"no-such-solver"
          (toy_cells 2)
      with
      | Ok _ -> Alcotest.fail "unregistered solver accepted"
      | Error msg ->
          if not (contains ~sub:"not registered" msg) then
            Alcotest.failf "unexpected error: %s" msg)

(* ------------------------------------------------------------------ *)
(* Process supervision                                                 *)
(* ------------------------------------------------------------------ *)

let test_worker_crash_restarted () =
  with_tmp "crashonce" (fun path ->
      let marker = path ^ ".crashed-once" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
        (fun () ->
          let rows, stats =
            run_ok ~workers:2 ~batch:1 ~policy:fast_policy ~arg:marker ~resume:false
              ~journal:path ~solver:"test-crash-once" (toy_cells 8)
          in
          Alcotest.(check bool) "every cell decided" true
            (List.for_all (fun r -> r.Dist.r_decided) rows);
          Alcotest.(check (option (triple string bool string)))
            "poisoned cell solved on retry"
            (Some ("cell-00", true, "v:cell-00"))
            (List.find_opt (fun r -> r.Dist.r_key = "cell-00") rows
            |> Option.map row_sig);
          if stats.Dist.d_restarts < 1 then
            Alcotest.failf "expected a worker restart, saw %d" stats.Dist.d_restarts))

let test_oom_not_retried_by_policy () =
  with_tmp "oom" (fun path ->
      let policy = { fast_policy with Dist.retry_oom = false } in
      let rows, stats =
        run_ok ~workers:2 ~batch:1 ~policy ~resume:false ~journal:path
          ~solver:"test-oom" (toy_cells 6)
      in
      (* The OOM cell degrades to an undecided row (re-run on resume);
         every other cell still gets its verdict. *)
      (match List.find_opt (fun r -> r.Dist.r_key = "cell-00") rows with
      | Some r ->
          Alcotest.(check bool) "OOM cell undecided" false r.Dist.r_decided
      | None -> Alcotest.fail "OOM cell missing from rows");
      Alcotest.(check int) "only the OOM cell is undecided" 5
        (List.length (List.filter (fun r -> r.Dist.r_decided) rows));
      if stats.Dist.d_gave_up < 1 then
        Alcotest.failf "expected OOM give-ups, saw %d" stats.Dist.d_gave_up)

(* The in-process path ([workers:1]) runs the same policy over raised
   exceptions: steady succeeds at once, flaky after two crashes, doomed
   exhausts the policy and degrades to an undecided row that a resume
   solves again; an OOM under [retry_oom = false] is never retried. *)
let test_inprocess_supervision () =
  with_tmp "inproc" (fun path ->
      let attempts = Hashtbl.create 8 in
      let healed = ref false in
      let crashes = function "flaky" -> 2 | "doomed" -> max_int | _ -> 0 in
      Dist.register "test-inproc" (fun ~arg:_ key ->
          let a = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts key) in
          Hashtbl.replace attempts key a;
          if a <= crashes key && not !healed then failwith (key ^ ": injected crash");
          (true, key ^ "-done"));
      let cells =
        List.map
          (fun k -> { Dist.cell_key = k; cell_hint = 0. })
          [ "steady"; "flaky"; "doomed" ]
      in
      let rows, stats =
        run_ok ~workers:1 ~policy:fast_policy ~resume:false ~journal:path
          ~solver:"test-inproc" cells
      in
      Alcotest.(check matrix) "steady and flaky decided, doomed undecided"
        [
          ("steady", true, "steady-done");
          ("flaky", true, "flaky-done");
          ("doomed", false, "");
        ]
        (rows_sig rows);
      Alcotest.(check (list int)) "attempts per cell" [ 1; 3; 3 ]
        (List.map (Hashtbl.find attempts) [ "steady"; "flaky"; "doomed" ]);
      Alcotest.(check int) "restarts" 4 stats.Dist.d_restarts;
      Alcotest.(check int) "give-ups" 1 stats.Dist.d_gave_up;
      healed := true;
      let rows, stats =
        run_ok ~workers:1 ~policy:fast_policy ~resume:true ~journal:path
          ~solver:"test-inproc" cells
      in
      Alcotest.(check int) "decided cells skipped on resume" 2 stats.Dist.d_skipped;
      Alcotest.(check int) "doomed dispatched again" 1 stats.Dist.d_dispatched;
      Alcotest.(check (option (triple string bool string))) "doomed solved on resume"
        (Some ("doomed", true, "doomed-done"))
        (List.find_opt (fun r -> r.Dist.r_key = "doomed") rows |> Option.map row_sig));
  with_tmp "inproc-oom" (fun path ->
      let runs = ref 0 in
      Dist.register "test-inproc-oom" (fun ~arg:_ _key ->
          incr runs;
          raise Out_of_memory);
      let policy = { fast_policy with Dist.retry_oom = false } in
      let rows, stats =
        run_ok ~workers:1 ~policy ~resume:false ~journal:path ~solver:"test-inproc-oom"
          (toy_cells 1)
      in
      Alcotest.(check int) "one attempt" 1 !runs;
      Alcotest.(check int) "no restarts" 0 stats.Dist.d_restarts;
      Alcotest.(check int) "gave up" 1 stats.Dist.d_gave_up;
      Alcotest.(check bool) "OOM cell undecided" false
        (List.for_all (fun r -> r.Dist.r_decided) rows))

(* ------------------------------------------------------------------ *)
(* Kill-a-worker-at-every-batch resume equivalence                     *)
(* ------------------------------------------------------------------ *)

(* Serial reference, then: SIGKILL worker (k mod 2) after k acks (Abort
   mode kills the whole campaign, shards left on disk), resume with the
   full worker fleet, and demand the serial matrix bit-for-bit. Torn
   shard tails are layered on every third kill point. [proj] projects a
   row to its comparable signature — raw payload bytes for toy solves,
   decoded verdicts for real checks (whose payloads embed timings). *)
let kill_sweep ?(proj = row_sig) ?arg ~cells ~solver ~acks () =
  let reference =
    let path = tmp_path "sweep-ref" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let rows, _ = run_ok ?arg ~workers:1 ~resume:false ~journal:path ~solver cells in
        List.map proj rows)
  in
  for k = 1 to acks do
    with_tmp (Printf.sprintf "sweep-%d" k) (fun path ->
        let kill = { Dist.k_worker = k mod 2; k_after = k; k_mode = `Abort } in
        match
          Dist.run ~workers:2 ~batch:2 ~policy:fast_policy ~kill ?arg ~resume:false
            ~force:false ~journal:path ~solver cells
        with
        | Ok (rows, _) ->
            (* The doomed worker never reached k acks; the run completed. *)
            Alcotest.(check matrix)
              (Printf.sprintf "kill@%d never fired: matrix intact" k)
              reference (List.map proj rows)
        | Error _ ->
            (* Shards survive the abort for the resume to merge. *)
            let shard = Dist.worker_journal path (k mod 2) in
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d left the doomed worker's shard" k)
              true (Sys.file_exists shard);
            (if k mod 3 = 0 then
               (* The SIGKILL also tore the shard mid-append. *)
               match Persist.Journal.load shard with
               | Ok (entries, _) when entries <> [] ->
                   Persist.Journal.chop ~torn_bytes:9
                     ~keep:(List.length entries - 1)
                     shard
               | _ -> ());
            let rows, stats =
              run_ok ?arg ~workers:2 ~resume:true ~journal:path ~solver cells
            in
            Alcotest.(check matrix)
              (Printf.sprintf "kill@%d + resume equals serial" k)
              reference (List.map proj rows);
            if stats.Dist.d_skipped + stats.Dist.d_dispatched < List.length cells then
              Alcotest.failf "kill@%d: %d skipped + %d dispatched < %d cells" k
                stats.Dist.d_skipped stats.Dist.d_dispatched (List.length cells);
            (* Merged shards are swept up. *)
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d resume swept the shards" k)
              false (Sys.file_exists shard))
  done

let test_kill_sweep_fast () =
  kill_sweep ~cells:(toy_cells 10) ~solver:"test-toy-matrix" ~acks:8 ()

(* Real check payloads embed solver statistics (timings), so two runs of
   the same cell are not byte-identical; the matrix identity is over the
   decoded verdicts. *)
let verdict_sig (r : Dist.row) =
  let verdict =
    match Qed.Checks.decode_report r.Dist.r_payload with
    | Some rep -> Format.asprintf "%a" Qed.Checks.pp_verdict rep.Qed.Checks.verdict
    | None -> if r.Dist.r_payload = "" then "<no payload>" else "<undecodable>"
  in
  (r.Dist.r_key, r.Dist.r_decided, verdict)

let test_real_matrix_dist_equals_serial () =
  (* The unmutated design and its first three mutants: a key subset of
     the solver's table, as the bench's reduced suites submit. *)
  let arg, tasks = real_tasks "hamming74" in
  let cells = cells_of (List.filteri (fun i _ -> i < 4) tasks) in
  let serial =
    with_tmp "real-serial" (fun path ->
        let rows, _ =
          run_ok ~arg ~workers:1 ~resume:false ~journal:path ~solver:Matrix.solver cells
        in
        List.map verdict_sig rows)
  in
  with_tmp "real-dist" (fun path ->
      let rows, stats =
        run_ok ~arg ~workers:2 ~resume:false ~journal:path ~solver:Matrix.solver cells
      in
      Alcotest.(check matrix) "2-worker matrix equals serial" serial
        (List.map verdict_sig rows);
      Alcotest.(check int) "two workers used" 2 stats.Dist.d_workers;
      Alcotest.(check int) "every cell dispatched" (List.length cells)
        stats.Dist.d_dispatched)

let test_real_kill_sweep_full_matrix () =
  match Sys.getenv_opt "GQED_FULL_MATRIX" with
  | Some ("1" | "true") ->
      let arg, tasks = real_tasks "hamming74" in
      let cells = cells_of tasks in
      kill_sweep ~proj:verdict_sig ~arg ~cells ~solver:Matrix.solver
        ~acks:(List.length cells) ()
  | _ -> ()

(* The bench's D1 submits the keys of its reduced suites (the correct
   design plus [per_operator_limit:1] mutants) to the "campaign" solver,
   which only knows the full [Mutation.mutants] table of each design. *)
let test_d1_keys_resolve () =
  let names = [ "hamming74"; "graycodec"; "seqdet"; "rle"; "maxtrack" ] in
  let keys =
    match Matrix.tasks { (Matrix.default Qed.Checks.Gqed) with Matrix.names } with
    | Ok tasks -> List.map (fun t -> t.Matrix.t_cell.Dist.cell_key) tasks
    | Error msg -> Alcotest.failf "matrix tasks: %s" msg
  in
  List.iter
    (fun name ->
      let e = Designs.Registry.find name in
      let bound = e.Designs.Entry.rec_bound in
      List.iter
        (fun d ->
          let key = Qed.Checks.campaign_key Qed.Checks.Gqed d e.Designs.Entry.iface ~bound in
          if not (List.mem key keys) then
            Alcotest.failf "%s: D1 cell %s missing from the campaign table" name key)
        (e.Designs.Entry.design
        :: List.map snd (Mutation.mutants ~per_operator_limit:1 e.Designs.Entry.design)))
    names

(* A journaled single check is a one-task [Matrix.run]: the first run
   solves and journals it, a resume serves the same report warm — the
   counterexample witness included, which --waveform/--vcd print. *)
let test_one_task_run_resumes_warm () =
  with_tmp "one-task" (fun path ->
      let config = { (Matrix.default Qed.Checks.Gqed) with Matrix.names = [ "accum" ] } in
      let task =
        match Matrix.tasks config with
        | Ok tasks -> (
            match
              List.find_opt
                (fun t -> t.Matrix.t_mutant = Some "hidden_state:next(acc):0")
                tasks
            with
            | Some t -> t
            | None -> Alcotest.fail "accum mutant hidden_state:next(acc):0 missing")
        | Error msg -> Alcotest.failf "matrix tasks: %s" msg
      in
      let run ~resume =
        match
          Matrix.run ~config ~workers:1 ~checkpoint:(Some path) ~resume ~force:false [ task ]
        with
        | Ok ([ r ], stats) -> (
            match Qed.Checks.decode_report r.Dist.r_payload with
            | Some { Qed.Checks.verdict = Qed.Checks.Fail f; _ } ->
                (r.Dist.r_warm, stats, f.Qed.Checks.witness.Bmc.w_length)
            | _ -> Alcotest.fail "mutant not detected")
        | Ok (rows, _) -> Alcotest.failf "%d rows for one task" (List.length rows)
        | Error msg -> Alcotest.failf "matrix run: %s" msg
      in
      let warm, stats, length = run ~resume:false in
      Alcotest.(check bool) "first run cold" false warm;
      Alcotest.(check int) "journaled" 1
        stats.Dist.d_campaign.Persist.Campaign.c_appended;
      let warm, stats, length' = run ~resume:true in
      Alcotest.(check bool) "resume warm" true warm;
      Alcotest.(check int) "one check skipped" 1
        stats.Dist.d_campaign.Persist.Campaign.c_hits;
      Alcotest.(check int) "nothing dispatched" 0 stats.Dist.d_dispatched;
      Alcotest.(check int) "witness length intact" length length')

let suite =
  [
    Alcotest.test_case "merge: overlap, precedence, LWW" `Quick
      test_merge_overlap_and_precedence;
    Alcotest.test_case "merge: torn shard tail recovered" `Quick
      test_merge_torn_shard_tail;
    Alcotest.test_case "merge: stale Unknown never downgrades" `Quick
      test_merge_stale_unknown_never_downgrades;
    Alcotest.test_case "hardest-first queue order" `Quick test_hardest_first_order;
    Alcotest.test_case "warm rows on repeat run" `Quick test_warm_rows_on_repeat;
    Alcotest.test_case "unregistered solver rejected" `Quick
      test_unregistered_solver_rejected;
    Alcotest.test_case "worker crash is restarted" `Quick test_worker_crash_restarted;
    Alcotest.test_case "OOM not retried under policy" `Quick
      test_oom_not_retried_by_policy;
    Alcotest.test_case "in-process supervision (workers:1)" `Quick
      test_inprocess_supervision;
    Alcotest.test_case "kill-worker-at-every-batch sweep (fast)" `Slow
      test_kill_sweep_fast;
    Alcotest.test_case "real matrix: dist equals serial" `Slow
      test_real_matrix_dist_equals_serial;
    Alcotest.test_case "real kill sweep (full matrix)" `Slow
      test_real_kill_sweep_full_matrix;
    Alcotest.test_case "D1 cell keys resolve in the campaign table" `Quick
      test_d1_keys_resolve;
    Alcotest.test_case "one-task matrix run resumes warm" `Quick
      test_one_task_run_resumes_warm;
  ]
