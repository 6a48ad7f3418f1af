(* Experiment harness: regenerates every table and figure of the
   (reconstructed) evaluation — see DESIGN.md section 4 and EXPERIMENTS.md
   for the experiment index and the mapping to the paper's claims.

   Usage:
     dune exec bench/main.exe                       # all experiments
     dune exec bench/main.exe -- t2 f1              # a subset, by id
     dune exec bench/main.exe -- --jobs 4 t2        # fan tasks over 4 domains
     dune exec bench/main.exe -- --json BENCH.json  # machine-readable report
     dune exec bench/main.exe -- -help              # every flag

   Experiment ids: t1 t2 t3 t4 t5 a1 a2 a3 s1 f1 f2 f3 rob p1 r2 dist obs
   micro.

   Each experiment is a function from the run's [env] (the parsed flags,
   the run's verdict tally) to an [outcome]: the
   report blocks it fills and its gates. A gate is a named count of
   something that must never happen — a verdict flip between two lanes
   that must agree, a malformed trace — and any nonzero gate fails the run
   (exit 1) after the report is written. The lane-vs-lane experiments (s1
   off/on, rob against its fault-free reference, p1 single/portfolio, obs
   untraced/traced, r2 full/resumed, dist serial/distributed/resumed) all
   count flips with [Report.lane_flips]. Blocks of experiments that did not run
   keep their defaults, so every report has the same keys.

   --seed N varies which kill points the r2 and dist crash simulations
   pick (verdicts are seed-independent).

   --trace FILE / --metrics FILE / --trace-format ndjson|chrome enable
   the Obs layer for the whole run and write the merged span trace and
   metrics snapshot on completion. --json, --trace and --metrics refuse
   to overwrite an existing file unless --force.

   --portfolio N / --no-share configure p1's portfolio lane (default 4
   workers, clamped to the machine's domain count). --workers N / --batch
   M size dist's worker-process lane (default: up to 4, at least 2), and
   --max-restarts / --backoff SEC / --no-retry-oom its restart policy (the
   same knobs `gqed campaign` exposes). --designs d1,d2 restricts s1, p1,
   r2 and dist to the named designs; --no-simplify runs the solver-cost
   experiments (t3, f1, a2) with the formula-shrinking pipeline off.

   --timeout SEC and --max-conflicts N put a per-query budget on every
   check the harness runs; a check that exhausts it reports "unknown"
   instead of a verdict. --no-escalate turns off the Bmc.Escalate retry
   ladder that otherwise regrows exhausted budgets until the check
   decides. Funnel checks run [Matrix.check] and the r2/dist campaign
   cells the "campaign" solver's [Matrix.check_cell], all under one
   [Matrix.config]; under --timeout a cell's whole check is also capped
   by a watchdog. A wall-clock --timeout makes verdicts depend on
   timing, so every lane-vs-lane gate (s1, p1, obs, rob, r2, dist) may
   then count an unknown on one lane only as a flip. The run exits 3
   when any verdict stayed unknown and no gate failed.

   Parallelism never changes any verdict or table cell: every task builds
   its own engine and results are reassembled in input order (see
   lib/par/DESIGN.md), so --jobs N only changes wall-clock time. *)

module Entry = Designs.Entry
module Registry = Designs.Registry
module Checks = Qed.Checks
module Theory = Qed.Theory
module R = Bench_report.Report
module Crv = Testbench.Crv
module Productivity = Testbench.Productivity

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* The run: flags, verdict tally, experiment outcomes.                   *)

type config = {
  jobs : int;
  pipeline : Bmc.simplify_config; (* --no-simplify: t3, f1 and a2 only *)
  solve : Matrix.config; (* --timeout / --max-conflicts / --no-escalate *)
  portfolio : int;
  share : bool;
  workers : int; (* 0: auto *)
  batch : int;
  policy : Dist.restart_policy;
  designs : string list option;
  seed : int;
  force : bool;
  json : string option;
  trace : string option;
  metrics : string option;
  trace_format : [ `Ndjson | `Chrome ];
}

(* Counted over every check the harness funnels through [record]. Atomic
   because checks run on worker domains under Par fan-outs. *)
type tally = { unknown : int Atomic.t; escalations : int Atomic.t }

type t2_row = {
  r_name : string;
  r_interfering : bool;
  r_mutants : int;
  r_crv : int;
  r_aqed : int;
  r_aqed_false_alarm : bool;
  r_gqed : int;
  r_gqed_cex : int list; (* witness lengths of G-QED detections *)
  r_crv_cycles : int list; (* cycles-to-detection of CRV detections *)
  r_escapes_caught : int; (* CRV missed, G-QED flow caught *)
}

type env = {
  cfg : config;
  tally : tally;
  t2 : t2_row list Lazy.t; (* the T2 matrix, shared by t2 and f3 *)
}

type gate = { count : int; what : string }

type outcome = {
  blocks : (string * R.json) list; (* top-level report blocks, by key *)
  gates : gate list;
}

let nothing = { blocks = []; gates = [] }

let record env report =
  (match report.Checks.verdict with
  | Checks.Unknown _ -> Atomic.incr env.tally.unknown
  | Checks.Pass _ | Checks.Fail _ -> ());
  let extra = List.length report.Checks.attempts - 1 in
  if extra > 0 then ignore (Atomic.fetch_and_add env.tally.escalations extra);
  report

(* Every experiment's checks funnel through here so the budget flags and
   escalation policy apply uniformly: [Matrix.check] under the run's solve
   config with the experiment's technique and pipeline. With no budget set
   this is exactly the direct check: escalation under no limits is one
   attempt. *)
let check env ?(simplify = Bmc.default_simplify) ?(mono = false) technique design iface
    ~bound =
  record env
    (Matrix.check { env.cfg.solve with technique; simplify; mono } design iface ~bound)

let par_map env f xs = Par.map ~jobs:env.cfg.jobs f xs

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let passed report =
  match report.Checks.verdict with
  | Checks.Pass _ -> true
  | Checks.Fail _ | Checks.Unknown _ -> false

(* Detection means a concrete counterexample: an Unknown is neither a pass
   nor a detection, so tables never credit a bug to an exhausted budget. *)
let failed report =
  match report.Checks.verdict with
  | Checks.Fail _ -> true
  | Checks.Pass _ | Checks.Unknown _ -> false

let cex_length report =
  match report.Checks.verdict with
  | Checks.Fail f -> Some f.Checks.witness.Bmc.w_length
  | Checks.Pass _ | Checks.Unknown _ -> None

let verdict_key report =
  match report.Checks.verdict with
  | Checks.Pass n -> Printf.sprintf "pass@%d" n
  | Checks.Fail f ->
      Printf.sprintf "fail:%s@%d"
        (Checks.failure_kind_to_string f.Checks.kind)
        f.Checks.witness.Bmc.w_length
  | Checks.Unknown u ->
      Printf.sprintf "unknown:%s@%d"
        (Sat.Solver.reason_to_string u.Checks.u_reason)
        u.Checks.u_bound

let short_verdict report =
  match report.Checks.verdict with
  | Checks.Pass _ -> "pass"
  | Checks.Fail _ -> "FAIL"
  | Checks.Unknown _ -> "unknown"

let class_name e = if e.Entry.interfering then "interfering" else "non-interf."

(* Shared mutant suites (one mutant per operator so the harness stays fast). *)
let mutant_suite e = Mutation.mutants ~per_operator_limit:1 e.Entry.design

(* The correct design plus its mutant suite, each labelled "correct" or
   "operator:target" — the cells of every design x mutant matrix. *)
let matrix_cells e =
  ("correct", e.Entry.design)
  :: List.map
       (fun (m, mutant) ->
         ( Printf.sprintf "%s:%s" (Mutation.operator_to_string m.Mutation.operator)
             m.Mutation.target,
           mutant ))
       (mutant_suite e)

(* The registry entries named by --designs, else those named by [default]
   (else all), in registry order. An unknown name is a usage error. *)
let entries ?default env =
  Option.iter
    (List.iter (fun n ->
         if not (List.exists (fun e -> e.Entry.name = n) Registry.all) then begin
           Printf.eprintf "bench: --designs: unknown design %s\n" n;
           exit 2
         end))
    env.cfg.designs;
  match (env.cfg.designs, default) with
  | Some names, _ | None, Some names ->
      List.filter (fun e -> List.mem e.Entry.name names) Registry.all
  | None, None -> Registry.all

(* One solver-cost row of the report's "solver" block (t3, f1). *)
let solver_row ~design ~bound (report, dt) =
  let st = report.Checks.sat_stats and sp = report.Checks.simp in
  let pre = sp.Bmc.Engine.ss_pre in
  R.(
    Row
      [
        ("design", Str design);
        ("bound", Int bound);
        ("verdict", Str (verdict_key report));
        ("time_s", Num (3, dt));
        ("cnf_vars", Int report.Checks.cnf_vars);
        ("cnf_clauses", Int report.Checks.cnf_clauses);
        ("conflicts", Int st.Sat.Solver.conflicts);
        ("decisions", Int st.Sat.Solver.decisions);
        ("propagations", Int st.Sat.Solver.propagations);
        ("restarts", Int st.Sat.Solver.restarts);
        ("learnt_clauses", Int st.Sat.Solver.learnt_clauses);
        ("clauses_exported", Int st.Sat.Solver.clauses_exported);
        ("clauses_imported", Int st.Sat.Solver.clauses_imported);
        ( "simp",
          Row
            [
              ("queries", Int sp.Bmc.Engine.ss_queries);
              ("coi_regs_before", Int sp.Bmc.Engine.ss_coi_regs_before);
              ("coi_regs_after", Int sp.Bmc.Engine.ss_coi_regs_after);
              ("rewrite_hits", Int sp.Bmc.Engine.ss_rewrite_hits);
              ("clauses_emitted", Int sp.Bmc.Engine.ss_clauses_emitted);
              ("clauses_plain", Int sp.Bmc.Engine.ss_clauses_plain);
              ("single_pol_nodes", Int sp.Bmc.Engine.ss_single_pol);
              ("pre_subsumed", Int pre.Sat.Solver.pre_subsumed);
              ("pre_strengthened", Int pre.Sat.Solver.pre_strengthened);
              ("pre_eliminated", Int pre.Sat.Solver.pre_eliminated);
              ("pre_units", Int pre.Sat.Solver.pre_units);
              ("t_rewrite_s", Num (3, sp.Bmc.Engine.ss_t_rewrite));
              ("t_cnf_s", Num (3, sp.Bmc.Engine.ss_t_cnf));
            ] );
      ])

(* ------------------------------------------------------------------ *)
(* T1: benchmark suite characteristics.                                 *)

let t1 _env =
  header "T1  Benchmark suite characteristics";
  Printf.printf "%-12s %-12s %6s %6s %6s %8s %6s\n" "design" "class" "state" "input"
    "nodes" "mutants" "bound";
  List.iter
    (fun e ->
      let state_bits, input_bits, nodes = Rtl.stats e.Entry.design in
      Printf.printf "%-12s %-12s %6d %6d %6d %8d %6d\n" e.Entry.name (class_name e)
        state_bits input_bits nodes
        (List.length (mutant_suite e))
        e.Entry.rec_bound)
    Registry.all;
  nothing

(* ------------------------------------------------------------------ *)
(* T2: bug-detection matrix (the headline table).                       *)

(* One task per matrix cell (design x mutant) plus one false-alarm task per
   design; the whole matrix fans out over domains at once and the rows are
   reassembled in registry order, so the printed table is independent of
   [jobs]. *)
type t2_cell = {
  cc_crv_detected : bool;
  cc_crv_cycles : int;
  cc_aqed_hit : bool;
  cc_gqed_hit : bool;
  cc_gqed_cex : int option;
}

let t2_compute env =
  let tasks =
    List.concat_map
      (fun e ->
        `Alarm e :: List.map (fun (_m, mutant) -> `Cell (e, mutant)) (mutant_suite e))
      Registry.all
  in
  let results =
    par_map env
      (function
        | `Alarm e ->
            Printf.eprintf "  [t2] %s...\n%!" e.Entry.name;
            (* Does A-QED false-alarm on the correct design? (It does, on
               every interfering design — the paper's motivation.) *)
            `Alarm_r
              (e.Entry.interfering
              && failed
                   (check env Checks.Aqed e.Entry.design e.Entry.iface
                      ~bound:e.Entry.rec_bound))
        | `Cell (e, mutant) ->
            let bound = e.Entry.rec_bound in
            let crv =
              Crv.run ~design_override:mutant e
                { Crv.seed = 1; max_transactions = 500; idle_prob = 0.2 }
            in
            (* A-QED only applies to non-interfering designs; on interfering
               ones it already rejects the bug-free design. *)
            let aqed_hit =
              (not e.Entry.interfering)
              && failed (check env Checks.Aqed mutant e.Entry.iface ~bound)
            in
            let g = check env Checks.Gqed_flow mutant e.Entry.iface ~bound in
            `Cell_r
              {
                cc_crv_detected = crv.Crv.detected;
                cc_crv_cycles = crv.Crv.cycles_run;
                cc_aqed_hit = aqed_hit;
                cc_gqed_hit = failed g;
                cc_gqed_cex = cex_length g;
              })
      tasks
  in
  (* Tasks and results align by index; reassemble per-design rows. *)
  let combined = List.combine tasks results in
  List.map
    (fun e ->
      let aqed_false_alarm =
        List.exists
          (function `Alarm e', `Alarm_r fa -> e' == e && fa | _ -> false)
          combined
      in
      let cells =
        List.filter_map
          (function `Cell (e', _), `Cell_r c when e' == e -> Some c | _ -> None)
          combined
      in
      let count f = List.fold_left (fun acc c -> if f c then acc + 1 else acc) 0 cells in
      {
        r_name = e.Entry.name;
        r_interfering = e.Entry.interfering;
        r_mutants = List.length cells;
        r_crv = count (fun c -> c.cc_crv_detected);
        r_aqed = count (fun c -> c.cc_aqed_hit);
        r_aqed_false_alarm = aqed_false_alarm;
        r_gqed = count (fun c -> c.cc_gqed_hit);
        r_gqed_cex = List.filter_map (fun c -> c.cc_gqed_cex) cells;
        r_crv_cycles =
          List.filter_map
            (fun c -> if c.cc_crv_detected then Some c.cc_crv_cycles else None)
            cells;
        r_escapes_caught = count (fun c -> c.cc_gqed_hit && not c.cc_crv_detected);
      })
    Registry.all

let t2 env =
  header "T2  Bug detection per design: CRV baseline vs A-QED vs G-QED";
  Printf.printf
    "(mutant suites: one mutant per operator; CRV budget 500 transactions)\n";
  Printf.printf "%-12s %8s %12s %14s %10s\n" "design" "mutants" "CRV" "A-QED" "G-QED flow";
  let rows = Lazy.force env.t2 in
  List.iter
    (fun row ->
      let aqed_str =
        if row.r_interfering then
          if row.r_aqed_false_alarm then "false-alarm" else "n/a"
        else Printf.sprintf "%d/%d" row.r_aqed row.r_mutants
      in
      Printf.printf "%-12s %8d %12s %14s %10s\n" row.r_name row.r_mutants
        (Printf.sprintf "%d/%d" row.r_crv row.r_mutants)
        aqed_str
        (Printf.sprintf "%d/%d" row.r_gqed row.r_mutants))
    rows;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Printf.printf "%-12s %8d %12d %14s %10d\n" "TOTAL"
    (total (fun r -> r.r_mutants))
    (total (fun r -> r.r_crv))
    "-"
    (total (fun r -> r.r_gqed));
  Printf.printf
    "\nBugs that ESCAPED the 500-transaction CRV flow but were caught by the\n\
     G-QED flow (the abstract's headline class): %d\n"
    (total (fun r -> r.r_escapes_caught));
  Printf.printf
    "\nNotes: A-QED false-alarms on every correct interfering design (its FC\n\
     property does not hold there), which is the paper's motivation for G-QED.\n\
     G-QED escapes are uniform bugs (e.g. stuck architectural registers) that\n\
     no self-consistency technique can see without a specification; the\n\
     golden-model CRV baseline catches those but pays for the model (T4).\n";
  nothing

(* ------------------------------------------------------------------ *)
(* T3: G-QED cost on the correct designs (runtime, CNF, conflicts).     *)

let t3 env =
  header "T3  G-QED verification cost on correct designs";
  Printf.printf "%-12s %6s %9s %9s %10s %9s %8s\n" "design" "bound" "vars" "clauses"
    "conflicts" "verdict" "time(s)";
  (* Per-design rows fan out over domains; printing stays in registry order. *)
  let rows =
    Par.map_timed ~jobs:env.cfg.jobs
      (fun e ->
        check env ~simplify:env.cfg.pipeline Checks.Gqed e.Entry.design e.Entry.iface
          ~bound:e.Entry.rec_bound)
      Registry.all
  in
  List.iter2
    (fun e (report, dt) ->
      Printf.printf "%-12s %6d %9d %9d %10d %9s %8.2f\n%!" e.Entry.name
        e.Entry.rec_bound report.Checks.cnf_vars report.Checks.cnf_clauses
        report.Checks.sat_stats.Sat.Solver.conflicts (short_verdict report) dt)
    Registry.all rows;
  let json =
    List.map2
      (fun e row -> solver_row ~design:e.Entry.name ~bound:e.Entry.rec_bound row)
      Registry.all rows
  in
  { nothing with blocks = [ ("solver", R.Arr json) ] }

(* ------------------------------------------------------------------ *)
(* T4: productivity model (the 370 -> 21 person-days claim).            *)

let t4 _env =
  header "T4  Verification productivity (effort model; see EXPERIMENTS.md)";
  Printf.printf "%-12s %15s %15s %8s\n" "design" "conventional" "G-QED flow" "ratio";
  let mmio = Registry.find "mmio_engine" in
  let kappa = Productivity.scale_to_industrial mmio in
  List.iter
    (fun e ->
      let conv = (Productivity.conventional e).Productivity.total_days *. kappa in
      let gq = (Productivity.gqed e).Productivity.total_days *. kappa in
      Printf.printf "%-12s %12.0f pd %12.0f pd %7.1fx%s\n" e.Entry.name conv gq
        (conv /. gq)
        (if e.Entry.name = "mmio_engine" then "   <- case study (paper: 370 vs 21 pd, 18x)"
         else ""))
    Registry.all;
  Printf.printf "\nmmio_engine breakdown (model units):\n";
  Printf.printf "  conventional: %s\n"
    (Format.asprintf "%a" Productivity.pp_effort (Productivity.conventional mmio));
  Printf.printf "  G-QED flow:   %s\n"
    (Format.asprintf "%a" Productivity.pp_effort (Productivity.gqed mmio));
  nothing

(* ------------------------------------------------------------------ *)
(* T5: soundness / completeness validation.                             *)

let t5 env =
  header "T5  Theory validation (bounded-exhaustive + per-witness soundness)";
  let small = [ "accum"; "maxtrack"; "rle"; "seqdet"; "histogram" ] in
  Printf.printf "%-12s %24s %8s %8s\n" "design" "brute-force table" "G-QED" "agree";
  par_map env
    (fun name ->
      let e = Registry.find name in
      let alphabet =
        Theory.default_alphabet ~operand_values:[ 0; 1; 3 ] e.Entry.design e.Entry.iface
      in
      let table =
        Theory.transaction_table e.Entry.design e.Entry.iface ~alphabet ~depth:4
      in
      let report = check env Checks.Gqed e.Entry.design e.Entry.iface ~bound:6 in
      (name, table, passed report))
    small
  |> List.iter (fun (name, table, pass) ->
         let table_str =
           match table with
           | `Deterministic n -> Printf.sprintf "deterministic (%d keys)" n
           | `Conflict _ -> "CONFLICT"
         in
         let agree =
           match (table, pass) with
           | `Deterministic _, true | `Conflict _, false -> "yes"
           | _ -> "NO"
         in
         Printf.printf "%-12s %24s %8s %8s\n%!" name table_str
           (if pass then "pass" else "fail")
           agree);
  Printf.printf "\nInjected interference (hidden-output mutants):\n";
  par_map env
    (fun name ->
      let e = Registry.find name in
      match
        List.find_map
          (fun (m, d) ->
            if m.Mutation.operator = Mutation.Hidden_output then Some d else None)
          (Mutation.mutants e.Entry.design)
      with
      | None -> None
      | Some mutant ->
          let alphabet =
            Theory.default_alphabet ~operand_values:[ 0; 1; 3 ] mutant e.Entry.iface
          in
          let table = Theory.transaction_table mutant e.Entry.iface ~alphabet ~depth:4 in
          let report = check env Checks.Gqed mutant e.Entry.iface ~bound:6 in
          let genuine =
            match report.Checks.verdict with
            | Checks.Fail f -> Theory.witness_is_genuine mutant e.Entry.iface f
            | Checks.Pass _ | Checks.Unknown _ -> false
          in
          Some (name, table, passed report, genuine))
    small
  |> List.iter (function
       | None -> ()
       | Some (name, table, pass, genuine) ->
           Printf.printf "  %-12s brute-force=%-8s gqed=%-5s witness-genuine=%b\n%!" name
             (match table with `Conflict _ -> "conflict" | `Deterministic _ -> "det")
             (if pass then "pass" else "fail")
             genuine);
  (* Every G-QED counterexample found on three mutant suites replays as a
     genuine inconsistency. One task per (design, mutant) pair. *)
  let pairs =
    List.concat_map
      (fun name ->
        let e = Registry.find name in
        List.map (fun (_m, mutant) -> (e, mutant)) (mutant_suite e))
      [ "accum"; "maxtrack"; "seqdet" ]
  in
  let verdicts =
    par_map env
      (fun (e, mutant) ->
        let report =
          check env Checks.Gqed mutant e.Entry.iface ~bound:e.Entry.rec_bound
        in
        match report.Checks.verdict with
        | Checks.Fail f -> Some (Theory.witness_is_genuine mutant e.Entry.iface f)
        | Checks.Pass _ | Checks.Unknown _ -> None)
      pairs
  in
  let total = List.length (List.filter Option.is_some verdicts) in
  let genuine = List.length (List.filter (fun v -> v = Some true) verdicts) in
  Printf.printf "\nWitness soundness: %d/%d reported counterexamples replay as genuine\n"
    genuine total;
  nothing

(* ------------------------------------------------------------------ *)
(* A1: ablation — G-QED with vs without the post-state conjunct.        *)

let a1 env =
  header "A1  Ablation: post-state conjunct (hidden-state mutants of arch regs)";
  Printf.printf "%-12s %22s %22s\n" "design" "G-QED(full)" "G-QED(out-only)";
  par_map env
    (fun e ->
      if not e.Entry.interfering then None
      else
        match
          List.find_map
            (fun (m, d) ->
              if
                m.Mutation.operator = Mutation.Hidden_state
                && List.exists
                     (fun r -> "next(" ^ r ^ ")" = m.Mutation.target)
                     e.Entry.iface.Qed.Iface.arch_regs
              then Some d
              else None)
            (Mutation.mutants e.Entry.design)
        with
        | None -> None
        | Some mutant ->
            let full =
              check env Checks.Gqed mutant e.Entry.iface ~bound:e.Entry.rec_bound
            in
            let out_only =
              check env Checks.Gqed_output_only mutant e.Entry.iface
                ~bound:e.Entry.rec_bound
            in
            Some (e.Entry.name, full, out_only))
    Registry.all
  |> List.iter (function
       | None -> ()
       | Some (name, full, out_only) ->
           let show r =
             match r.Checks.verdict with
             | Checks.Pass _ -> "missed"
             | Checks.Fail f -> "caught:" ^ Checks.failure_kind_to_string f.Checks.kind
             | Checks.Unknown _ -> "unknown"
           in
           Printf.printf "%-12s %22s %22s\n%!" name (show full) (show out_only));
  nothing

(* ------------------------------------------------------------------ *)
(* A2: ablation — incremental vs monolithic BMC.                        *)

let a2 env =
  header "A2  Ablation: incremental vs monolithic BMC (accum reachability)";
  let e = Registry.find "accum" in
  let assumes =
    [
      Expr.ult (Expr.var "x" 4) (Expr.const_int ~width:4 2);
      Expr.eq (Expr.var "cmd" 1) (Expr.const_int ~width:1 0);
    ]
  in
  let invariant = Expr.ne (Expr.var "acc" 4) (Expr.const_int ~width:4 15) in
  let simplify = env.cfg.pipeline and limits = Matrix.limits env.cfg.solve in
  Printf.printf "%-8s %14s %14s %10s\n" "depth" "incremental(s)" "monolithic(s)" "result";
  List.iter
    (fun depth ->
      let (r1, _), t_inc =
        time (fun () ->
            Bmc.check_safety ~assumes ~simplify ~limits ~design:e.Entry.design ~invariant
              ~depth ())
      in
      let (r2, _), t_mono =
        time (fun () ->
            Bmc.check_safety_mono ~assumes ~simplify ~limits ~design:e.Entry.design
              ~invariant ~depth ())
      in
      let result, same =
        match (r1, r2) with
        | Bmc.Holds a, Bmc.Holds b -> (Printf.sprintf "holds<=%d" a, a = b)
        | Bmc.Violated a, Bmc.Violated b ->
            (Printf.sprintf "cex@%d" a.Bmc.w_length, a.Bmc.w_length = b.Bmc.w_length)
        | (Bmc.Unknown u, _ | _, Bmc.Unknown u) ->
            (* Not a mismatch: one side gave up under the --timeout or
               --max-conflicts budget, so there is nothing to compare. *)
            (Printf.sprintf "unknown:%s" (Sat.Solver.reason_to_string u.Bmc.un_reason), true)
        | _ -> ("DISAGREE", false)
      in
      Printf.printf "%-8d %14.3f %14.3f %10s%s\n%!" depth t_inc t_mono result
        (if same then "" else "  MISMATCH"))
    [ 4; 8; 12; 16 ];
  nothing

(* ------------------------------------------------------------------ *)
(* A3: ablation — monolithic vs decomposed verification (A-QED^2).      *)

let a3 env =
  header "A3  Ablation: monolithic vs decomposed verification (peak_accum)";
  let e = Registry.find "peak_accum" in
  let mono, t_mono =
    time (fun () ->
        check env Checks.Gqed e.Entry.design e.Entry.iface ~bound:e.Entry.rec_bound)
  in
  let dec, t_dec =
    time (fun () ->
        Qed.Decompose.check_all Designs.Peak_accum.decomposition ~bound:e.Entry.rec_bound)
  in
  Printf.printf "monolithic G-QED:   %-10s %6.2fs  (%d vars, %d clauses)\n"
    (short_verdict mono) t_mono mono.Checks.cnf_vars mono.Checks.cnf_clauses;
  Printf.printf "decomposed (A-QED^2): %-8s %6.2fs  (%d sub-accelerators)\n"
    (if dec.Qed.Decompose.all_pass then "pass" else "FAIL")
    t_dec
    (List.length dec.Qed.Decompose.results);
  (* Bug localization: seed a mux bug into the tracker half of the
     composition; the decomposition finds it in the right sub. *)
  let buggy_sub =
    List.find_map
      (fun (m, d) ->
        if m.Mutation.operator = Mutation.Ite_flip then Some d else None)
      (Mutation.mutants (Registry.find "maxtrack").Entry.design)
  in
  (match buggy_sub with
  | None -> ()
  | Some buggy -> (
      let subs =
        List.map
          (fun sub ->
            if sub.Qed.Decompose.sub_name = "maxtrack" then
              { sub with Qed.Decompose.sub_design = buggy }
            else sub)
          Designs.Peak_accum.decomposition
      in
      let r = Qed.Decompose.check_all subs ~bound:e.Entry.rec_bound in
      match Qed.Decompose.first_failure r with
      | Some (name, f) ->
          Printf.printf "seeded tracker bug localized to sub-accelerator %s (%s)\n" name
            (Checks.failure_kind_to_string f.Checks.kind)
      | None -> Printf.printf "seeded bug NOT localized\n"));
  nothing

(* ------------------------------------------------------------------ *)
(* S1: formula-shrinking pipeline — per-stage ablation and the           *)
(* off-vs-on design x mutant matrix.                                     *)

let simplify_block ?(geo = nan) ?(mismatches = 0) ?(matrix = []) ?(ablation = []) () =
  R.(
    Obj
      [
        ("geo_mean_clause_reduction", Num (4, geo));
        ("verdict_mismatches", Int mismatches);
        ("matrix", Arr matrix);
        ("ablation", Arr ablation);
      ])

let s1 env =
  header "S1  Formula-shrinking pipeline: stage ablation + off-vs-on matrix";
  let entries = entries env in
  let stages =
    [
      ("off", Bmc.no_simplify);
      ("coi", { Bmc.no_simplify with Bmc.sc_coi = true });
      ("rewrite", { Bmc.no_simplify with Bmc.sc_rewrite = true });
      ("pg", { Bmc.no_simplify with Bmc.sc_pg = true });
      ("cnf", { Bmc.no_simplify with Bmc.sc_cnf = true });
      ("all", Bmc.default_simplify);
    ]
  in
  (* Per-stage ablation on the correct designs, in monolithic mode (the
     mode where every stage of the pipeline is live — per-query compaction
     and BVE are no-ops on the incremental engine). "clauses" is the total
     number of clauses sent to the solver over all SAT queries of the
     check. Any stage changing the verdict is a verifier bug and fails the
     bench run. *)
  Printf.printf
    "per-stage clauses sent (correct designs, monolithic G-QED at the recommended bound):\n";
  Printf.printf "%-12s %-8s %9s %9s %10s %8s\n" "design" "stage" "vars" "clauses" "verdict"
    "time(s)";
  let ablation =
    par_map env
      (fun (e, (stage, conf)) ->
        let report, dt =
          time (fun () ->
              check env ~simplify:conf ~mono:true Checks.Gqed e.Entry.design e.Entry.iface
                ~bound:e.Entry.rec_bound)
        in
        (e.Entry.name, stage, report, dt))
      (List.concat_map (fun e -> List.map (fun s -> (e, s)) stages) entries)
  in
  (* Each stage's verdicts, keyed by design: every stage is a lane that must
     agree with the pipeline-off lane. *)
  let lane stage =
    List.filter_map
      (fun (n, s, r, _) -> if s = stage then Some (n, verdict_key r) else None)
      ablation
  in
  let off = lane "off" in
  let stage_flips = List.fold_left (fun n (s, _) -> n + R.lane_flips off (lane s)) 0 stages in
  let clauses r = r.Checks.simp.Bmc.Engine.ss_clauses_emitted in
  List.iter
    (fun (name, stage, report, dt) ->
      let vk = verdict_key report in
      Printf.printf "%-12s %-8s %9d %9d %10s %8.2f%s\n%!" name stage report.Checks.cnf_vars
        (clauses report) vk dt
        (if List.assoc_opt name off <> Some vk then "  VERDICT MISMATCH" else ""))
    ablation;
  (* Off-vs-on over the full design x mutant matrix (same mutant suites as
     T2), monolithic mode on both sides so the comparison is controlled.
     "Clauses" is again the total sent to the solver over the whole check;
     the per-case ratios feed the geo-mean reduction figure. *)
  let matrix =
    par_map env
      (fun (e, (label, design)) ->
        let off, t_off =
          time (fun () ->
              check env ~simplify:Bmc.no_simplify ~mono:true Checks.Gqed design
                e.Entry.iface ~bound:e.Entry.rec_bound)
        in
        let on, t_on =
          time (fun () ->
              check env ~mono:true Checks.Gqed design e.Entry.iface
                ~bound:e.Entry.rec_bound)
        in
        (e.Entry.name, label, off, on, t_off, t_on))
      (List.concat_map (fun e -> List.map (fun c -> (e, c)) (matrix_cells e)) entries)
  in
  let matrix_flips =
    let lane pick =
      List.map (fun (d, l, off, on, _, _) -> ((d, l), verdict_key (pick off on))) matrix
    in
    R.lane_flips (lane (fun off _ -> off)) (lane (fun _ on -> on))
  in
  let mismatches = stage_flips + matrix_flips in
  Printf.printf "\noff vs on over the design x mutant matrix (%d cases):\n"
    (List.length matrix);
  Printf.printf "%-12s %-28s %10s %10s %7s %10s\n" "design" "case" "cl(off)" "cl(on)"
    "saved" "verdict";
  List.iter
    (fun (design, label, off, on, _, _) ->
      let saved =
        if clauses off > 0 then
          Printf.sprintf "%.0f%%"
            (100.0 *. (1.0 -. (float_of_int (clauses on) /. float_of_int (clauses off))))
        else "-"
      in
      Printf.printf "%-12s %-28s %10d %10d %7s %10s%s\n%!" design label (clauses off)
        (clauses on) saved (verdict_key on)
        (if verdict_key off <> verdict_key on then
           Printf.sprintf "  VERDICT MISMATCH (off: %s)" (verdict_key off)
         else ""))
    matrix;
  (* Geo-mean of clauses(on)/clauses(off) over the cases with clauses on
     both sides. *)
  let ratios =
    List.filter_map
      (fun (_, _, off, on, _, _) ->
        if clauses off > 0 && clauses on > 0 then
          Some (float_of_int (clauses on), float_of_int (clauses off))
        else None)
      matrix
  in
  let geo =
    match R.geo_mean_ratio ratios with
    | None -> nan
    | Some r ->
        let geo = 1.0 -. r in
        Printf.printf
          "\ngeo-mean clause reduction: %.1f%% over %d cases; verdict mismatches: %d\n"
          (100.0 *. geo) (List.length ratios) mismatches;
        geo
  in
  let matrix_json =
    List.map
      (fun (design, label, off, on, t_off, t_on) ->
        R.(
          Row
            [
              ("design", Str design);
              ("case", Str label);
              ("verdict_off", Str (verdict_key off));
              ("verdict_on", Str (verdict_key on));
              ("vars_off", Int off.Checks.cnf_vars);
              ("vars_on", Int on.Checks.cnf_vars);
              ("clauses_off", Int (clauses off));
              ("clauses_on", Int (clauses on));
              ("time_off_s", Num (3, t_off));
              ("time_on_s", Num (3, t_on));
            ]))
      matrix
  in
  let ablation_json =
    List.map
      (fun (name, stage, report, dt) ->
        R.(
          Row
            [
              ("design", Str name);
              ("stage", Str stage);
              ("vars", Int report.Checks.cnf_vars);
              ("clauses", Int (clauses report));
              ("time_s", Num (3, dt));
            ]))
      ablation
  in
  {
    blocks =
      [
        ( "simplify",
          simplify_block ~geo ~mismatches ~matrix:matrix_json ~ablation:ablation_json () );
      ];
    gates =
      [ { count = mismatches; what = "verdict mismatch(es) between pipeline configurations" } ];
  }

(* ------------------------------------------------------------------ *)
(* F1: G-QED runtime vs unroll bound (scaling curves).                  *)

let f1 env =
  header "F1  G-QED runtime vs unroll bound (seconds; one series per design)";
  let designs = [ "accum"; "maxtrack"; "alu_pipe"; "mmio_engine" ] in
  let bounds = [ 2; 3; 4; 5; 6 ] in
  Printf.printf "%-6s" "bound";
  List.iter (Printf.printf " %12s") designs;
  Printf.printf "\n";
  (* All (bound, design) cells fan out at once; each cell's time is its own
     task wall-clock, so the grid is the same data the serial run prints. *)
  let cells = List.concat_map (fun b -> List.map (fun d -> (b, d)) designs) bounds in
  let timed =
    Par.map_timed ~jobs:env.cfg.jobs
      (fun (bound, name) ->
        let e = Registry.find name in
        check env ~simplify:env.cfg.pipeline Checks.Gqed e.Entry.design e.Entry.iface
          ~bound)
      cells
  in
  List.iteri
    (fun bi bound ->
      Printf.printf "%-6d" bound;
      List.iteri
        (fun di _ ->
          Printf.printf " %11.3f " (snd (List.nth timed ((bi * List.length designs) + di))))
        designs;
      Printf.printf "\n%!")
    bounds;
  let json =
    List.map2 (fun (bound, name) row -> solver_row ~design:name ~bound row) cells timed
  in
  { nothing with blocks = [ ("solver", R.Arr json) ] }

(* ------------------------------------------------------------------ *)
(* F2: CRV detection rate vs budget, with the G-QED one-shot line.      *)

let f2 env =
  header "F2  Detection rate vs CRV budget, against one G-QED run";
  let cases =
    [
      (* easy bug: random simulation wins quickly *)
      ("accum/off_by_one", "accum", Mutation.Off_by_one);
      (* always-on interference: both find it *)
      ("accum/hidden_state", "accum", Mutation.Hidden_state);
      (* rare-trigger interference: the class that escapes regressions *)
      ("accum/rare_output", "accum", Mutation.Rare_output);
      ("maxtrack/rare_state", "maxtrack", Mutation.Rare_state);
      ("mmio/rare_output", "mmio_engine", Mutation.Rare_output);
      (* uniform bug: only the golden-model flow can see it *)
      ("seqdet/op_swap", "seqdet", Mutation.Op_swap);
    ]
  in
  let budgets = [ 1; 3; 10; 30; 100; 300 ] in
  let seeds = List.init 20 (fun i -> i + 1) in
  Printf.printf "%-20s" "mutant";
  List.iter (fun b -> Printf.printf " %7s" (Printf.sprintf "%dtx" b)) budgets;
  Printf.printf " %16s\n" "G-QED one-shot";
  par_map env
    (fun (label, design_name, op) ->
      let e = Registry.find design_name in
      match
        List.find_map
          (fun (m, d) -> if m.Mutation.operator = op then Some d else None)
          (Mutation.mutants e.Entry.design)
      with
      | None -> None
      | Some mutant ->
          let curve = Crv.detection_curve ~design_override:mutant e ~budgets ~seeds in
          let report, dt =
            time (fun () ->
                check env Checks.Gqed_flow mutant e.Entry.iface ~bound:e.Entry.rec_bound)
          in
          let one_shot =
            match report.Checks.verdict with
            | Checks.Pass _ -> "missed"
            | Checks.Fail _ -> "found"
            | Checks.Unknown _ -> "unknown"
          in
          Some (label, curve, one_shot, dt))
    cases
  |> List.iter (function
       | None -> ()
       | Some (label, curve, one_shot, dt) ->
           Printf.printf "%-20s" label;
           List.iter (fun (_, rate) -> Printf.printf " %6.0f%%" (100.0 *. rate)) curve;
           Printf.printf " %9s %5.1fs\n%!" one_shot dt);
  Printf.printf
    "\n(rare-trigger rows: the corruption needs a coincidence of hidden phase,\n\
     operand and state values; symbolic search constructs it in one query)\n";
  nothing

(* ------------------------------------------------------------------ *)
(* F3: counterexample length, G-QED vs CRV cycles-to-detection.         *)

let f3 env =
  header "F3  Counterexample length: G-QED trace vs CRV cycles-to-detection";
  let rows = Lazy.force env.t2 in
  let geomean = function
    | [] -> nan
    | xs ->
        exp
          (List.fold_left (fun acc x -> acc +. log (float_of_int (max 1 x))) 0.0 xs
          /. float_of_int (List.length xs))
  in
  Printf.printf "%-12s %18s %18s %8s\n" "design" "G-QED cex (geo.)" "CRV cycles (geo.)"
    "ratio";
  let rows = List.filter (fun r -> r.r_gqed_cex <> [] && r.r_crv_cycles <> []) rows in
  List.iter
    (fun row ->
      let g = geomean row.r_gqed_cex and c = geomean row.r_crv_cycles in
      Printf.printf "%-12s %18.1f %18.1f %7.1fx\n" row.r_name g c (c /. g))
    rows;
  let g = geomean (List.concat_map (fun r -> r.r_gqed_cex) (List.rev rows))
  and c = geomean (List.concat_map (fun r -> r.r_crv_cycles) (List.rev rows)) in
  Printf.printf "%-12s %18.1f %18.1f %7.1fx  (A-QED DAC'20 reports ~37x)\n" "OVERALL" g c
    (c /. g);
  nothing

(* ------------------------------------------------------------------ *)
(* R-ROB1: robustness — fault injection, starved budgets, escalation     *)
(* recovery and the Par watchdog. See EXPERIMENTS.md.                    *)

(* A seeded stochastic solver fault hook: with probability [rate] per
   solver poll it fires resource exhaustion, external cancellation or
   allocation pressure. Deterministic in [seed]. *)
let rob_hook seed rate =
  let st = Random.State.make [| 0xb0b; seed |] in
  fun (_ : Sat.Solver.stats) ->
    if Random.State.float st 1.0 >= rate then None
    else
      match Random.State.int st 4 with
      | 0 -> Some (Sat.Solver.Fault_exhaust Sat.Solver.Out_of_conflicts)
      | 1 -> Some (Sat.Solver.Fault_exhaust Sat.Solver.Out_of_memory_budget)
      | 2 -> Some Sat.Solver.Fault_cancel
      | _ -> Some (Sat.Solver.Fault_alloc 4096)

let robustness_block ?(flips = 0) ?(matrix = []) () =
  R.(Obj [ ("verdict_flips", Int flips); ("matrix", Arr matrix) ])

let rob env =
  header "R-ROB1  Robustness: faults, starved budgets, escalation, watchdog";
  Printf.printf
    "Faults fire mid-solve (exhaustion / cancellation / allocation\n\
     pressure). A fault may only turn a verdict into unknown; a flip\n\
     between pass and fail fails the whole bench run.\n\n";
  let designs = [ "accum"; "maxtrack"; "seqdet" ] in
  let rates = [ 0.005; 0.02; 0.1 ] in
  let trials = 3 in
  Printf.printf "%-12s %6s %8s %9s %7s %12s\n" "design" "rate" "trials" "unknown" "flips"
    "escalation";
  let per_design =
    List.map
      (fun name ->
        let e = Registry.find name in
        let bound = e.Entry.rec_bound in
        let ref_key = verdict_key (Checks.gqed e.Entry.design e.Entry.iface ~bound) in
        (* Flips of a lane of keyed reports against the fault-free
           reference. Faults may only turn verdicts into unknown, so just
           the decided cells are compared. *)
        let against_reference lane =
          let decided =
            List.filter_map
              (fun (k, r) ->
                if Checks.report_decided r then Some (k, verdict_key r) else None)
              lane
          in
          R.lane_flips (List.map (fun (k, _) -> (k, ref_key)) decided) decided
        in
        (* Escalation recovery: starve every query to a single conflict; the
           retry ladder must regrow the budget until the fault-free verdict
           comes back. *)
        let starved = Bmc.limits ~budget:(Sat.Solver.budget ~conflicts:1 ()) () in
        let recovered_report =
          Checks.run_escalating
            ~policy:{ Bmc.Escalate.default_policy with max_attempts = 8; growth = 8.0 }
            ~limits:starved Checks.Gqed e.Entry.design e.Entry.iface ~bound
        in
        let recovered = verdict_key recovered_report = ref_key in
        let rows =
          List.map
            (fun rate ->
              let outcomes =
                par_map env
                  (fun trial ->
                    let limits =
                      Bmc.limits ~fault:(rob_hook (Hashtbl.hash (name, rate, trial)) rate) ()
                    in
                    Checks.run ~limits Checks.Gqed e.Entry.design e.Entry.iface ~bound)
                  (List.init trials Fun.id)
              in
              let unknown =
                List.length (List.filter (fun r -> not (Checks.report_decided r)) outcomes)
              in
              let flips = against_reference (List.mapi (fun i r -> (i, r)) outcomes) in
              Printf.printf "%-12s %6.3f %8d %9d %7d %12s%s\n%!" name rate trials unknown
                flips
                (if recovered then "recovered"
                 else "gave-up (" ^ short_verdict recovered_report ^ ")")
                (if flips > 0 then "  VERDICT FLIP" else "");
              ( flips,
                R.(
                  Row
                    [
                      ("design", Str name);
                      ("rate", Num (3, rate));
                      ("trials", Int trials);
                      ("unknown", Int unknown);
                      ("flips", Int flips);
                      ("escalation_recovered", Bool recovered);
                    ]) ))
            rates
        in
        (against_reference [ ((), recovered_report) ], rows))
      designs
  in
  (* Watchdog: a deliberately oversized query runs next to a small one under
     a per-task deadline. The fan-out must not block on the big query — the
     watchdog cancels it, its row comes back cancelled, and the sibling's
     verdict is unaffected. *)
  Printf.printf "\nwatchdog (per-task deadline 0.3s, 2 tasks):\n";
  let big = Registry.find "mmio_engine" in
  let small = Registry.find "hamming74" in
  let tasks = [ (big, 3 * big.Entry.rec_bound); (small, small.Entry.rec_bound) ] in
  let results, wall =
    time (fun () ->
        Par.map_governed ~jobs:2 ~deadline:0.3
          (fun token (e, bound) ->
            Checks.gqed ~limits:(Bmc.limits ~cancel:token ()) e.Entry.design e.Entry.iface
              ~bound)
          tasks)
  in
  List.iter2
    (fun (e, bound) (result, dt) ->
      match result with
      | Ok report ->
          Printf.printf "  %-12s bound %-3d -> %-28s %6.2fs\n" e.Entry.name bound
            (verdict_key report) dt
      | Error exn ->
          Printf.printf "  %-12s bound %-3d -> raised %s\n" e.Entry.name bound
            (Printexc.to_string exn))
    tasks results;
  let sibling_affected =
    match results with
    | [ (Ok r_big, _); (Ok r_small, _) ] ->
        if Checks.report_decided r_big then
          (* Finishing before the deadline is legal; it just means the
             machine is fast enough that the demo did not demonstrate. *)
          Printf.printf "  (oversized query finished before the deadline)\n";
        if passed r_small then 0
        else begin
          Printf.printf "  SIBLING AFFECTED: small query did not pass\n";
          1
        end
    | _ -> 0
  in
  Printf.printf "  fan-out wall clock: %.2fs (a hung query no longer blocks the run)\n" wall;
  let rows = List.concat_map snd per_design in
  let flips =
    List.fold_left (fun n (recovery, _) -> n + recovery) sibling_affected per_design
    + List.fold_left (fun n (f, _) -> n + f) 0 rows
  in
  {
    blocks = [ ("robustness", robustness_block ~flips ~matrix:(List.map snd rows) ()) ];
    gates = [ { count = flips; what = "fault-induced verdict flip(s)" } ];
  }

(* ------------------------------------------------------------------ *)
(* P1: clause-sharing portfolio SAT. Every cell of a design x mutant     *)
(* matrix is checked twice — single-solver lane vs portfolio lane — and  *)
(* the verdicts must agree exactly. Cells run sequentially so the        *)
(* per-cell wall-clock comparison is not perturbed by sibling cells.     *)

let portfolio_block ?(effective = 1) ?(flips = 0) ?(geo = nan) ?(exported = 0)
    ?(imported = 0) ?(matrix = []) cfg =
  R.(
    Obj
      [
        ("requested_workers", Int cfg.portfolio);
        ("effective_workers", Int effective);
        ("share", Bool cfg.share);
        ("verdict_flips", Int flips);
        ("speedup_geo_mean", Num (4, geo));
        ("clauses_exported", Int exported);
        ("clauses_imported", Int imported);
        ( "share_hit_rate",
          Num (4, if exported = 0 then nan else float_of_int imported /. float_of_int exported)
        );
        ("matrix", Arr matrix);
      ])

let p1 env =
  header "P1  Clause-sharing portfolio SAT: diversified workers race per query";
  let requested = env.cfg.portfolio in
  (* The portfolio is p1's only parallelism (cells run sequentially), so
     the jobs x portfolio product reduces to the portfolio width here. *)
  let effective, clamped = Par.clamp_inner ~jobs:1 ~inner:requested in
  if clamped then
    Printf.printf
      "bench: warning: --portfolio %d exceeds %d available core(s); portfolio clamped \
       to %d\n"
      requested (Par.default_jobs ()) effective;
  Printf.printf
    "Each SAT query in the portfolio lane races %d diversified CDCL worker(s)%s.\n\
     Verdicts are compared cell-by-cell against the single-solver lane; any\n\
     flip fails the whole bench run (exit 1).\n\n"
    effective
    (if env.cfg.share && effective > 1 then ", sharing learnt clauses"
     else ", no clause sharing");
  let pconfig = Sat.Portfolio.config ~workers:effective ~share:env.cfg.share () in
  let single_limits = Matrix.limits env.cfg.solve in
  let portfolio_limits = { single_limits with Bmc.l_portfolio = Some pconfig } in
  (* Default subset: the hardest suite members (deep recommended bounds or
     wide state), where per-query solver time dominates the check. *)
  let entries =
    entries env
      ~default:[ "accum"; "maxtrack"; "seqdet"; "hamming74"; "graycodec"; "movavg4" ]
  in
  Printf.printf "%-12s %-18s %-16s %-16s %7s %7s %7s %9s %9s\n" "design" "case" "single"
    "portfolio" "t1(s)" "tN(s)" "speedup" "exported" "imported";
  let cells =
    List.concat_map
      (fun e ->
        List.map
          (fun (label, design) ->
            let run limits () =
              record env
                (Checks.run ~limits Checks.Gqed design e.Entry.iface
                   ~bound:e.Entry.rec_bound)
            in
            let single, t_single = time (run single_limits) in
            let portfolio, t_portfolio = time (run portfolio_limits) in
            let vk_single = verdict_key single and vk_portfolio = verdict_key portfolio in
            let st = portfolio.Checks.sat_stats in
            Printf.printf "%-12s %-18s %-16s %-16s %7.2f %7.2f %7.2f %9d %9d%s\n%!"
              e.Entry.name label vk_single vk_portfolio t_single t_portfolio
              (if t_portfolio > 0.0 then t_single /. t_portfolio else Float.nan)
              st.Sat.Solver.clauses_exported st.Sat.Solver.clauses_imported
              (if vk_single <> vk_portfolio then "  VERDICT FLIP" else "");
            ((e.Entry.name, label), vk_single, vk_portfolio, t_single, t_portfolio, st))
          (matrix_cells e))
      entries
  in
  let flips =
    R.lane_flips
      (List.map (fun (k, vs, _, _, _, _) -> (k, vs)) cells)
      (List.map (fun (k, _, vp, _, _, _) -> (k, vp)) cells)
  in
  (* Only the correct cells feed the speedup figure: their queries are the
     all-UNSAT deepening ladder, the hard subset. *)
  let pairs =
    List.filter_map
      (fun ((_, label), _, _, ts, tp, _) ->
        if label = "correct" && tp > 0.0 then Some (ts, tp) else None)
      cells
  in
  let geo =
    match R.geo_mean_ratio pairs with
    | None -> nan
    | Some geo ->
        Printf.printf
          "\nhard-query (correct-cell) wall-clock speedup, geo-mean over %d designs: %.2fx\n"
          (List.length pairs) geo;
        if effective > 1 && geo <= 1.0 then
          Printf.printf "  note: portfolio no faster than single-solver on this machine/run\n"
        else if effective = 1 then
          Printf.printf
            "  note: 1 effective worker (requested %d) — speedup comparison measures \
             portfolio overhead only\n"
            requested;
        geo
  in
  if flips = 0 then
    Printf.printf "portfolio vs single verdicts: all %d cells agree\n" (List.length cells);
  let matrix =
    List.map
      (fun ((design, label), vs, vp, ts, tp, st) ->
        R.(
          Row
            [
              ("design", Str design);
              ("case", Str label);
              ("verdict_single", Str vs);
              ("verdict_portfolio", Str vp);
              ("time_single_s", Num (3, ts));
              ("time_portfolio_s", Num (3, tp));
              ("exported", Int st.Sat.Solver.clauses_exported);
              ("imported", Int st.Sat.Solver.clauses_imported);
            ]))
      cells
  in
  let sum f = List.fold_left (fun n (_, _, _, _, _, st) -> n + f st) 0 cells in
  let exported = sum (fun st -> st.Sat.Solver.clauses_exported)
  and imported = sum (fun st -> st.Sat.Solver.clauses_imported) in
  {
    blocks =
      [
        ( "portfolio",
          portfolio_block ~effective ~flips ~geo ~exported ~imported ~matrix env.cfg );
      ];
    gates = [ { count = flips; what = "portfolio-vs-single verdict flip(s)" } ];
  }

(* ------------------------------------------------------------------ *)
(* OBS: tracing is verdict-invisible and emitted traces are well-formed. *)

let obs_block ?(events = 0) ?wellformed ?(flips = 0) () =
  R.(
    Row
      [
        ("enabled", Bool (Obs.on ()));
        ("trace_events", Int events);
        ("trace_wellformed", match wellformed with None -> Null | Some b -> Bool b);
        ("verdict_flips", Int flips);
      ])

let obs_exp env =
  header "OBS  Observability: tracing is verdict-invisible, traces well-formed";
  Printf.printf
    "Each design is checked once with the Obs layer off and once with span\n\
     tracing on. The verdicts must match exactly and the emitted trace must\n\
     pass the structural well-formedness checker; any disagreement fails the\n\
     whole bench run (exit 1).\n\n";
  let was_on = Obs.on () in
  let names = [ "alu_pipe"; "popcount"; "graycodec" ] in
  let entries = List.filter (fun e -> List.mem e.Entry.name names) Registry.all in
  Printf.printf "%-12s %-12s %-12s %8s %8s %10s\n" "design" "untraced" "traced"
    "t_off(s)" "t_on(s)" "trace";
  let rows =
    List.map
      (fun e ->
        let run1 () =
          record env
            (Checks.run ~limits:(Matrix.limits env.cfg.solve) Checks.Gqed e.Entry.design
               e.Entry.iface ~bound:e.Entry.rec_bound)
        in
        Obs.disable ();
        let plain, t_off = time run1 in
        Obs.Trace.reset ();
        Obs.enable ();
        let traced, t_on = time run1 in
        let events = Obs.Trace.events () in
        if not was_on then Obs.disable ();
        let wellformed, trace_cell =
          match Obs.Trace.check events with
          | _ when events = [] -> (false, "EMPTY")
          | Ok () -> (true, Printf.sprintf "%d ok" (List.length events))
          | Error _ -> (false, "MALFORMED")
        in
        let vk_plain = verdict_key plain and vk_traced = verdict_key traced in
        Printf.printf "%-12s %-12s %-12s %8.2f %8.2f %10s%s\n%!" e.Entry.name vk_plain
          vk_traced t_off t_on trace_cell
          (if vk_plain <> vk_traced then "  VERDICT FLIP" else "");
        (e.Entry.name, vk_plain, vk_traced, List.length events, wellformed))
      entries
  in
  let flips =
    R.lane_flips
      (List.map (fun (n, p, _, _, _) -> (n, p)) rows)
      (List.map (fun (n, _, t, _, _) -> (n, t)) rows)
  in
  let malformed = List.length (List.filter (fun (_, _, _, _, ok) -> not ok) rows) in
  if flips = 0 && malformed = 0 then
    Printf.printf "\ntraced vs untraced verdicts: all %d designs agree, traces well-formed\n"
      (List.length entries);
  let events = List.fold_left (fun n (_, _, _, k, _) -> n + k) 0 rows in
  {
    blocks =
      [ ("obs", obs_block ~events ~wellformed:(malformed = 0) ~flips ()) ];
    gates =
      [
        { count = flips; what = "traced-vs-untraced verdict flip(s)" };
        { count = malformed; what = "malformed or empty trace(s) in the obs experiment" };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel.    *)

let micro _env =
  header "Micro-benchmarks (Bechamel): per-experiment computational kernels";
  let open Bechamel in
  let accum = Registry.find "accum" in
  let mutant =
    List.find_map
      (fun (m, d) -> if m.Mutation.operator = Mutation.Off_by_one then Some d else None)
      (Mutation.mutants accum.Entry.design)
    |> Option.get
  in
  let sim_inputs =
    let rand = Random.State.make [| 9 |] in
    List.init 200 (fun _ ->
        Entry.operand_valuation accum ~valid:true (accum.Entry.sample_operand rand))
  in
  let tests =
    [
      Test.make ~name:"t1.design_stats"
        (Staged.stage (fun () -> ignore (Rtl.stats accum.Entry.design)));
      Test.make ~name:"t2.gqed_buggy_mutant"
        (Staged.stage (fun () -> ignore (Checks.gqed mutant accum.Entry.iface ~bound:4)));
      Test.make ~name:"t3.gqed_pass_bound3"
        (Staged.stage (fun () ->
             ignore (Checks.gqed accum.Entry.design accum.Entry.iface ~bound:3)));
      Test.make ~name:"t4.productivity_model"
        (Staged.stage (fun () -> ignore (Productivity.improvement accum)));
      Test.make ~name:"t5.transaction_table"
        (Staged.stage (fun () ->
             ignore
               (Theory.transaction_table accum.Entry.design accum.Entry.iface
                  ~alphabet:
                    (Theory.default_alphabet ~operand_values:[ 0; 1 ] accum.Entry.design
                       accum.Entry.iface)
                  ~depth:3)));
      Test.make ~name:"a1.gqed_output_only_bound3"
        (Staged.stage (fun () ->
             ignore (Checks.gqed_output_only accum.Entry.design accum.Entry.iface ~bound:3)));
      Test.make ~name:"a2.bmc_safety_depth6"
        (Staged.stage (fun () ->
             ignore
               (Bmc.check_safety ~design:accum.Entry.design
                  ~invariant:(Expr.ne (Expr.var "acc" 4) (Expr.const_int ~width:4 15))
                  ~depth:6 ())));
      Test.make ~name:"f1.simulate_200_cycles"
        (Staged.stage (fun () -> ignore (Rtl.simulate accum.Entry.design sim_inputs)));
      Test.make ~name:"f2.crv_200tx"
        (Staged.stage (fun () ->
             ignore
               (Crv.run accum { Crv.seed = 1; max_transactions = 200; idle_prob = 0.2 })));
      Test.make ~name:"f3.aqed_fc_bound4"
        (Staged.stage (fun () -> ignore (Checks.aqed_fc mutant accum.Entry.iface ~bound:4)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"kernel" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let est =
          match Analyze.OLS.estimates result with Some (e :: _) -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-36s %16s\n" "kernel" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-36s %16s\n" name human)
    rows;
  nothing

(* ------------------------------------------------------------------ *)
(* R2: crash-safe campaigns — a journaled run killed at a random record
   and resumed must reproduce the uninterrupted verdict matrix
   bit-for-bit, journal I/O faults must never leak into a verdict, and
   the supervisor must restart crashing workers without taking the
   campaign down. *)

(* R2 and D1 run their cells on Dist.run with Matrix's "campaign"
   solver: every design's [matrix_cells] as a G-QED check at the
   recommended bound, keyed by (design, case). The solver resolves the
   keys among its own table of each design's full mutant set, of which
   the per-operator suite is a subset. *)
let campaign_cells entries =
  List.concat_map
    (fun e ->
      let bound = e.Entry.rec_bound in
      List.map
        (fun (label, d) ->
          ( (e.Entry.name, label),
            {
              Dist.cell_key = Checks.campaign_key Checks.Gqed d e.Entry.iface ~bound;
              cell_hint = Checks.campaign_hint d ~bound;
            } ))
        (matrix_cells e))
    entries

(* The solver config the cells travel with: the run's budgets and
   escalation, G-QED, and only the entries' designs in the worker's key
   table. *)
let campaign_arg env entries =
  Matrix.encode
    {
      env.cfg.solve with
      technique = Checks.Gqed;
      names = List.map (fun e -> e.Entry.name) entries;
    }

let find_row rows (_, c) = List.find (fun r -> r.Dist.r_key = c.Dist.cell_key) rows

(* A lane's verdict matrix over [cells]. Payload bytes embed wall-clock
   solver stats, so lane equality is over decoded verdicts, exactly what
   the tables print. *)
let lane_matrix cells rows =
  List.map
    (fun ((k, _) as cell) ->
      ( k,
        match Checks.decode_report (find_row rows cell).Dist.r_payload with
        | Some rep -> verdict_key rep
        | None -> "<no verdict>" ))
    cells

(* Tally a lane's solved (cold) rows like funnel checks; a row without a
   report is a solve that crashed on every attempt, an unknown. *)
let record_rows env rows =
  List.iter
    (fun r ->
      if not r.Dist.r_warm then
        match Checks.decode_report r.Dist.r_payload with
        | Some rep -> ignore (record env rep)
        | None -> Atomic.incr env.tally.unknown)
    rows

(* The r2 members of the report's "campaign" block. *)
let campaign_members ?(records = 0) ?(kill_at = 0) ?(skipped = 0) ?(rerun = 0)
    ?(flips = 0) ?(write_errors = 0) ?(recovered_bytes = 0) ?(restarts = 0)
    ?(gave_up = 0) ?(matrix = []) () =
  R.
    [
      ("records", Int records);
      ("kill_at", Int kill_at);
      ("skipped_on_resume", Int skipped);
      ("rerun", Int rerun);
      ("verdict_flips", Int flips);
      ("write_errors", Int write_errors);
      ("recovered_bytes", Int recovered_bytes);
      ("supervisor_restarts", Int restarts);
      ("supervisor_gave_up", Int gave_up);
      ("matrix", Arr matrix);
    ]

(* R2's supervision lane: a steady, a flaky (two crashes) and a doomed
   solve, counted per key. Registered for Dist.run; solved in-process. *)
let r2_demo = [ ("steady", 0); ("flaky", 2); ("doomed", max_int) ]
let r2_attempts : (string, int) Hashtbl.t = Hashtbl.create 8

let () =
  Dist.register "bench-r2-supervise" (fun ~arg:_ name ->
      let a = 1 + Option.value ~default:0 (Hashtbl.find_opt r2_attempts name) in
      Hashtbl.replace r2_attempts name a;
      if a <= List.assoc name r2_demo then failwith (name ^ ": injected crash");
      (true, name))

let r2 env =
  header "R2  Crash-safe campaigns: kill/resume equivalence + supervised restarts";
  Printf.printf
    "A (design x case) G-QED campaign is journaled to a write-ahead log,\n\
     killed at a random record (torn tail included) and resumed; the\n\
     resumed matrix must match the uninterrupted one cell-for-cell. A\n\
     second lane journals under injected I/O faults (torn / short write /\n\
     ENOSPC) — write errors degrade durability, never verdicts. Any\n\
     disagreement fails the whole bench run (exit 1).\n\n";
  let entries = entries env ~default:[ "accum"; "hamming74"; "graycodec" ] in
  let cells = campaign_cells entries and arg = campaign_arg env entries in
  (* One in-process pass over the cells through a journal at [journal];
     decided journal records are served warm on resume. Returns the
     verdict matrix keyed by (design, case) and the journal's stats. *)
  let run_campaign ?fault ~resume journal =
    match
      Dist.run ~workers:1 ?fault ~arg ~resume ~force:false ~journal ~solver:Matrix.solver
        (List.map snd cells)
    with
    | Error msg -> failwith ("r2: " ^ msg)
    | Ok (rows, stats) ->
        record_rows env rows;
        (lane_matrix cells rows, stats.Dist.d_campaign)
  in
  let tmp_journal tag =
    let f = Filename.temp_file ("gqed-r2-" ^ tag) ".jrnl" in
    Sys.remove f;
    f
  in
  (* Lane 1: uninterrupted journaled run — the reference matrix. *)
  let j_kill = tmp_journal "kill" in
  let full, stats_full = run_campaign ~resume:false j_kill in
  let n_records = stats_full.Persist.Campaign.c_appended in
  (* Kill: keep a seeded-random prefix of the journal plus a torn partial
     record — the exact on-disk state a SIGKILL mid-append leaves. *)
  let rand = Random.State.make [| 0x9e2; 0xd15c; env.cfg.seed; List.length cells |] in
  let kill_at = if n_records <= 1 then 0 else Random.State.int rand n_records in
  Persist.Journal.chop ~torn_bytes:9 ~keep:kill_at j_kill;
  let resumed, stats_res = run_campaign ~resume:true j_kill in
  Printf.printf "%-12s %-18s %-16s %-16s\n" "design" "case" "full" "resumed";
  List.iter2
    (fun ((design, label), vf) (_, vr) ->
      Printf.printf "%-12s %-18s %-16s %-16s%s\n%!" design label vf vr
        (if vf <> vr then "  VERDICT FLIP" else ""))
    full resumed;
  Printf.printf
    "\nkilled at record %d/%d (+9 torn bytes): %d skipped from the journal, %d re-run, \
     %d corrupt tail byte(s) dropped\n"
    kill_at n_records stats_res.Persist.Campaign.c_hits
    stats_res.Persist.Campaign.c_appended
    stats_res.Persist.Campaign.c_recovered_bytes;
  (* Lane 2: journal under injected I/O faults — every third append is
     torn, every seventh fails short, every eleventh hits ENOSPC. The
     verdict matrix must not notice; then resume from the fault-riddled
     journal and it still must not notice. *)
  let fault i =
    if i mod 11 = 7 then Some Persist.Enospc
    else if i mod 7 = 3 then Some (Persist.Short_write 5)
    else if i mod 3 = 1 then Some (Persist.Torn 11)
    else None
  in
  let j_fault = tmp_journal "fault" in
  let faulty, stats_faulty = run_campaign ~fault ~resume:false j_fault in
  let fault_flips = R.lane_flips full faulty in
  let resumed_faulty, _ = run_campaign ~resume:true j_fault in
  let fault_resume_flips = R.lane_flips full resumed_faulty in
  Printf.printf
    "I/O-fault lane: %d append(s) lost to injected faults, %d flip(s) while faulting, \
     %d flip(s) after resuming the damaged journal\n"
    stats_faulty.Persist.Campaign.c_write_errors fault_flips fault_resume_flips;
  (* Lane 3: supervision — a solve that crashes twice must be retried
     into success, one that always crashes must degrade to an undecided
     row without aborting its siblings. In-process (one worker) so the
     attempt counts are deterministic. *)
  Hashtbl.reset r2_attempts;
  let j_sup = tmp_journal "supervise" in
  let sup_rows, sup_stats =
    match
      Dist.run ~workers:1 ~sync:false ~resume:false ~force:false ~journal:j_sup
        ~solver:"bench-r2-supervise"
        (List.map (fun (name, _) -> { Dist.cell_key = name; cell_hint = 0. }) r2_demo)
    with
    | Ok v -> v
    | Error msg -> failwith ("r2: " ^ msg)
  in
  let supervised =
    List.map2
      (fun (name, crashes) (r : Dist.row) ->
        let attempts = Hashtbl.find r2_attempts name in
        Printf.printf "supervise: %-8s %s after %d attempt(s)\n" name
          (if r.Dist.r_decided then "succeeded" else "gave up")
          attempts;
        if r.Dist.r_decided then r.Dist.r_payload = name && attempts = crashes + 1
        else crashes = max_int && attempts = Dist.default_policy.Dist.max_restarts + 1)
      r2_demo sup_rows
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ j_kill; j_fault; j_sup ];
  (* A misbehaving supervisor is a campaign-correctness bug: gate it like a
     flip. *)
  let flips =
    R.lane_flips full resumed + fault_flips + fault_resume_flips
    + List.length (List.filter not supervised)
  in
  if flips = 0 then
    Printf.printf
      "kill/resume, fault and supervision lanes: all %d cells reproduce the \
       uninterrupted matrix\n"
      (List.length cells);
  let matrix =
    List.map2
      (fun ((design, label), vf) (_, vr) ->
        R.(
          Row
            [
              ("design", Str design);
              ("case", Str label);
              ("full", Str vf);
              ("resumed", Str vr);
            ]))
      full resumed
  in
  {
    blocks =
      [
        ( "campaign",
          R.Obj
            (campaign_members ~records:n_records ~kill_at
               ~skipped:stats_res.Persist.Campaign.c_hits
               ~rerun:stats_res.Persist.Campaign.c_appended ~flips
               ~write_errors:stats_faulty.Persist.Campaign.c_write_errors
               ~recovered_bytes:stats_res.Persist.Campaign.c_recovered_bytes
               ~restarts:sup_stats.Dist.d_restarts ~gave_up:sup_stats.Dist.d_gave_up
               ~matrix ()) );
      ];
    gates = [ { count = flips; what = "kill/resume campaign verdict flip(s)" } ];
  }

(* ------------------------------------------------------------------ *)
(* D1: distributed sharded campaigns — the same campaign cells solved    *)
(* serially in-process and across N worker processes journaling to       *)
(* per-worker shards, flip-gated, plus a kill/resume lane and a          *)
(* supervised-restart lane. Workers are this executable re-exec'd (see   *)
(* lib/dist/DESIGN.md), so Matrix's solver rebuilds its key -> task      *)
(* table from the encoded config carried in [arg] alone.                 *)

let dist_block ?(workers = 0) ?(flips = 0) ?(geo = nan) ?(restarts = 0) ?(killed = false)
    ?(resume_flips = 0) ?(skipped = 0) ?(merged = 0) ?(matrix = []) cfg =
  R.(
    Obj
      [
        ("workers", Int workers);
        ("batch", Int cfg.batch);
        ("verdict_flips", Int flips);
        ("speedup_geo_mean", Num (4, geo));
        ("worker_restarts", Int restarts);
        ( "kill",
          Row
            [
              ("killed", Bool killed);
              ("resume_flips", Int resume_flips);
              ("skipped_on_resume", Int skipped);
              ("merged_records", Int merged);
            ] );
        ("matrix", Arr matrix);
      ])

let dist_exp env =
  header "D1  Distributed campaigns: serial vs N-worker-process matrix";
  (* Default subset: combined mutant matrices solve in seconds yet leave
     enough per-cell work for the process fan-out to amortize its spawn
     cost. *)
  let entries =
    entries env ~default:[ "hamming74"; "graycodec"; "seqdet"; "rle"; "maxtrack" ]
  in
  let cfg = env.cfg in
  let workers =
    if cfg.workers > 0 then cfg.workers else max 2 (min 4 (Par.default_jobs ()))
  in
  Printf.printf
    "The combined campaign over %d design(s) is solved by the same\n\
     registered solver twice per trial: serially in-process (workers=1)\n\
     and sharded across %d worker processes pulling batches of %d\n\
     hardest-first, each journaling to its own shard. The merged matrices\n\
     must agree cell-for-cell; any flip fails the whole bench run\n\
     (exit 1). A kill lane then SIGKILLs a worker mid-campaign and\n\
     resumes from the leftover shards.\n\n"
    (List.length entries) workers cfg.batch;
  let tmp tag =
    let f = Filename.temp_file ("gqed-dist-" ^ tag) ".jrnl" in
    Sys.remove f;
    f
  in
  let sweep path =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      (path :: List.init 16 (Dist.worker_journal path))
  in
  let arg = campaign_arg env entries in
  let dist_run ?kill ~workers ~journal ~resume cells =
    Dist.run ~workers ~batch:cfg.batch ~policy:cfg.policy ?kill ~resume ~force:false
      ~journal ~solver:Matrix.solver ~arg (List.map snd cells)
  in
  let run_lane ?kill ~workers ~journal ~resume cells =
    match dist_run ?kill ~workers ~journal ~resume cells with
    | Ok (rows, st) ->
        record_rows env rows;
        (rows, st)
    | Error msg -> failwith ("dist: " ^ msg)
  in
  let per_design = List.map (fun e -> (e, campaign_cells [ e ])) entries in
  let all_cells = List.concat_map snd per_design in
  (* Throughput is measured on the combined campaign, where cross-design
     parallelism exists — a single design's matrix is usually dominated
     by its one hard all-UNSAT "correct" cell, which no amount of
     sharding can split. Two trials feed the geo-mean; trial 1's rows
     give the per-design table and the reference matrix. *)
  let trials =
    List.map
      (fun trial ->
        let j1 = tmp "serial" and jn = tmp "par" in
        let (rows1, _), t1 =
          time (fun () ->
              run_lane ~workers:1 ~journal:j1 ~resume:false all_cells)
        in
        let (rowsn, stn), tn =
          time (fun () -> run_lane ~workers ~journal:jn ~resume:false all_cells)
        in
        sweep j1;
        sweep jn;
        let flips = R.lane_flips (lane_matrix all_cells rows1) (lane_matrix all_cells rowsn) in
        Printf.printf
          "trial %d: %d cells — serial %.3fs, %d workers %.3fs (%s), %d flip(s)%s\n%!" trial
          (List.length all_cells) t1 workers tn
          (if tn > 0.0 then Printf.sprintf "%.2fx" (t1 /. tn) else "-")
          flips
          (if flips > 0 then "  VERDICT FLIP" else "");
        (rows1, rowsn, (t1, tn), flips, stn.Dist.d_restarts))
      [ 1; 2 ]
  in
  let serial_rows, dist_rows, _, _, _ = List.hd trials in
  (* Per-design matrix from trial 1. Times are sums of the journaled
     per-cell solve seconds (task-sums), so a design's row is not
     perturbed by which lane happened to co-schedule a sibling design. *)
  Printf.printf "\n%-12s %6s %14s %14s %6s\n" "design" "cells" "serial-sum(s)"
    "dist-sum(s)" "flips";
  let matrix =
    List.map
      (fun (e, cells) ->
        let sum rows =
          List.fold_left (fun a c -> a +. (find_row rows c).Dist.r_seconds) 0.0 cells
        in
        (* already counted by the trial's flips *)
        let flips =
          R.lane_flips (lane_matrix cells serial_rows) (lane_matrix cells dist_rows)
        in
        let n = List.length cells in
        Printf.printf "%-12s %6d %14.3f %14.3f %6d\n%!" e.Entry.name n (sum serial_rows)
          (sum dist_rows) flips;
        R.(
          Row
            [
              ("design", Str e.Entry.name);
              ("cells", Int n);
              ("serial_task_s", Num (3, sum serial_rows));
              ("dist_task_s", Num (3, sum dist_rows));
              ("flips", Int flips);
            ]))
      per_design
  in
  let pairs =
    List.filter_map
      (fun (_, _, (t1, tn), _, _) -> if t1 > 0.0 && tn > 0.0 then Some (t1, tn) else None)
      trials
  in
  let geo =
    match R.geo_mean_ratio pairs with
    | None -> nan
    | Some g ->
        Printf.printf
          "\nserial-vs-%d-worker wall-clock speedup, geo-mean over %d trial(s): %.2fx\n"
          workers (List.length pairs) g;
        if g <= 1.0 then
          if Par.default_jobs () <= 1 then
            Printf.printf
              "  note: 1 core available — the fan-out can only measure its own \
               overhead here (>1x needs >=2 cores)\n"
          else
            Printf.printf
              "  note: worker processes no faster than in-process on this machine/run\n";
        g
  in
  (* Kill/resume lane over the whole cell set: SIGKILL one worker
     mid-campaign (`Abort also downs its siblings, the hard variant),
     then resume — leftover shards merge first, journaled Unknowns
     re-solve, and the matrix must match the serial reference. *)
  let reference = lane_matrix all_cells serial_rows in
  let jk = tmp "kill" in
  let rand = Random.State.make [| 0xd157; cfg.seed |] in
  let kill =
    {
      Dist.k_worker = Random.State.int rand workers;
      k_after = 1 + Random.State.int rand (max 1 (min 6 (List.length all_cells - 1)));
      k_mode = `Abort;
    }
  in
  (* An error is the kill landing; Ok means the campaign finished before
     the kill point, which is still fine. *)
  let killed =
    Result.is_error
      (dist_run ~kill ~workers ~journal:jk ~resume:false all_cells)
  in
  let rows_r, st_r = run_lane ~workers ~journal:jk ~resume:true all_cells in
  sweep jk;
  let resume_flips = R.lane_flips reference (lane_matrix all_cells rows_r) in
  Printf.printf
    "kill/resume lane: worker %d SIGKILLed after %d ack(s)%s; resume merged %d \
     shard record(s), skipped %d, %d flip(s) vs serial%s\n"
    kill.Dist.k_worker kill.Dist.k_after
    (if killed then "" else " (campaign finished first)")
    st_r.Dist.d_merged st_r.Dist.d_skipped resume_flips
    (if resume_flips > 0 then "  VERDICT FLIP" else "");
  (* Restart lane: same kill, `Restart mode — the supervisor
     revives the worker and the run completes on its own. *)
  let restart_flips, restart_restarts =
    match per_design with
    | [] -> (0, 0)
    | (e, cells) :: _ ->
        let jr = tmp "restart" in
        let rows, st =
          run_lane
            ~kill:{ Dist.k_worker = 0; k_after = 1; k_mode = `Restart }
            ~workers ~journal:jr ~resume:false cells
        in
        sweep jr;
        let flips = R.lane_flips (lane_matrix cells serial_rows) (lane_matrix cells rows) in
        Printf.printf
          "restart lane (%s): worker 0 SIGKILLed after 1 ack, %d supervised \
           restart(s), %d give-up(s), %d flip(s)%s\n"
          e.Entry.name st.Dist.d_restarts st.Dist.d_gave_up flips
          (if flips > 0 then "  VERDICT FLIP" else "");
        (flips, st.Dist.d_restarts)
  in
  let flips =
    List.fold_left (fun n (_, _, _, f, _) -> n + f) (resume_flips + restart_flips) trials
  in
  if flips = 0 then
    Printf.printf "serial, distributed, kill/resume and restart lanes: all %d cells agree\n"
      (List.length all_cells);
  let restarts =
    List.fold_left (fun n (_, _, _, _, r) -> n + r) restart_restarts trials
  in
  {
    blocks =
      [
        ( "dist",
          dist_block ~workers ~flips ~geo ~restarts ~killed ~resume_flips
            ~skipped:st_r.Dist.d_skipped ~merged:st_r.Dist.d_merged ~matrix cfg );
      ];
    gates = [ { count = flips; what = "distributed-vs-serial verdict flip(s)" } ];
  }

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5);
    ("a1", a1); ("a2", a2); ("a3", a3); ("s1", s1);
    ("f1", f1); ("f2", f2); ("f3", f3);
    ("rob", rob); ("p1", p1); ("r2", r2); ("dist", dist_exp);
    ("obs", obs_exp); ("micro", micro);
  ]

(* The report tree: run-wide figures, one row per experiment run, then one
   block per report section in a fixed order. A section no experiment
   filled keeps its default; "solver" rows from t3 and f1 concatenate. *)
let report env runs =
  let block key default =
    let merge a b = match (a, b) with R.Arr x, R.Arr y -> R.Arr (x @ y) | _, b -> b in
    List.fold_left
      (fun acc (_, _, o) ->
        List.fold_left
          (fun acc (k, j) -> if k = key then merge acc j else acc)
          acc o.blocks)
      default runs
  in
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  R.(
    Obj
      [
        ("schema", Str "gqed-bench/10");
        ( "date",
          Str
            (Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
               tm.Unix.tm_mday) );
        ("jobs", Int env.cfg.jobs);
        ("recommended_domains", Int (Par.default_jobs ()));
        ("unknown_verdicts", Int (Atomic.get env.tally.unknown));
        ("escalation_attempts", Int (Atomic.get env.tally.escalations));
        ("obs", block "obs" (obs_block ()));
        ( "experiments",
          Arr
            (List.map
               (fun (id, wall, _) -> Row [ ("id", Str id); ("wall_s", Num (3, wall)) ])
               runs) );
        ("solver", block "solver" (Arr []));
        ("simplify", block "simplify" (simplify_block ()));
        ("robustness", block "robustness" (robustness_block ()));
        ("portfolio", block "portfolio" (portfolio_block env.cfg));
        ("campaign", block "campaign" (Obj (campaign_members ())));
        ("dist", block "dist" (dist_block env.cfg));
      ])

(* Flags go through Stdlib.Arg; positional arguments are experiment ids.
   Any bad value is a usage error (exit 2). *)
let parse_args () =
  let jobs = ref 1 and pipeline = ref Bmc.default_simplify in
  let timeout = ref None and max_conflicts = ref None and escalate = ref true in
  let portfolio = ref 4 and share = ref true in
  let workers = ref 0 and batch = ref 2 in
  let d = Dist.default_policy in
  let max_restarts = ref d.Dist.max_restarts in
  let backoff = ref d.Dist.backoff_s and retry_oom = ref true in
  let designs = ref None and seed = ref 0 in
  let force = ref false in
  let json = ref None and trace = ref None and metrics = ref None in
  let trace_format = ref `Ndjson in
  let ids = ref [] in
  (* A flag taking a value that must parse and satisfy [ok]; anything else
     is "FLAG expects [what]". *)
  let valued parse ok what set name doc =
    ( name,
      Arg.String
        (fun s ->
          match parse s with
          | Some v when ok v -> set v
          | _ -> raise (Arg.Bad (name ^ " expects " ^ what))),
      doc )
  in
  let positive = valued int_of_string_opt (fun n -> n >= 1) "a positive integer" in
  let path r = valued Option.some (fun _ -> true) "a file path" (fun p -> r := Some p) in
  let specs =
    [
      positive (( := ) jobs) "--jobs" "N fan tasks over N domains";
      ( "--no-simplify",
        Arg.Unit (fun () -> pipeline := Bmc.no_simplify),
        " run t3, f1 and a2 with the formula-shrinking pipeline off" );
      valued float_of_string_opt
        (fun t -> t > 0.0)
        "a positive number of seconds"
        (fun t -> timeout := Some t)
        "--timeout" "SEC per-query time budget";
      positive
        (fun n -> max_conflicts := Some n)
        "--max-conflicts" "N per-query conflict budget";
      ("--no-escalate", Arg.Clear escalate, " do not regrow exhausted budgets");
      positive (( := ) portfolio) "--portfolio" "N portfolio workers of p1 (default 4)";
      ("--no-share", Arg.Clear share, " no clause sharing between p1's workers");
      positive (( := ) workers) "--workers"
        "N worker processes of dist (default: up to 4, at least 2)";
      positive (( := ) batch) "--batch" "M dist's pull batch size (default 2)";
      valued int_of_string_opt
        (fun n -> n >= 0)
        "a non-negative integer" (( := ) max_restarts) "--max-restarts"
        "N restarts of a dead dist worker";
      valued float_of_string_opt
        (fun b -> b >= 0.0)
        "a non-negative number of seconds" (( := ) backoff) "--backoff"
        "SEC pause before the first restart";
      ("--no-retry-oom", Arg.Clear retry_oom, " do not restart workers that ran out of memory");
      valued Option.some
        (fun _ -> true)
        "a comma-separated list"
        (fun s -> designs := Some (String.split_on_char ',' s))
        "--designs" "D1,D2 restrict s1, p1, r2 and dist to these designs";
      path json "--json" "FILE write the report";
      path trace "--trace" "FILE write the span trace";
      path metrics "--metrics" "FILE write the metrics snapshot";
      valued
        (function "ndjson" -> Some `Ndjson | "chrome" -> Some `Chrome | _ -> None)
        (fun _ -> true)
        "ndjson or chrome" (( := ) trace_format) "--trace-format"
        "FMT trace file format: ndjson (default) or chrome";
      ("--force", Arg.Set force, " overwrite existing report, trace and metrics files");
      valued int_of_string_opt
        (fun _ -> true)
        "an integer" (( := ) seed) "--seed" "N seed of r2's and dist's kill points";
    ]
  in
  Arg.parse specs (fun id -> ids := id :: !ids)
    "usage: main.exe [FLAG...] [EXPERIMENT...]\nflags:";
  ( {
      jobs = !jobs;
      pipeline = !pipeline;
      solve =
        {
          (Matrix.default Checks.Gqed) with
          timeout = !timeout;
          max_conflicts = !max_conflicts;
          escalate = !escalate;
        };
      portfolio = !portfolio;
      share = !share;
      workers = !workers;
      batch = !batch;
      policy =
        {
          Dist.max_restarts = !max_restarts;
          backoff_s = !backoff;
          backoff_cap_s = Float.max !backoff d.Dist.backoff_cap_s;
          retry_oom = !retry_oom;
        };
      designs = !designs;
      seed = !seed;
      force = !force;
      json = !json;
      trace = !trace;
      metrics = !metrics;
      trace_format = !trace_format;
    },
    List.rev !ids )

let () =
  (* Dist workers are this binary re-exec'd: a worker invocation takes
     over here (recognized by its environment) before argv is parsed. *)
  Dist.worker_entry ();
  let cfg, ids = parse_args () in
  let requested = match ids with [] -> List.map fst experiments | ids -> ids in
  (* Output-file guards run only after the whole command line is parsed, so
     --force works in any position. Refusing to clobber an existing report
     beats discovering the loss after an hour-long run. *)
  List.iter
    (fun (flag, path) ->
      match path with
      | None -> ()
      | Some path -> (
          match Obs.Export.guard ~force:cfg.force path with
          | Error msg ->
              prerr_endline ("bench: " ^ msg);
              exit 2
          | Ok () -> (
              (* Fail fast on an unwritable path rather than after the run. *)
              try close_out (open_out path)
              with Sys_error e ->
                Printf.eprintf "bench: cannot write %s file: %s\n" flag e;
                exit 2)))
    [ ("--json", cfg.json); ("--trace", cfg.trace); ("--metrics", cfg.metrics) ];
  if cfg.trace <> None || cfg.metrics <> None then Obs.enable ();
  List.iter
    (fun id ->
      if not (List.mem_assoc id experiments) then begin
        Printf.eprintf "bench: unknown experiment %s (known: %s)\n" id
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    requested;
  let tally = { unknown = Atomic.make 0; escalations = Atomic.make 0 } in
  let rec env = { cfg; tally; t2 = lazy (t2_compute env) } in
  Printf.printf "G-QED reproduction harness — %d experiment(s), %d job(s)\n"
    (List.length requested) cfg.jobs;
  let runs =
    List.map
      (fun id ->
        let outcome, dt = time (fun () -> List.assoc id experiments env) in
        Printf.printf "[%s completed in %.1fs]\n%!" id dt;
        (id, dt, outcome))
      requested
  in
  (match cfg.trace with
  | None -> ()
  | Some path ->
      let evs = Obs.Trace.events () in
      Obs.Trace.write ~format:cfg.trace_format path evs;
      Printf.printf "trace written to %s (%d events)\n" path (List.length evs));
  (match cfg.metrics with
  | None -> ()
  | Some path ->
      Obs.Metrics.write path (Obs.Metrics.snapshot ());
      Printf.printf "metrics written to %s\n" path);
  (match cfg.json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (R.render (report env runs));
      close_out oc;
      Printf.printf "bench report written to %s\n" path);
  let failed =
    List.concat_map (fun (_, _, o) -> List.filter (fun g -> g.count > 0) o.gates) runs
  in
  List.iter (fun g -> Printf.eprintf "bench: FAILED — %d %s\n" g.count g.what) failed;
  if failed <> [] then exit 1;
  (* Distinct exit code for "nothing wrong, but some verdicts stayed unknown
     under the --timeout/--max-conflicts budget". *)
  let unknowns = Atomic.get tally.unknown in
  if unknowns > 0 then begin
    Printf.eprintf
      "bench: %d verdict(s) unknown under the configured budget (raise --timeout or \
       --max-conflicts, or drop --no-escalate)\n"
      unknowns;
    exit 3
  end
