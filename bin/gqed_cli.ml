(* gqed — command-line driver for the G-QED verification library.

   Subcommands:
     gqed list                          list the benchmark designs
     gqed info DESIGN                   design + interface details
     gqed verify DESIGN [options]       run a QED check (optionally on a mutant)
     gqed campaign [DESIGN...] [options] distributed mutant campaign with checkpointing
     gqed mutants DESIGN                list the mutation ids of a design
     gqed simulate DESIGN [options]     random simulation trace
     gqed crv DESIGN [options]          constrained-random baseline run
     gqed fuzz [options]                differential fuzz of the verifier itself *)

open Cmdliner

module Entry = Designs.Entry
module Registry = Designs.Registry
module Checks = Qed.Checks

let find_design name =
  match Registry.find name with
  | e -> Ok e
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown design %S (known: %s)" name
           (String.concat ", " Registry.names))

let resolve_mutant e = function
  | None -> Ok (e.Entry.design, None)
  | Some id -> begin
      match
        List.find_opt (fun m -> m.Mutation.id = id) (Mutation.enumerate e.Entry.design)
      with
      | None -> Error (Printf.sprintf "unknown mutant id %S (try `gqed mutants %s`)" id e.Entry.name)
      | Some m -> begin
          match Mutation.apply e.Entry.design m with
          | Some design -> Ok (design, Some m)
          | None -> Error (Printf.sprintf "mutant %S does not apply" id)
        end
    end

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc:"Design name.")

let mutant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutant" ] ~docv:"ID" ~doc:"Inject the mutation with this id first.")

let bound_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "bound" ] ~docv:"N"
        ~doc:"BMC unroll bound in cycles (default: the design's recommended bound).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("gqed: " ^ msg);
      exit 2

(* ---- list ---- *)

let list_cmd =
  let run () =
    Printf.printf "%-12s %-12s %s\n" "name" "class" "description";
    List.iter
      (fun e ->
        Printf.printf "%-12s %-12s %s\n" e.Entry.name
          (if e.Entry.interfering then "interfering" else "non-interf.")
          e.Entry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark designs.") Term.(const run $ const ())

(* ---- info ---- *)

let info_cmd =
  let run name =
    let e = or_die (find_design name) in
    let state_bits, input_bits, nodes = Rtl.stats e.Entry.design in
    Printf.printf "%s — %s\n" e.Entry.name e.Entry.description;
    Printf.printf "  class:       %s\n"
      (if e.Entry.interfering then "interfering" else "non-interfering");
    Printf.printf "  state bits:  %d\n" state_bits;
    Printf.printf "  input bits:  %d\n" input_bits;
    Printf.printf "  expr nodes:  %d\n" nodes;
    Printf.printf "  interface:   %s\n" (Format.asprintf "%a" Qed.Iface.pp e.Entry.iface);
    Printf.printf "  rec. bound:  %d\n" e.Entry.rec_bound;
    Printf.printf "  mutants:     %d\n" (List.length (Mutation.enumerate e.Entry.design))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show a design's details.")
    Term.(const run $ design_arg)

(* ---- verify ---- *)

let techniques =
  [
    ("gqed", Checks.Gqed); ("flow", Checks.Gqed_flow); ("aqed", Checks.Aqed);
    ("gqed-out", Checks.Gqed_output_only); ("sa", Checks.Sa);
    ("stability", Checks.Stability);
  ]

let technique_arg =
  Arg.(
    value
    & opt (enum techniques) Checks.Gqed
    & info [ "technique" ] ~docv:"TECH"
        ~doc:
          "One of $(b,gqed) (default), $(b,flow) (reset+SA+stability+G-FC), \
           $(b,aqed), $(b,gqed-out) (ablation), $(b,sa), $(b,stability).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "With $(b,--all-mutants), solve the per-mutant checks in $(docv) worker \
           processes (this executable re-run as a campaign worker, exactly as \
           $(b,gqed campaign --workers)); $(b,1) (default) solves them \
           in-process. Verdicts are identical to the serial run. A single check \
           runs in-process whatever $(docv) is.")

let all_mutants_flag =
  Arg.(
    value
    & flag
    & info [ "all-mutants" ]
        ~doc:"Run the chosen technique on every mutant of the design and print a table.")

(* Formula-shrinking pipeline knobs. The verdict never depends on these;
   they exist for ablation and debugging (see lib/bmc/bmc.mli). *)
let simplify_term =
  let no_simplify =
    Arg.(
      value & flag
      & info [ "no-simplify" ]
          ~doc:"Disable the whole formula-shrinking pipeline (COI, AIG rewriting, \
                polarity-aware Tseitin, CNF preprocessing).")
  in
  let stage_flag name doc = Arg.(value & flag & info [ "no-" ^ name ] ~doc) in
  let combine off coi rewrite pg cnf =
    if off then Bmc.no_simplify
    else
      {
        Bmc.sc_coi = not coi;
        sc_rewrite = not rewrite;
        sc_pg = not pg;
        sc_cnf = not cnf;
      }
  in
  Term.(
    const combine $ no_simplify
    $ stage_flag "coi" "Disable cone-of-influence reduction."
    $ stage_flag "rewrite" "Disable AIG rewriting and per-query compaction."
    $ stage_flag "pg" "Disable polarity-aware (Plaisted-Greenbaum) Tseitin."
    $ stage_flag "cnf" "Disable CNF preprocessing (subsumption / strengthening / BVE).")

let mono_flag =
  Arg.(
    value & flag
    & info [ "mono" ]
        ~doc:
          "Monolithic mode: blast the design once, run every SAT query on a fresh \
           solver. Unlocks the per-query compaction and variable-elimination \
           stages of the pipeline; same verdicts as the incremental default.")

let simp_stats_flag =
  Arg.(
    value & flag
    & info [ "simp-stats" ]
        ~doc:"Print the formula-shrinking pipeline statistics after the verdict.")

(* Resource-governance knobs. A budget that runs out yields an Unknown
   verdict (exit code 3) instead of hanging; escalation retries undecided
   checks with exponentially grown budgets and perturbed configurations. *)
let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget in seconds, per query and per check. An exhausted \
           budget turns the verdict into $(b,unknown) (exit code 3) rather than \
           hanging; a watchdog caps each check's whole run, escalation \
           included, at $(docv): the single check, or with $(b,--all-mutants) \
           each mutant's check, in the process solving it.")

let max_conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:"Per-query conflict budget; exhausted budgets yield $(b,unknown).")

let no_escalate_flag =
  Arg.(
    value & flag
    & info [ "no-escalate" ]
        ~doc:
          "Give up after the first undecided attempt instead of retrying with \
           exponentially grown budgets and perturbed configurations.")

(* Portfolio knobs: intra-query parallelism racing diversified solvers on
   every SAT query (see lib/sat/PORTFOLIO.md). *)
let portfolio_arg =
  Arg.(
    value & opt int 1
    & info [ "portfolio" ] ~docv:"N"
        ~doc:
          "Race $(docv) diversified clause-sharing CDCL workers on every SAT \
           query; the first decisive worker wins and its verdict is certified \
           exactly like the single-solver lane. $(b,1) (default) keeps the \
           plain single solver. With finite budgets and escalation on, the \
           ladder's rungs race concurrently instead of sequentially.")

let no_share_flag =
  Arg.(
    value & flag
    & info [ "no-share" ]
        ~doc:"Disable learnt-clause sharing between portfolio workers (pure race).")

let deterministic_flag =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Reproducible portfolio: no clause sharing, every worker runs to \
           completion, lowest decided worker index wins — the same worker \
           count and seed always give the same winner and stats.")

(* Campaign persistence (see lib/persist/DESIGN.md): journal every check's
   verdict to a crash-safe write-ahead log; a resumed run skips the keys
   already decided and reproduces the uninterrupted output bit-for-bit. *)
let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal every check's verdict to the crash-safe log $(docv) as the \
           run progresses. A killed run can then be continued with \
           $(b,--resume), skipping the already-decided checks; journaled \
           $(b,unknown) verdicts are always re-attempted. Refuses an existing \
           journal unless $(b,--resume) or $(b,--force).")

let resume_flag =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue the campaign journaled at $(b,--checkpoint): decided \
           checks are answered from the journal, the rest run as usual. A \
           missing journal is an error, not a silent cold start.")

let cli_force_flag =
  Arg.(
    value & flag
    & info [ "force" ]
        ~doc:"Allow starting a fresh campaign over an existing $(b,--checkpoint) journal.")

(* Supervision knobs, shared by verify --all-mutants and campaign: both
   run their cells on Dist.run under this restart policy. *)
let policy_term =
  let d = Dist.default_policy in
  let max_restarts_arg =
    Arg.(
      value
      & opt int d.Dist.max_restarts
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Restart a crashed worker process (or retry a crashed in-process \
             solve) at most $(docv) times before giving up on it; its cells \
             degrade to $(b,unknown) and are re-attempted on $(b,--resume).")
  in
  let backoff_arg =
    Arg.(
      value
      & opt float d.Dist.backoff_s
      & info [ "backoff" ] ~docv:"SEC"
          ~doc:
            "Base delay before a worker restart; doubles per consecutive restart \
             (capped).")
  in
  let no_retry_oom_arg =
    Arg.(
      value & flag
      & info [ "no-retry-oom" ]
          ~doc:
            "Never restart a worker that died of memory exhaustion — an OOM task \
             would only OOM again; its cell degrades to $(b,unknown) and is \
             re-attempted on $(b,--resume).")
  in
  let combine max_restarts backoff_s no_retry_oom =
    if max_restarts < 0 then begin
      prerr_endline "gqed: --max-restarts must be non-negative";
      exit 2
    end;
    {
      Dist.max_restarts;
      backoff_s;
      backoff_cap_s = Float.max backoff_s d.Dist.backoff_cap_s;
      retry_oom = not no_retry_oom;
    }
  in
  Term.(const combine $ max_restarts_arg $ backoff_arg $ no_retry_oom_arg)

(* The stderr summary of a --checkpoint journal, printed when the run ends. *)
let journal_summary path (s : Persist.Campaign.stats) =
  Printf.eprintf
    "gqed: campaign journal %s: %d record(s) loaded (%d undecided), %d check(s) \
     skipped, %d appended%s\n\
     %!"
    path s.Persist.Campaign.c_loaded s.Persist.Campaign.c_undecided_loaded
    s.Persist.Campaign.c_hits s.Persist.Campaign.c_appended
    (if s.Persist.Campaign.c_write_errors > 0 then
       Printf.sprintf " (%d append(s) LOST to I/O errors)" s.Persist.Campaign.c_write_errors
     else "")

let start_campaign ~checkpoint ~resume ~force =
  match checkpoint with
  | None -> None
  | Some path -> (
      match Persist.Campaign.start ~resume ~force path with
      | Error msg ->
          prerr_endline ("gqed: " ^ msg);
          exit 2
      | Ok c ->
          (* Every verdict path funnels through Stdlib.exit, so the summary
             and the final fsync/close always happen. *)
          at_exit (fun () ->
              journal_summary path (Persist.Campaign.stats c);
              Persist.Campaign.close c);
          Some c)

let portfolio_config ~portfolio ~no_share ~deterministic =
  if portfolio <= 1 then None
  else
    Some
      (Sat.Portfolio.config ~workers:portfolio ~share:(not no_share)
         ~deterministic ())

(* Everything a check's verdict and governance depend on. A matrix run
   hands it to its worker processes as [Dist.run]'s [arg], so it is plain
   data, marshalled and hex-encoded: it travels in an environment
   variable, which cannot hold NUL bytes. *)
type solve_config = {
  technique : Checks.technique;
  bound_override : int option;
  names : string list;  (** registry designs of the matrix; [] = all *)
  simplify : Bmc.simplify_config;
  mono : bool;
  timeout : float option;
  max_conflicts : int option;
  escalate : bool;
  portfolio : Sat.Portfolio.config option;
}

let encode_config (c : solve_config) =
  let s = Marshal.to_string c [] in
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let decode_config arg : solve_config =
  Marshal.from_string
    (String.init (String.length arg / 2) (fun i ->
         Char.chr (int_of_string ("0x" ^ String.sub arg (2 * i) 2))))
    0

(* One check under the configured budgets and escalation. With finite
   budgets and a portfolio, the escalation ladder's rungs race
   portfolio-wide instead of climbing; with unbounded budgets the first
   attempt decides and the per-query portfolio does the work. *)
let check ?cancel (c : solve_config) design iface ~bound =
  let budget =
    match (c.timeout, c.max_conflicts) with
    | None, None -> None
    | seconds, conflicts -> Some (Sat.Solver.budget ?conflicts ?seconds ())
  in
  let limits =
    match (budget, cancel, c.portfolio) with
    | None, None, None -> Bmc.no_limits
    | _ -> Bmc.limits ?budget ?cancel ?portfolio:c.portfolio ()
  in
  let simplify = c.simplify and mono = c.mono in
  if not c.escalate then Checks.run ~simplify ~mono ~limits c.technique design iface ~bound
  else
    let jobs = match c.portfolio with Some p -> p.Sat.Portfolio.p_workers | None -> 1 in
    Checks.run_escalating ~racing:(jobs > 1 && budget <> None) ~jobs ~simplify ~mono
      ~limits c.technique design iface ~bound

(* One check as the CLI runs it: a single verify or a matrix cell. Under
   --timeout a watchdog cancels the whole check at the deadline,
   escalation included, in whichever process solves it; without it the
   escalation ladder could run to 64x the per-query budget. *)
let check_cell (c : solve_config) design iface ~bound =
  match c.timeout with
  | None -> check c design iface ~bound
  | Some deadline -> (
      match
        Par.map_governed ~jobs:1 ~deadline
          (fun cancel () -> check ~cancel c design iface ~bound)
          [ () ]
      with
      | [ (Ok report, _) ] -> report
      | [ (Error e, _) ] -> raise e
      | _ -> assert false)

(* ---- matrix runs: verify --all-mutants and campaign ---- *)

(* One task per cell: the design it belongs to, the mutation (None for
   the unmutated design), its Dist cell, and what the solver needs to
   re-run it. Deterministic from the config's technique, bound override
   and design names, so a worker process rebuilds exactly this list. *)
type task = {
  t_design : string;
  t_mutant : string option;
  t_cell : Dist.cell;
  t_rtl : Rtl.design;
  t_iface : Qed.Iface.t;
  t_bound : int;
}

let campaign_tasks (c : solve_config) =
  let entries =
    match c.names with
    | [] -> Registry.all
    | names ->
        List.map
          (fun n -> match find_design n with Ok e -> e | Error msg -> failwith msg)
          names
  in
  List.concat_map
    (fun e ->
      let bound = Option.value c.bound_override ~default:e.Entry.rec_bound in
      let task t_mutant d =
        {
          t_design = e.Entry.name;
          t_mutant;
          t_cell =
            {
              Dist.cell_key = Checks.campaign_key c.technique d e.Entry.iface ~bound;
              cell_hint = Checks.campaign_hint d ~bound;
            };
          t_rtl = d;
          t_iface = e.Entry.iface;
          t_bound = bound;
        }
      in
      task None e.Entry.design
      :: List.map
           (fun (m, d) -> task (Some m.Mutation.id) d)
           (Mutation.mutants e.Entry.design))
    entries

(* Worker processes rebuild the config and the key -> task table from
   [arg] alone. *)
let campaign_tables : (string, solve_config * (string, task) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 4

let campaign_solver ~arg key =
  let config, table =
    match Hashtbl.find_opt campaign_tables arg with
    | Some ct -> ct
    | None ->
        let config = decode_config arg in
        let t = Hashtbl.create 64 in
        List.iter
          (fun task -> Hashtbl.replace t task.t_cell.Dist.cell_key task)
          (campaign_tasks config);
        Hashtbl.add campaign_tables arg (config, t);
        (config, t)
  in
  match Hashtbl.find_opt table key with
  | None -> failwith ("campaign worker: unknown cell key " ^ key)
  | Some t ->
      let r = check_cell config t.t_rtl t.t_iface ~bound:t.t_bound in
      (Checks.report_decided r, Checks.encode_report r)

let () = Dist.register "campaign" campaign_solver

(* Solve [tasks] on Dist.run: [workers] processes, or in-process at 1.
   Without a [checkpoint] the run journals to a private temp file, not
   fsynced, removed with its worker shards before returning. *)
let run_matrix ~config ~workers ?batch ~policy ?(sync = true) ~checkpoint ~resume ~force
    tasks =
  let journal, sync, force, temp =
    match checkpoint with
    | Some path -> (path, sync, force, false)
    | None -> (Filename.temp_file "gqed-matrix" ".jrnl", false, true, true)
  in
  let cleanup () =
    if temp then
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (journal :: List.init workers (Dist.worker_journal journal))
  in
  match
    Fun.protect ~finally:cleanup (fun () ->
        Dist.run ~workers ?batch ~policy ~sync ~arg:(encode_config config) ~resume
          ~force ~journal ~solver:"campaign"
          (List.map (fun t -> t.t_cell) tasks))
  with
  | Error msg ->
      prerr_endline ("gqed: " ^ msg);
      exit 2
  | Ok (rows, stats) ->
      if not temp then journal_summary journal stats.Dist.d_campaign;
      (rows, stats)

(* The one matrix printer: a row per task, then the campaign summary. A
   mutant must be detected and an unmutated design must pass. Returns
   the number of detected mutants, the number of undecided cells and the
   exit code: 3 if any cell is undecided, else 1 on any escape or false
   alarm, else 0. *)
let print_matrix ~header ~label tasks (rows, stats) =
  let by_key = Hashtbl.create 64 in
  List.iter (fun (r : Dist.row) -> Hashtbl.replace by_key r.Dist.r_key r) rows;
  Printf.printf "%-40s %-18s %9s\n" header "verdict" "time";
  let detected = ref 0 and undecided = ref 0 and anomalies = ref 0 in
  List.iter
    (fun t ->
      let r = Hashtbl.find by_key t.t_cell.Dist.cell_key in
      let report =
        if r.Dist.r_decided then Checks.decode_report r.Dist.r_payload else None
      in
      let verdict =
        match (Option.map (fun r -> r.Checks.verdict) report, t.t_mutant) with
        | Some (Checks.Fail _), Some _ ->
            incr detected;
            "detected"
        | Some (Checks.Pass _), None -> "pass"
        | Some (Checks.Fail _), None ->
            incr anomalies;
            "FAIL"
        | Some (Checks.Pass _), Some _ ->
            incr anomalies;
            "ESCAPE"
        | (Some (Checks.Unknown _) | None), _ ->
            incr undecided;
            "unknown"
      in
      Printf.printf "%-40s %-18s %8.2fs%s\n" (label t) verdict r.Dist.r_seconds
        (if r.Dist.r_warm then "  (journal)" else ""))
    tasks;
  Printf.printf "campaign: %d cell(s), %d from journal, %d dispatched across %d worker(s)\n"
    stats.Dist.d_cells stats.Dist.d_skipped stats.Dist.d_dispatched stats.Dist.d_workers;
  if
    stats.Dist.d_restarts + stats.Dist.d_gave_up + stats.Dist.d_degraded
    + stats.Dist.d_stale_unknowns
    > 0
  then
    Printf.printf
      "supervisor: %d restart(s), %d give-up(s), %d cell(s) solved degraded, %d stale \
       unknown(s) dropped\n"
      stats.Dist.d_restarts stats.Dist.d_gave_up stats.Dist.d_degraded
      stats.Dist.d_stale_unknowns;
  let cs = stats.Dist.d_campaign in
  if cs.Persist.Campaign.c_compactions > 0 then
    Printf.printf "journal: compacted, %d stale record(s) folded away\n"
      cs.Persist.Campaign.c_compacted_away;
  (!detected, !undecided, if !undecided > 0 then 3 else if !anomalies > 0 then 1 else 0)

let waveform_flag =
  Arg.(value & flag & info [ "waveform" ] ~doc:"Print the full counterexample waveform.")

let vcd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE" ~doc:"Write the waveform to $(docv) in VCD format.")

(* ---- observability ---- *)

(* The obs layer is disabled by default and costs one atomic load per guard
   when off. [--trace FILE] / [--metrics FILE] enable it for the whole run
   and flush through [at_exit], so the files are written whatever exit path
   the verdict takes (exit 0/1/3 all funnel through Stdlib.exit). *)
let obs_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable the observability layer and write the span trace to $(docv) \
           on exit. The format is chosen by $(b,--trace-format); the ndjson \
           form is checkable with $(b,gqed trace-check), the chrome form \
           loads in Perfetto / chrome://tracing.")

let obs_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the observability layer and write a JSON metrics snapshot \
           (counters, gauges, histograms) to $(docv) on exit.")

let obs_format_arg =
  let formats = [ ("ndjson", `Ndjson); ("chrome", `Chrome) ] in
  Arg.(
    value
    & opt (enum formats) `Ndjson
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Trace file format: $(b,ndjson) (default) or $(b,chrome).")

let setup_obs ~trace ~metrics ~format =
  if trace <> None || metrics <> None then begin
    Obs.enable ();
    at_exit (fun () ->
        (match trace with
        | None -> ()
        | Some path ->
            Obs.Trace.write ~format path (Obs.Trace.events ());
            Printf.eprintf "gqed: trace written to %s\n%!" path);
        match metrics with
        | None -> ()
        | Some path ->
            Obs.Metrics.write path (Obs.Metrics.snapshot ());
            Printf.eprintf "gqed: metrics written to %s\n%!" path)
  end

let verify_cmd =
  let report_and_exit ~name ~waveform ~vcd ~dt ~simp_stats report =
    Format.printf "%a@." Checks.pp_verdict report.Checks.verdict;
    Printf.printf "cnf: %d vars, %d clauses; %s; %.2fs\n" report.Checks.cnf_vars
      report.Checks.cnf_clauses
      (Format.asprintf "%a" Sat.Solver.pp_stats report.Checks.sat_stats)
      dt;
    if simp_stats then
      Format.printf "simplify: %a@." Bmc.Engine.pp_simp_stats report.Checks.simp;
    (match report.Checks.attempts with
    | [] | [ _ ] -> ()
    | attempts ->
        Printf.printf "escalation (%d attempts):\n" (List.length attempts);
        List.iter (fun a -> Format.printf "  %a@." Bmc.Escalate.pp_attempt a) attempts);
    match report.Checks.verdict with
    | Checks.Pass _ -> exit 0
    | Checks.Unknown u ->
        Printf.printf "gave up: %s at cycle %d (raise --timeout/--max-conflicts)\n"
          (Sat.Solver.reason_to_string u.Checks.u_reason)
          u.Checks.u_bound;
        exit 3
    | Checks.Fail f ->
        if waveform then Format.printf "%a" Bmc.pp_witness f.Checks.witness;
        (match vcd with
        | Some path ->
            Vcd.to_file path (Vcd.of_witness ~design_name:name f.Checks.witness);
            Printf.printf "waveform written to %s\n" path
        | None -> ());
        exit 1
  in
  let run name technique bound mutant all_mutants jobs waveform vcd simplify mono
      simp_stats timeout max_conflicts no_escalate portfolio no_share deterministic
      checkpoint resume force policy obs_trace obs_metrics obs_format =
    setup_obs ~trace:obs_trace ~metrics:obs_metrics ~format:obs_format;
    if jobs < 1 then begin
      prerr_endline "gqed: --jobs must be a positive integer";
      exit 2
    end;
    if portfolio < 1 then begin
      prerr_endline "gqed: --portfolio must be a positive integer";
      exit 2
    end;
    (* Never oversubscribe: the product of the worker processes and the
       per-query portfolio is capped at the machine's core count. Only
       --all-mutants fans out; a single check is one outer task. *)
    let portfolio =
      let outer = if all_mutants then jobs else 1 in
      let clamped, did = Par.clamp_inner ~jobs:outer ~inner:portfolio in
      if did then
        Printf.eprintf
          "gqed: warning: --jobs %d x --portfolio %d exceeds %d cores; portfolio \
           clamped to %d\n\
           %!"
          outer portfolio (Par.default_jobs ()) clamped;
      clamped
    in
    if resume && checkpoint = None then begin
      prerr_endline "gqed: --resume requires --checkpoint FILE";
      exit 2
    end;
    let e = or_die (find_design name) in
    let config =
      {
        technique;
        bound_override = bound;
        names = [ name ];
        simplify;
        mono;
        timeout;
        max_conflicts;
        escalate = not no_escalate;
        portfolio = portfolio_config ~portfolio ~no_share ~deterministic;
      }
    in
    if all_mutants then begin
      if mutant <> None then begin
        prerr_endline "gqed: --mutant and --all-mutants are mutually exclusive";
        exit 2
      end;
      (* The same cells, solver and supervision as gqed campaign, minus the
         unmutated design. *)
      let tasks = List.filter (fun t -> t.t_mutant <> None) (campaign_tasks config) in
      let detected, unknown, code =
        run_matrix ~config ~workers:jobs ~policy ~checkpoint ~resume ~force tasks
        |> print_matrix ~header:"mutant" ~label:(fun t -> Option.get t.t_mutant) tasks
      in
      Printf.printf "detected %d/%d mutants (%d unknown)\n" detected (List.length tasks)
        unknown;
      exit code
    end;
    let bound = Option.value bound ~default:e.Entry.rec_bound in
    let campaign = start_campaign ~checkpoint ~resume ~force in
    let design, m = or_die (resolve_mutant e mutant) in
    (match m with
    | Some m -> Printf.printf "injected mutation: %s (%s)\n" m.Mutation.id m.Mutation.description
    | None -> ());
    let t0 = Unix.gettimeofday () in
    let report =
      let solve () = check_cell config design e.Entry.iface ~bound in
      match campaign with
      | None -> solve ()
      | Some c -> (
          let key = Checks.campaign_key technique design e.Entry.iface ~bound in
          match Option.bind (Persist.Campaign.find_decided c key) Checks.decode_report with
          | Some report -> report
          | None ->
              let report = solve () in
              Persist.Campaign.record c ~decided:(Checks.report_decided report) ~key
                ~payload:(Checks.encode_report report);
              report)
    in
    let dt = Unix.gettimeofday () -. t0 in
    report_and_exit ~name ~waveform ~vcd ~dt ~simp_stats report
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run a QED check on a design (or one of its mutants).")
    Term.(
      const run $ design_arg $ technique_arg $ bound_arg $ mutant_arg $ all_mutants_flag
      $ jobs_arg $ waveform_flag $ vcd_arg $ simplify_term $ mono_flag $ simp_stats_flag
      $ timeout_arg $ max_conflicts_arg $ no_escalate_flag $ portfolio_arg
      $ no_share_flag $ deterministic_flag $ checkpoint_arg
      $ resume_flag $ cli_force_flag $ policy_term $ obs_trace_arg $ obs_metrics_arg
      $ obs_format_arg)

(* ---- campaign ---- *)

(* A distributed sharded campaign: every (design, mutant) cell of the
   chosen designs, solved across N worker processes with pull-based
   batching, journaled per worker and merged into one checkpoint (see
   lib/dist/DESIGN.md). Workers are this executable re-exec'd, so the
   solver rebuilds its key -> task table from the [arg] string alone. *)

let campaign_cmd =
  let designs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DESIGN"
          ~doc:"Designs to campaign over (default: every registry design).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int (Par.default_jobs ())
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Shard the campaign across $(docv) worker processes (default: the \
             machine's core count). $(b,1) solves in-process — the serial \
             baseline with the same journal and the same verdicts.")
  in
  let batch_arg =
    Arg.(
      value & opt int 2
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Cells a worker may hold unacked (pull-based dynamic batching); \
             small keeps the hardest-first queue adaptive, large amortizes \
             protocol chatter.")
  in
  let no_sync_arg =
    Arg.(
      value & flag
      & info [ "no-sync" ]
          ~doc:
            "Skip the per-record fsync in worker journals (faster; a power loss \
             may drop the last records, a mere SIGKILL cannot).")
  in
  let run names technique bound workers batch no_sync checkpoint resume force
      policy obs_trace obs_metrics obs_format =
    setup_obs ~trace:obs_trace ~metrics:obs_metrics ~format:obs_format;
    if workers < 1 then begin
      prerr_endline "gqed: --workers must be a positive integer";
      exit 2
    end;
    if batch < 1 then begin
      prerr_endline "gqed: --batch must be a positive integer";
      exit 2
    end;
    let checkpoint =
      match checkpoint with
      | Some path -> path
      | None ->
          prerr_endline "gqed: campaign requires --checkpoint FILE (the shared journal)";
          exit 2
    in
    let config =
      {
        technique;
        bound_override = bound;
        names;
        simplify = Bmc.default_simplify;
        mono = false;
        timeout = None;
        max_conflicts = None;
        escalate = true;
        portfolio = None;
      }
    in
    let tasks =
      try campaign_tasks config
      with Failure msg ->
        prerr_endline ("gqed: " ^ msg);
        exit 2
    in
    let label t =
      match t.t_mutant with None -> t.t_design | Some id -> t.t_design ^ ":" ^ id
    in
    let _, _, code =
      run_matrix ~config ~workers ~batch ~policy ~sync:(not no_sync)
        ~checkpoint:(Some checkpoint) ~resume ~force tasks
      |> print_matrix ~header:"cell" ~label tasks
    in
    exit code
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a distributed verification campaign: every (design, mutant) cell \
          sharded across worker processes, journaled per worker, merged into a \
          resumable checkpoint. Kill it anytime; $(b,--resume) reproduces the \
          uninterrupted verdict matrix bit-for-bit.")
    Term.(
      const run $ designs_arg $ technique_arg $ bound_arg $ workers_arg $ batch_arg
      $ no_sync_arg $ checkpoint_arg $ resume_flag $ cli_force_flag $ policy_term
      $ obs_trace_arg $ obs_metrics_arg $ obs_format_arg)

(* ---- mutants ---- *)

let mutants_cmd =
  let run name =
    let e = or_die (find_design name) in
    List.iter
      (fun (m, _) ->
        Printf.printf "%-40s %-12s %s\n" m.Mutation.id
          (Mutation.class_to_string (Mutation.class_of m.Mutation.operator))
          m.Mutation.description)
      (Mutation.mutants e.Entry.design)
  in
  Cmd.v
    (Cmd.info "mutants" ~doc:"List applicable mutations of a design.")
    Term.(const run $ design_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let cycles_arg =
    Arg.(value & opt int 10 & info [ "cycles" ] ~docv:"N" ~doc:"Number of cycles.")
  in
  let run name cycles seed vcd =
    let e = or_die (find_design name) in
    let rand = Random.State.make [| seed |] in
    let inputs =
      List.init cycles (fun _ ->
          if Random.State.float rand 1.0 < 0.2 then Entry.idle_valuation e
          else Entry.operand_valuation e ~valid:true (e.Entry.sample_operand rand))
    in
    let trace = Rtl.simulate e.Entry.design inputs in
    Format.printf "%a" Rtl.pp_trace trace;
    match vcd with
    | Some path ->
        Vcd.to_file path (Vcd.of_trace ~design_name:name trace);
        Printf.printf "waveform written to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a random simulation and print the waveform.")
    Term.(const run $ design_arg $ cycles_arg $ seed_arg $ vcd_arg)

(* ---- crv ---- *)

let crv_cmd =
  let budget_arg =
    Arg.(value & opt int 1000 & info [ "budget" ] ~docv:"N" ~doc:"Transaction budget.")
  in
  let run name mutant budget seed =
    let e = or_die (find_design name) in
    let design, m = or_die (resolve_mutant e mutant) in
    (match m with
    | Some m -> Printf.printf "injected mutation: %s\n" m.Mutation.id
    | None -> ());
    let outcome =
      Testbench.Crv.run ~design_override:design e
        { Testbench.Crv.seed; max_transactions = budget; idle_prob = 0.2 }
    in
    Format.printf "%a@." Testbench.Crv.pp_outcome outcome;
    exit (if outcome.Testbench.Crv.detected then 1 else 0)
  in
  Cmd.v
    (Cmd.info "crv" ~doc:"Run the constrained-random baseline against the golden model.")
    Term.(const run $ design_arg $ mutant_arg $ budget_arg $ seed_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of random designs to generate.")
  in
  let cert_flag =
    Arg.(
      value & flag
      & info [ "cert" ]
          ~doc:
            "Certify every UNSAT answer of the BMC oracles with a DRAT proof \
             checked by the independent in-repo checker.")
  in
  let dimacs_arg =
    Arg.(
      value & opt int 0
      & info [ "dimacs" ] ~docv:"N"
          ~doc:
            "Additionally fuzz the SAT solver on $(docv) random DIMACS instances \
             (cross-checked against an exhaustive enumerator).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "fuzz-failures"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for shrunk failing designs (created on first failure).")
  in
  let run seed count cert dimacs_count out =
    Printf.printf "fuzzing %d designs (seed %d, certification %s)\n%!" count seed
      (if cert then "on" else "off");
    let summary =
      Fuzz.run ~out_dir:out
        ~progress:(fun i ->
          if (i + 1) mod 50 = 0 then Printf.printf "  %d/%d designs done\n%!" (i + 1) count)
        ~seed ~count ~cert ()
    in
    List.iter
      (fun (f : Fuzz.failure) ->
        Printf.printf "FAIL case %d, oracle %s: %s\n" f.Fuzz.case f.Fuzz.oracle
          f.Fuzz.message;
        (match f.Fuzz.file with
        | Some path -> Printf.printf "  shrunk reproducer written to %s\n" path
        | None -> ());
        print_string (Fuzz.design_to_string f.Fuzz.design))
      summary.Fuzz.failures;
    let dimacs_bad =
      if dimacs_count > 0 then begin
        Printf.printf "fuzzing %d DIMACS instances\n%!" dimacs_count;
        let bad = Fuzz.dimacs ~seed ~count:dimacs_count ~cert () in
        List.iter
          (fun (i, msg) -> Printf.printf "FAIL dimacs instance %d: %s\n" i msg)
          bad;
        List.length bad
      end
      else 0
    in
    Printf.printf "%d cases, %d failures" summary.Fuzz.cases
      (List.length summary.Fuzz.failures + dimacs_bad);
    if cert then
      Printf.printf ", %d UNSAT bounds DRAT-certified" summary.Fuzz.certified_unsats;
    print_newline ();
    exit (if summary.Fuzz.failures = [] && dimacs_bad = 0 then 0 else 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the verification stack itself: random well-typed \
          designs through independent simulator/BMC/AIG/solver paths, with \
          optional DRAT certification of every UNSAT verdict.")
    Term.(const run $ seed_arg $ count_arg $ cert_flag $ dimacs_arg $ out_arg)

(* ---- trace-check ---- *)

let trace_check_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,--trace) (ndjson or chrome).")
  in
  let run file =
    match Obs.Trace.validate_file file with
    | Ok n ->
        Printf.printf "%s: %d events, well-formed\n" file n;
        exit 0
    | Error msg ->
        Printf.eprintf "gqed: %s: %s\n" file msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a trace file's structural well-formedness: strictly \
          increasing sequence numbers, per-domain monotone timestamps, and \
          balanced begin/end span nesting.")
    Term.(const run $ file_arg)

let () =
  (* Campaign workers are this binary re-exec'd: a worker invocation
     (recognized by its environment) takes over before cmdliner runs. *)
  Dist.worker_entry ();
  let info =
    Cmd.info "gqed" ~version:"1.0.0"
      ~doc:"G-QED pre-silicon verification of (interfering) hardware accelerators"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; info_cmd; verify_cmd; campaign_cmd; mutants_cmd; simulate_cmd;
            crv_cmd; fuzz_cmd; trace_check_cmd;
          ]))
