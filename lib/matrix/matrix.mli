(** Verification matrices: registry designs crossed with their mutants,
    each cell one bounded QED check. The CLI's [verify] and [campaign] and
    the bench's check funnel, D1 and R2 all check under one {!config} and
    journal through {!Dist.run} on the one registered verification
    solver, {!solver}. Linking this module registers it; a hosting
    executable only calls {!Dist.worker_entry} first thing in [main]. *)

type config = {
  technique : Qed.Checks.technique;
  bound_override : int option;  (** [None]: each design's recommended bound *)
  names : string list;  (** registry designs of the matrix; [] = all *)
  simplify : Bmc.simplify_config;
  mono : bool;
  timeout : float option;  (** seconds per query, and per cell (watchdog) *)
  max_conflicts : int option;  (** per query *)
  escalate : bool;  (** retry undecided checks with grown budgets *)
  portfolio : Sat.Portfolio.config option;
}
(** Everything a check's verdict and governance depend on: plain data,
    {!encode}d into [Dist.run]'s [arg] for worker processes. *)

val default : Qed.Checks.technique -> config
(** All designs at their recommended bounds, the full pipeline,
    incremental BMC, no budgets, escalation on, no portfolio. *)

val encode : config -> string
(** Hex of the [Marshal] image: no NUL bytes, so it fits an environment
    variable. *)

val decode : string -> config

val limits : ?cancel:Sat.Solver.cancel -> config -> Bmc.limits
(** Per-query limits from the budgets and portfolio, plus [cancel]. *)

val check :
  ?cancel:Sat.Solver.cancel ->
  config ->
  Rtl.design ->
  Qed.Iface.t ->
  bound:int ->
  Qed.Checks.report
(** One check of [technique] under {!limits}, through the escalation
    ladder unless [escalate] is false; with finite budgets and a portfolio
    the ladder's rungs race instead of climbing. *)

val check_cell : config -> Rtl.design -> Qed.Iface.t -> bound:int -> Qed.Checks.report
(** {!check} under a whole-check watchdog when [timeout] is set: the
    check, escalation included, is cancelled at the deadline and reports
    [Unknown]. {!solver} runs this for every cell. *)

type task = {
  t_design : string;  (** registry name *)
  t_mutant : string option;  (** mutation id; [None] = the unmutated design *)
  t_cell : Dist.cell;  (** [Qed.Checks.campaign_key] and hint *)
  t_rtl : Rtl.design;
  t_iface : Qed.Iface.t;
  t_bound : int;
}

val tasks : config -> (task list, string) result
(** Each design of [names], then each of its [Mutation.mutants], in
    order. Deterministic from [technique], [bound_override] and [names],
    so a worker rebuilds the coordinator's key space. [Error] names an
    unknown design. *)

val solver : string
(** ["campaign"]: resolves a key among the {!tasks} of the {!decode}d
    [arg] and runs {!check_cell}. Any subset of those keys may be
    submitted (a bench's reduced suite, one verify check). *)

val run :
  ?batch:int ->
  ?policy:Dist.restart_policy ->
  ?sync:bool ->
  config:config ->
  workers:int ->
  checkpoint:string option ->
  resume:bool ->
  force:bool ->
  task list ->
  (Dist.row list * Dist.stats, string) result
(** [tasks] through {!solver} on {!Dist.run}: [workers] processes, or
    in-process at 1. Without a [checkpoint] journal the run uses a
    private temp one, not fsynced, removed with its shards on return. *)
