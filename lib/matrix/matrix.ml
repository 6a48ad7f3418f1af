(* Verification matrices: a registry design crossed with its mutants,
   each cell one bounded QED check, solved on Dist.run by the registered
   "campaign" solver. The CLI (verify, verify --all-mutants, campaign)
   and the bench (its check funnel, D1 and R2) share this module, so
   there is one config, one check under budgets, and one solver. *)

module Entry = Designs.Entry
module Registry = Designs.Registry
module Checks = Qed.Checks

(* Everything a check's verdict and governance depend on. A matrix run
   hands it to its worker processes as [Dist.run]'s [arg], so it is plain
   data, marshalled and hex-encoded: it travels in an environment
   variable, which cannot hold NUL bytes. *)
type config = {
  technique : Checks.technique;
  bound_override : int option;
  names : string list;
  simplify : Bmc.simplify_config;
  mono : bool;
  timeout : float option;
  max_conflicts : int option;
  escalate : bool;
  portfolio : Sat.Portfolio.config option;
}

let default technique =
  {
    technique;
    bound_override = None;
    names = [];
    simplify = Bmc.default_simplify;
    mono = false;
    timeout = None;
    max_conflicts = None;
    escalate = true;
    portfolio = None;
  }

let encode (c : config) =
  let s = Marshal.to_string c [] in
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let decode arg : config =
  Marshal.from_string
    (String.init (String.length arg / 2) (fun i ->
         Char.chr (int_of_string ("0x" ^ String.sub arg (2 * i) 2))))
    0

let budget (c : config) =
  match (c.timeout, c.max_conflicts) with
  | None, None -> None
  | seconds, conflicts -> Some (Sat.Solver.budget ?conflicts ?seconds ())

let limits ?cancel (c : config) =
  let budget = budget c in
  match (budget, cancel, c.portfolio) with
  | None, None, None -> Bmc.no_limits
  | _ -> Bmc.limits ?budget ?cancel ?portfolio:c.portfolio ()

(* One check under the configured budgets and escalation. With finite
   budgets and a portfolio, the escalation ladder's rungs race
   portfolio-wide instead of climbing; with unbounded budgets the first
   attempt decides and the per-query portfolio does the work. *)
let check ?cancel (c : config) design iface ~bound =
  let limits = limits ?cancel c in
  let simplify = c.simplify and mono = c.mono in
  if not c.escalate then Checks.run ~simplify ~mono ~limits c.technique design iface ~bound
  else
    let jobs = match c.portfolio with Some p -> p.Sat.Portfolio.p_workers | None -> 1 in
    Checks.run_escalating ~racing:(jobs > 1 && budget c <> None) ~jobs ~simplify ~mono
      ~limits c.technique design iface ~bound

(* One check as a single verify or a matrix cell runs it. Under a
   timeout a watchdog cancels the whole check at the deadline,
   escalation included, in whichever process solves it; without it the
   escalation ladder could run to 64x the per-query budget. *)
let check_cell (c : config) design iface ~bound =
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

let tasks (c : config) =
  match List.find_opt (fun n -> not (List.mem n Registry.names)) c.names with
  | Some n ->
      Error
        (Printf.sprintf "unknown design %S (known: %s)" n (String.concat ", " Registry.names))
  | None ->
      let entries = if c.names = [] then Registry.all else List.map Registry.find c.names in
      Ok
        (List.concat_map
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
           entries)

let solver = "campaign"

(* Worker processes rebuild the config and the key -> task table from
   [arg] alone. *)
let tables : (string, config * (string, task) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let () =
  Dist.register solver (fun ~arg key ->
      let config, table =
        match Hashtbl.find_opt tables arg with
        | Some ct -> ct
        | None ->
            let config = decode arg in
            let t = Hashtbl.create 64 in
            (match tasks config with
            | Ok ts -> List.iter (fun task -> Hashtbl.replace t task.t_cell.Dist.cell_key task) ts
            | Error msg -> failwith ("campaign worker: " ^ msg));
            Hashtbl.add tables arg (config, t);
            (config, t)
      in
      match Hashtbl.find_opt table key with
      | None -> failwith ("campaign worker: unknown cell key " ^ key)
      | Some t ->
          let r = check_cell config t.t_rtl t.t_iface ~bound:t.t_bound in
          (Checks.report_decided r, Checks.encode_report r))

(* Solve [tasks] on Dist.run: [workers] processes, or in-process at 1.
   Without a [checkpoint] the run journals to a private temp file, not
   fsynced, removed with its worker shards before returning. *)
let run ?batch ?policy ?(sync = true) ~config ~workers ~checkpoint ~resume ~force
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
  Fun.protect ~finally:cleanup (fun () ->
      Dist.run ~workers ?batch ?policy ~sync ~arg:(encode config) ~resume ~force
        ~journal ~solver
        (List.map (fun t -> t.t_cell) tasks))
