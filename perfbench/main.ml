(* perfbench: the repository benchmark.

     dune exec --root . -- ./perfbench/main.exe \
       --workload prove|detect|campaign --seed N --seconds S --trace 0|1

   Every cell is a (design, mutant) pair of the golden verdict matrix
   (test/matrix_golden.txt) or an unmutated design, solved with technique
   gqed at the design's recommended bound on the default paths, so every
   verdict has a known answer. See README.md in this directory for why each
   workload exists and which layer metric should move which end-to-end one.

   The last stdout line is the result object
   {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
   --trace 0, per-layer metrics with --trace 1. The line before it records
   the run environment and the drawn cell ids. Exit 0 when every gate
   holds, 1 when a verdict or trace gate failed (after printing the
   result), 2 on bad arguments or a missing golden file (nothing printed). *)

let t_start = Unix.gettimeofday ()

module Checks = Qed.Checks
module Json = Obs.Json

let technique = Checks.Gqed
let golden_path = Filename.concat "test" "matrix_golden.txt"
let out_dir = Filename.concat "perfbench" "_out"
let now = Unix.gettimeofday
let num x = Json.Num (if Float.is_finite x then x else 0.)
let ratio a b = if b > 0. then a /. b else 0.
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs)

(* Set-up is repeated and its median reported, so one slow repetition
   (page cache, a neighbour's burst) does not move [setup_s]. *)
let setup_reps = 5

type workload = Prove | Detect | Campaign

let workloads = [ ("prove", Prove); ("detect", Detect); ("campaign", Campaign) ]

(* The prove and campaign designs: those whose proved cells each solve in
   at most 0.6 s and average at least 0.1 s on the reference host, so no
   single cell can dominate a run and search, not fixed per-check cost,
   dominates each cell; and with at most 50 proved cells each, so a run
   covers all of them and seeds change little but the order.
   Slower designs (gcd_unit, matvec3, serial_div, serial_mac, peak_accum,
   mmio_engine, crc8, movavg4, histogram, fifo4, accum, mac, sbox_pipe,
   fir4, maxtrack) would let one cell dominate a run; arb4's 129 proved
   mutants would not fit one; the cheap designs (satcnt, seqdet,
   graycodec, hamming74) measure fixed costs, which [detect] covers. *)
let prove_designs = [ "absdiff"; "alu_pipe"; "lfsr8"; "popcount"; "rle" ]

(* The campaign mix: 11 proved to 3 detected, the golden matrix's own
   ratio (1031:280). *)
let campaign_mix = (11, 3)

(* Cells per campaign pass: two mix blocks, enough to amortize spawning
   the workers yet leave several passes per run. *)
let campaign_batch = 28

(* [--seconds] sizes a run rather than cutting it short: a run solves
   [seconds * rate] cells. A fixed count means two commits solve the same
   cells for a seed and the tail percentile is the same for both; a time
   cut would give a faster commit more, different cells and a higher
   percentile. The rates are set so that a default 20 s run makes whole
   passes over the pools: prove one over its 110 cells (25-30 s of
   solving on the quiet reference host, 2 cores, OCaml 5.1.1), detect two
   over the 280 detected cells (about 33 s), and campaign one over its 110
   proved cells plus 30 of its 50 detected ones (140 cells, 5 campaign
   passes, about 15 s). Seeds then change the order, and for campaign
   which detected cells, but not the proved work; each heavy detected cell
   is timed twice. The traced run solves the first half of the cells
   twice, untraced and traced. *)
let rate = function Prove -> 5.5 | Detect -> 28. | Campaign -> 7.

let run_cells workload ~seconds ~trace =
  let n = seconds *. rate workload /. if trace = 1 then 2. else 1. in
  let n = max 1 (int_of_float (Float.round n)) in
  if workload = Campaign then campaign_batch * max 1 (n / campaign_batch) else n

(* A run stops early, with fewer cells, once it has taken this many times
   [seconds]: the bound that keeps a badly regressed commit's run finite. *)
let cap_factor = 3.

(* {1 Prepared cells} *)

type prepared = {
  cell : Perfbench.cell;
  design : Rtl.design;
  iface : Qed.Iface.t;
  bound : int;
  key : Dist.cell option;  (** campaign workload only *)
}

type setup = {
  pool : prepared list;
  by_id : (string, prepared) Hashtbl.t;
  mutants : int;  (** mutants built *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_golden () =
  match Perfbench.parse_golden (read_file golden_path) with
  | Ok cells -> cells
  | Error msg -> failwith msg

let pool_spec = function
  | Prove -> (prove_designs, [ "proved" ])
  | Detect -> (List.map (fun e -> e.Designs.Entry.name) Designs.Registry.all, [ "detected" ])
  | Campaign -> (prove_designs, [ "proved"; "detected" ])

(* Mutants of [design] by id, built with spans so the traced run times the
   mutation layer. *)
let build_mutants design =
  Obs.Trace.with_span "perfbench.mutants" ~args:[ ("design", design) ] (fun () ->
      let e = Designs.Registry.find design in
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (m, d) -> Hashtbl.replace tbl m.Mutation.id d)
        (Mutation.mutants e.Designs.Entry.design);
      (e, tbl))

let campaign_cell p =
  Obs.Trace.with_span "perfbench.key" (fun () ->
      {
        Dist.cell_key = Checks.campaign_key technique p.design p.iface ~bound:p.bound;
        cell_hint = Checks.campaign_hint p.design ~bound:p.bound;
      })

(* Everything before the first cell is dispatched: parse the golden
   matrix, build the pool designs' mutants, and (campaign) compute the
   campaign keys. *)
let setup workload =
  let designs, classes = pool_spec workload in
  let golden = load_golden () in
  let mutants = ref 0 in
  let pool =
    List.concat_map
      (fun name ->
        let e, tbl = build_mutants name in
        mutants := !mutants + Hashtbl.length tbl;
        let cells =
          List.filter
            (fun c ->
              c.Perfbench.design = name
              && List.mem (Perfbench.verdict_class c.Perfbench.golden) classes)
            golden
        in
        let cells =
          if List.mem "proved" classes then
            Perfbench.correct_cell ~design:name ~rec_bound:e.Designs.Entry.rec_bound :: cells
          else cells
        in
        List.map
          (fun c ->
            let design =
              if c.Perfbench.mutant = Perfbench.correct then e.Designs.Entry.design
              else
                match Hashtbl.find_opt tbl c.Perfbench.mutant with
                | Some d -> d
                | None ->
                    failwith ("golden cell has no mutant: " ^ Perfbench.cell_id c)
            in
            let p =
              { cell = c; design; iface = e.Designs.Entry.iface;
                bound = e.Designs.Entry.rec_bound; key = None }
            in
            if workload = Campaign then { p with key = Some (campaign_cell p) } else p)
          cells)
      designs
  in
  if pool = [] then failwith "empty cell pool";
  let by_id = Hashtbl.create 512 in
  List.iter (fun p -> Hashtbl.replace by_id (Perfbench.cell_id p.cell) p) pool;
  { pool; by_id; mutants = !mutants }

let draw workload ~seed s =
  let of_class cls =
    Perfbench.draw ~seed
      (List.filter_map
         (fun p ->
           if Perfbench.verdict_class p.cell.Perfbench.golden = cls then Some p.cell
           else None)
         s.pool)
  in
  let next =
    match workload with
    | Prove -> of_class "proved"
    | Detect -> of_class "detected"
    | Campaign ->
        let proved, detected = campaign_mix in
        Perfbench.interleave [ (of_class "proved", proved); (of_class "detected", detected) ]
  in
  fun () -> Hashtbl.find s.by_id (Perfbench.cell_id (next ()))

(* {1 Solving and the verdict gate} *)

type outcome = {
  o : prepared;
  wall : float;  (** one Checks.run, wall clock, where it ran *)
  slowdown : float;  (** host slowdown around it, see {!slowdown} *)
  report : (Checks.report, string) result;
  extra : string option;  (** a campaign-only gate that failed *)
}

(* The cell's latency as on the quiet reference host. *)
let latency o = o.wall /. o.slowdown

let verdict_string (r : Checks.report) =
  match r.Checks.verdict with
  | Checks.Pass n -> Printf.sprintf "proved@%d" n
  | Checks.Fail f ->
      Printf.sprintf "detected@%d:%s" f.Checks.witness.Bmc.w_length
        (Checks.failure_kind_to_string f.Checks.kind)
  | Checks.Unknown u ->
      Printf.sprintf "unknown@%d:%s" u.Checks.u_bound
        (Sat.Solver.reason_to_string u.Checks.u_reason)

let outcome_verdict o =
  match o.report with Ok r -> verdict_string r | Error e -> "crashed:" ^ e

(* {1 Host speed}

   The benchmark host shares its cores with other tenants, and a busy
   neighbour slows every instruction stream on it by up to 2x for tens of
   seconds at a time: the same cells' wall time varies by 15-20% between
   runs minutes apart, and so does their CPU time. Around every cell the
   benchmark times a fixed kernel of its own and divides the cell's wall
   time by the kernel's slowdown against [kernel_ref_s], the kernel's time
   on the quiet reference host. Reported times are thus wall seconds as on
   that host; the raw wall times and slowdowns stay in the run record. The
   kernel is benchmark code, so no change to the program moves it. *)

let kernel_ref_s = 0.00021
let kernel_array = Array.make (1 lsl 15) 0

(* Pseudo-random read-modify-writes over a 256 KiB array: cache-resident
   memory traffic and dependent arithmetic, like the solver's inner loops. *)
let kernel iters =
  let a = kernel_array in
  let x = ref 12345 in
  for _ = 1 to iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (Array.length a - 1) in
    a.(i) <- a.(i) + !x
  done

(* One warm-up pass, then the median of three timed ones, as a multiple of
   the reference time. *)
let slowdown () =
  kernel 100_000;
  let timed () =
    let t0 = now () in
    kernel 100_000;
    now () -. t0
  in
  Perfbench.median [ timed (); timed (); timed () ] /. kernel_ref_s

(* [timed_cell f] runs [f] between two slowdown samples and returns its
   result, its wall time and the mean of the two slowdowns. *)
let timed_cell f =
  let s0 = slowdown () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  (r, wall, (s0 +. slowdown ()) /. 2.)

let solve p =
  let report, wall, slowdown =
    timed_cell (fun () ->
        Obs.Trace.with_span "perfbench.check" ~args:[ ("cell", Perfbench.cell_id p.cell) ]
          (fun () ->
            try Ok (Checks.run technique p.design p.iface ~bound:p.bound)
            with e -> Error (Printexc.to_string e)))
  in
  { o = p; wall; slowdown; report; extra = None }

(* Cell ids that miss a gate, with the reason: the verdict differs from
   golden, a campaign gate failed, or a Fail witness does not replay as
   genuine on its design. *)
let gate outcomes =
  List.filter_map
    (fun o ->
      let id = Perfbench.cell_id o.o.cell and verdict = outcome_verdict o in
      if verdict <> o.o.cell.Perfbench.golden then
        Some (id, "verdict " ^ verdict ^ " <> golden " ^ o.o.cell.Perfbench.golden)
      else
        match (o.extra, o.report) with
        | Some why, _ -> Some (id, why)
        | None, Ok { Checks.verdict = Checks.Fail f; _ } ->
            let genuine =
              Obs.Trace.with_span "perfbench.witness" (fun () ->
                  try Qed.Theory.witness_is_genuine o.o.design o.o.iface f with _ -> false)
            in
            if genuine then None else Some (id, "witness not genuine")
        | None, _ -> None)
    outcomes

(* {1 Memory} *)

let vm_hwm_kb () =
  try
    read_file "/proc/self/status"
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d" Fun.id
           else None)
    |> Option.value ~default:0
  with Sys_error _ -> 0

(* {1 Campaign passes}

   One pass = a cold [Dist.run] over a batch with fresh fsync'd journals,
   an independent read of the resulting journal, and a warm resume pass
   that must serve every cell from the journal with the cold verdict. *)

let solver_name = "perfbench"

(* The worker side: [arg] is "<cell id>;<cell id>;..." and the workers
   rebuild those cells from the registry. After every cell a worker appends
   "<wall> <slowdown> <VmHWM kB> <key>" to its own file in [out_dir], so
   the coordinator learns each cell's latency where it ran and the peak RSS
   of the processes that solved. *)
let worker_solver ~arg =
  let ids = List.filter (( <> ) "") (String.split_on_char ';' arg) in
  let mutants = Hashtbl.create 8 in
  let table = Hashtbl.create 64 in
  List.iter
    (fun id ->
      match String.index_opt id '/' with
      | None -> failwith ("perfbench worker: bad cell id " ^ id)
      | Some i ->
          let design = String.sub id 0 i in
          let mutant = String.sub id (i + 1) (String.length id - i - 1) in
          let e, tbl =
            match Hashtbl.find_opt mutants design with
            | Some x -> x
            | None ->
                let x = build_mutants design in
                Hashtbl.add mutants design x;
                x
          in
          let d =
            if mutant = Perfbench.correct then e.Designs.Entry.design
            else Hashtbl.find tbl mutant
          in
          let bound = e.Designs.Entry.rec_bound in
          Hashtbl.replace table
            (Checks.campaign_key technique d e.Designs.Entry.iface ~bound)
            (d, e.Designs.Entry.iface, bound))
    ids;
  let cells_file = Filename.concat out_dir (Printf.sprintf "cells-%d" (Unix.getpid ())) in
  fun key ->
    match Hashtbl.find_opt table key with
    | None -> failwith "perfbench worker: unknown cell key"
    | Some (d, iface, bound) ->
        let r, wall, slowdown = timed_cell (fun () -> Checks.run technique d iface ~bound) in
        Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 cells_file (fun oc ->
            Printf.fprintf oc "%.17g %.17g %d %s\n" wall slowdown (vm_hwm_kb ()) key);
        (Checks.report_decided r, Checks.encode_report r)

let () = Dist.register solver_name worker_solver

(* What the workers reported since the last call, by key: wall time,
   slowdown and VmHWM (kB); removes the reports. *)
let collect_worker_cells () =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:"cells-" f then begin
        let path = Filename.concat out_dir f in
        String.split_on_char '\n' (read_file path)
        |> List.iter (fun l ->
               Scanf.sscanf_opt l "%f %f %d %[^\n]" (fun w s kb k -> (k, (w, s, kb)))
               |> Option.iter (fun (k, v) -> Hashtbl.replace tbl k v));
        Sys.remove path
      end)
    (Sys.readdir out_dir);
  tbl

type pass = {
  p_outcomes : outcome list;
  cold_s : float;
  cold_slowdown : float;  (** mean slowdown of the pass's cells *)
  warm_s : float;
  cold : Dist.stats;
  warm : Dist.stats;
  journal_bytes : int;
  records : int;
  decode_s : float;
  worker_rss_kb : int;
}

let campaign_workers () = max 1 (min 2 (Domain.recommended_domain_count ()))

let campaign_pass batch =
  let journal = Filename.concat out_dir "campaign.jrnl" in
  let workers = campaign_workers () in
  let key p = Option.get p.key in
  let cells = List.map key batch in
  let arg = String.concat ";" (List.map (fun p -> Perfbench.cell_id p.cell) batch) in
  let dist ~resume span =
    let t0 = now () in
    let r =
      Obs.Trace.with_span span (fun () ->
          Dist.run ~workers ~arg ~resume ~force:(not resume) ~journal ~solver:solver_name cells)
    in
    match r with
    | Ok (rows, stats) -> (rows, stats, now () -. t0)
    | Error msg -> failwith ("Dist.run: " ^ msg)
  in
  let rows, cold, cold_s = dist ~resume:false "perfbench.campaign" in
  let reported = collect_worker_cells () in
  let journal_bytes = (Unix.stat journal).Unix.st_size in
  let records, stored =
    Obs.Trace.with_span "perfbench.journal" (fun () ->
        match Persist.Campaign.start ~resume:true ~force:false journal with
        | Error msg -> failwith ("Persist.Campaign.start: " ^ msg)
        | Ok c ->
            let stored =
              List.filter (fun k -> Persist.Campaign.find_decided c k.Dist.cell_key <> None) cells
            in
            let n = (Persist.Campaign.stats c).Persist.Campaign.c_loaded in
            Persist.Campaign.close c;
            (n, List.length stored))
  in
  let warm_rows, warm, warm_s = dist ~resume:true "perfbench.resume" in
  let t0 = now () in
  let decoded =
    Obs.Trace.with_span "perfbench.decode" (fun () ->
        List.map (fun r -> (r, Checks.decode_report r.Dist.r_payload)) rows)
  in
  let decode_s = now () -. t0 in
  let by_key = Hashtbl.create 64 in
  List.iter (fun (r, d) -> Hashtbl.replace by_key r.Dist.r_key (r, d)) decoded;
  let warm_by_key = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace warm_by_key r.Dist.r_key r) warm_rows;
  let outcomes =
    List.map
      (fun p ->
        let k = (key p).Dist.cell_key in
        match Hashtbl.find_opt by_key k with
        | None | Some (_, None) ->
            { o = p; wall = 0.; slowdown = 1.; report = Error "no decodable row"; extra = None }
        | Some (r, Some report) ->
            let wall, slowdown, _ =
              Option.value ~default:(r.Dist.r_seconds, 1., 0) (Hashtbl.find_opt reported k)
            in
            let extra =
              if not r.Dist.r_decided then Some "cold row undecided"
              else if not (Hashtbl.mem reported k) then Some "no worker timing"
              else if stored <> List.length cells then Some "journal misses decided records"
              else
                match Hashtbl.find_opt warm_by_key k with
                | Some w when w.Dist.r_warm -> (
                    match Checks.decode_report w.Dist.r_payload with
                    | Some wr when verdict_string wr = verdict_string report -> None
                    | _ -> Some "resume verdict differs from cold pass")
                | _ -> Some "resume row not served warm"
            in
            { o = p; wall; slowdown; report = Ok report; extra })
      batch
  in
  List.iter
    (fun f ->
      if String.starts_with ~prefix:"campaign.jrnl" f then Sys.remove (Filename.concat out_dir f))
    (Array.to_list (Sys.readdir out_dir));
  let reports = Hashtbl.fold (fun _ v acc -> v :: acc) reported [] in
  {
    p_outcomes = outcomes;
    cold_s;
    cold_slowdown =
      (if reports = [] then 1.
       else sum (fun (_, s, _) -> s) reports /. float_of_int (List.length reports));
    warm_s;
    cold;
    warm;
    journal_bytes;
    records;
    decode_s;
    worker_rss_kb = List.fold_left (fun acc (_, _, kb) -> max acc kb) 0 reports;
  }

(* {1 Run environment} *)

let git_rev () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some sha -> sha
      | None -> (
          match read (Filename.concat ".git" "packed-refs") with
          | None -> "unknown"
          | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ sha; name ] when name = r -> Some sha
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | Some sha -> sha

(* {1 Metrics} *)

type run = {
  outcomes : outcome list;
  elapsed : float;  (** time solving, as on the reference host *)
  wall_elapsed : float;  (** the same, raw wall clock *)
  workers : int;
  rss_kb : int;
  passes : pass list;  (** campaign only *)
}

let end_to_end ~setup_s run =
  let lat = List.map latency run.outcomes in
  let q, tail = Perfbench.tail lat in
  ( q,
    [
      ("cells_per_s", float_of_int (List.length run.outcomes) /. run.elapsed, "1/s");
      ("cell_p50_s", Perfbench.median lat, "s");
      ("cell_tail_s", tail, "s");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", float_of_int run.rss_kb /. 1024., "MB");
    ] )

let reports outcomes = List.filter_map (fun o -> Result.to_option o.report) outcomes

(* Per-layer metrics of the traced run. Solver-side counters come from the
   reports; layer times from the trace's spans and the solver's
   [sat.solve.seconds] histogram. In [campaign] the cells are solved by
   untraced worker processes, so the trace-derived solving times read 0
   there and the dist/persist figures come from [Dist.row]/[Dist.stats]. *)
let per_layer ~workload ~traced ~(gc : Gc.stat * Gc.stat) ~setup ~spans ~snapshot ~events
    ~overhead =
  let span name =
    Option.value ~default:{ Perfbench.count = 0; total = 0.; self = 0. }
      (List.assoc_opt name spans)
  in
  let metric name =
    match List.assoc_opt name snapshot with
    | Some (Obs.Metrics.Counter n) -> float_of_int n
    | Some (Obs.Metrics.Histogram h) -> h.h_sum
    | Some (Obs.Metrics.Gauge g) -> g
    | None -> 0.
  in
  let rs = reports traced.outcomes in
  let sat f = isum (fun r -> f r.Checks.sat_stats) rs in
  let simp f = isum (fun r -> f r.Checks.simp) rs in
  let search = metric "sat.solve.seconds" in
  let pre f = simp (fun s -> f s.Bmc.Engine.ss_pre) in
  let check_s = sum (fun o -> o.wall) traced.outcomes in
  let queries = span "bmc.query" in
  let in_process = workload <> Campaign in
  let g0, g1 = gc in
  let passes = traced.passes in
  let dstat f = isum (fun p -> f p.cold) passes in
  let cold_s = sum (fun p -> p.cold_s) passes in
  let busy_workers = float_of_int traced.workers *. cold_s in
  [
    ("sat.search_s", search, "s");
    ("sat.props_per_s", ratio (sat (fun s -> s.Sat.Solver.propagations)) search, "1/s");
    ("sat.reduce_s", (span "sat.reduce").total, "s");
    ("sat.reduces", float_of_int (span "sat.reduce").count, "count");
    ("sat.conflicts", sat (fun s -> s.Sat.Solver.conflicts), "count");
    ("sat.propagations", sat (fun s -> s.Sat.Solver.propagations), "count");
    ("sat.decisions", sat (fun s -> s.Sat.Solver.decisions), "count");
    ("sat.restarts", sat (fun s -> s.Sat.Solver.restarts), "count");
    ("sat.cnf_vars", isum (fun r -> r.Checks.cnf_vars) rs, "count");
    ("sat.cnf_clauses", isum (fun r -> r.Checks.cnf_clauses) rs, "count");
    ("sat.preprocess_s", (span "sat.preprocess").total, "s");
    ( "sat.preprocess_removed",
      pre (fun p -> p.Sat.Solver.pre_clauses_before - p.Sat.Solver.pre_clauses_after),
      "count" );
    ( "bmc.query_self_s",
      (if in_process then queries.total -. (span "sat.preprocess").total -. search else 0.),
      "s" );
    ("bmc.queries", simp (fun s -> s.Bmc.Engine.ss_queries), "count");
    ( "bmc.coi_keep_ratio",
      ratio
        (simp (fun s -> s.Bmc.Engine.ss_coi_regs_after))
        (simp (fun s -> s.Bmc.Engine.ss_coi_regs_before)),
      "ratio" );
    ("qed.check_s", check_s, "s");
    ("qed.prep_s", (if in_process then check_s -. queries.total else 0.), "s");
    ("qed.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6, "Mwords");
    ("qed.major_gcs", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections), "count");
    ("qed.key_s", (span "perfbench.key").total, "s");
    ("qed.decode_s", sum (fun p -> p.decode_s) passes, "s");
    ("aig.clauses_emitted", simp (fun s -> s.Bmc.Engine.ss_clauses_emitted), "count");
    ( "aig.pg_ratio",
      ratio
        (simp (fun s -> s.Bmc.Engine.ss_clauses_emitted))
        (simp (fun s -> s.Bmc.Engine.ss_clauses_plain)),
      "ratio" );
    ("aig.rewrite_hits", simp (fun s -> s.Bmc.Engine.ss_rewrite_hits), "count");
    ("mutation.apply_s", (span "perfbench.mutants").total, "s");
    ("mutation.mutants", float_of_int setup.mutants, "count");
    ("dist.busy_frac", ratio check_s busy_workers, "ratio");
    ( "dist.overhead_ms_per_cell",
      (if passes = [] then 0.
       else
         1000.
         *. ratio (busy_workers -. check_s) (float_of_int (List.length traced.outcomes))),
      "ms" );
    ("dist.solve_sum_s", (if passes = [] then 0. else check_s), "s");
    ("dist.dispatched", dstat (fun s -> s.Dist.d_dispatched), "count");
    ("dist.merged", dstat (fun s -> s.Dist.d_merged), "count");
    ("dist.restarts", dstat (fun s -> s.Dist.d_restarts), "count");
    ("persist.records", isum (fun p -> p.records) passes, "count");
    ("persist.journal_bytes", isum (fun p -> p.journal_bytes) passes, "bytes");
    ("persist.resume_s", sum (fun p -> p.warm_s) passes, "s");
    ( "persist.hits",
      isum (fun p -> p.warm.Dist.d_campaign.Persist.Campaign.c_hits) passes,
      "count" );
    ( "persist.write_errors",
      dstat (fun s -> s.Dist.d_campaign.Persist.Campaign.c_write_errors),
      "count" );
    ("rtl.replay_s", (span "perfbench.witness").total, "s");
    ("rtl.replays", float_of_int (span "perfbench.witness").count, "count");
    ("obs.overhead_frac", overhead, "ratio");
    ("obs.events", float_of_int (List.length events), "count");
  ]

(* {1 Driving a workload} *)

(* Solve [cells] in-process, one at a time. *)
let serial cells ~cap =
  let t0 = now () in
  let rec go acc = function
    | p :: rest when now () -. t0 < cap -> go (solve p :: acc) rest
    | _ -> List.rev acc
  in
  let outcomes = go [] cells in
  {
    outcomes;
    elapsed = sum latency outcomes;
    wall_elapsed = sum (fun o -> o.wall) outcomes;
    workers = 1;
    rss_kb = 0;
    passes = [];
  }

(* Run [cells] as consecutive campaign passes of [campaign_batch] cells. *)
let campaign cells ~cap =
  let rec go acc = function
    | [] -> List.rev acc
    | _ when sum (fun p -> p.cold_s +. p.warm_s) acc >= cap -> List.rev acc
    | cells ->
        let batch = List.filteri (fun i _ -> i < campaign_batch) cells in
        let rest = List.filteri (fun i _ -> i >= campaign_batch) cells in
        go (campaign_pass batch :: acc) rest
  in
  let passes = go [] cells in
  {
    outcomes = List.concat_map (fun p -> p.p_outcomes) passes;
    elapsed = sum (fun p -> p.cold_s /. p.cold_slowdown) passes;
    wall_elapsed = sum (fun p -> p.cold_s) passes;
    workers = campaign_workers ();
    rss_kb = List.fold_left (fun acc p -> max acc p.worker_rss_kb) 0 passes;
    passes;
  }

let execute workload cells ~cap =
  match workload with
  | Prove | Detect -> serial cells ~cap
  | Campaign -> campaign cells ~cap

(* [overhead untraced traced]: extra solving time of the traced pass over
   the same cells, as a share of the untraced pass. *)
let overhead (u : run) (t : run) = ratio t.elapsed u.elapsed -. 1.

let print_result ~correct ~attempted ~failed metrics =
  let m = List.map (fun (n, v, unit) -> (n, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ])) metrics in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num (float_of_int attempted));
            ("failed", num (float_of_int failed));
            ("metrics", Json.Obj m);
          ]))

let main ~workload ~name ~seed ~seconds ~trace =
  if not (Sys.file_exists golden_path) then begin
    prerr_endline ("perfbench: " ^ golden_path ^ " not found; run from the repository root");
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let setup_times = ref [] and s = ref None in
  for _ = 1 to setup_reps do
    let r, wall, slowdown = timed_cell (fun () -> setup workload) in
    s := Some r;
    setup_times := (wall /. slowdown) :: !setup_times;
    (* Each repetition starts from a collected heap, so the repetitions'
       garbage does not set the peak RSS or slow the next repetition. *)
    Gc.full_major ()
  done;
  let s = Option.get !s in
  let setup_s = Perfbench.median !setup_times in
  let first_cell_after = now () -. t_start in
  let cells = Perfbench.take (run_cells workload ~seconds ~trace) (draw workload ~seed s) in
  let cap = cap_factor *. seconds in
  let untraced, traced, layers =
    if trace = 0 then begin
      let r = execute workload cells ~cap in
      let rss_kb = max (vm_hwm_kb ()) r.rss_kb in
      ({ r with rss_kb }, None, [])
    end
    else begin
      let g0 = Gc.quick_stat () in
      let u = execute workload cells ~cap:(cap /. 2.) in
      let g1 = Gc.quick_stat () in
      Obs.Trace.reset ();
      Obs.Metrics.reset ();
      Obs.enable ();
      let s' = setup workload in
      let snap0 = Obs.Metrics.snapshot () in
      let t = execute workload (List.map (fun o -> o.o) u.outcomes) ~cap:infinity in
      let snapshot = Obs.Metrics.diff ~before:snap0 ~after:(Obs.Metrics.snapshot ()) in
      (* Gate the traced cells under the trace, so it times witness replay. *)
      let traced_failures = gate t.outcomes in
      Obs.disable ();
      let events = Obs.Trace.events () in
      let spans = Perfbench.span_table events in
      let layers =
        per_layer ~workload ~traced:t ~gc:(g0, g1) ~setup:s' ~spans ~snapshot ~events
          ~overhead:(overhead u t)
      in
      (u, Some (t, traced_failures, events, spans), layers)
    end
  in
  let failures = gate untraced.outcomes in
  (* The traced run must reproduce the untraced verdicts cell for cell and
     leave a well-formed trace. *)
  let failures, trace_info =
    match traced with
    | None -> (failures, [])
    | Some (t, traced_failures, events, spans) ->
        let flips =
          List.concat
            (List.map2
               (fun u t ->
                 if outcome_verdict u = outcome_verdict t then []
                 else [ (Perfbench.cell_id u.o.cell, "traced verdict differs") ])
               untraced.outcomes t.outcomes)
        in
        let path = Filename.concat out_dir (name ^ ".trace.ndjson") in
        Obs.Trace.write ~format:`Ndjson path events;
        let well_formed = Obs.Trace.validate_file path in
        let bad_trace =
          match well_formed with Ok _ -> [] | Error msg -> [ ("trace", "malformed trace: " ^ msg) ]
        in
        ( failures @ flips @ bad_trace @ traced_failures,
          [
            ("trace_file", Json.Str path);
            ("trace_events", num (float_of_int (List.length events)));
            ( "spans",
              Json.Obj
                (List.map
                   (fun (n, r) ->
                     ( n,
                       Json.Obj
                         [
                           ("count", num (float_of_int r.Perfbench.count));
                           ("total_s", num r.Perfbench.total);
                           ("self_s", num r.Perfbench.self);
                         ] ))
                   spans) );
          ] )
  in
  let failures = List.sort_uniq compare failures in
  let attempted = max 1 (List.length untraced.outcomes) in
  let failed = List.length failures in
  let q, e2e = end_to_end ~setup_s untraced in
  let metrics =
    if trace = 0 then e2e
    else layers @ [ ("fail_frac", float_of_int failed /. float_of_int attempted, "ratio") ]
  in
  let info =
    Json.Obj
      ([
         ("workload", Json.Str name);
         ("seed", num (float_of_int seed));
         ("seconds", num seconds);
         ("cells_planned", num (float_of_int (List.length cells)));
         ("trace", num (float_of_int trace));
         ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
         ("workers", num (float_of_int untraced.workers));
         ("ocaml", Json.Str Sys.ocaml_version);
         ("git_rev", Json.Str (git_rev ()));
         ("technique", Json.Str (Checks.technique_to_string technique));
         ("setup_reps_s", Json.Arr (List.rev_map num !setup_times));
         ("tail_percentile", num (float_of_int q));
         ( "cells",
           Json.Arr (List.map (fun o -> Json.Str (Perfbench.cell_id o.o.cell)) untraced.outcomes) );
         ("cell_wall_s", Json.Arr (List.map (fun o -> num o.wall) untraced.outcomes));
         ("cell_slowdown", Json.Arr (List.map (fun o -> num o.slowdown) untraced.outcomes));
         ("wall_elapsed_s", num untraced.wall_elapsed);
         ("first_cell_after_s", num first_cell_after);
         ( "failures",
           Json.Arr (List.map (fun (id, why) -> Json.Str (id ^ ": " ^ why)) failures) );
         ("metrics", Json.Obj (List.map (fun (n, v, _) -> (n, num v)) metrics));
       ]
      @ trace_info)
  in
  let info_line = Json.to_string (Json.Obj [ ("perfbench", info) ]) in
  Out_channel.with_open_bin
    (Filename.concat out_dir (Printf.sprintf "%s-trace%d.json" name trace))
    (fun oc -> output_string oc (info_line ^ "\n"));
  List.iter (fun (id, why) -> Printf.eprintf "perfbench: FAIL %s: %s\n" id why) failures;
  print_endline info_line;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)

let () =
  Dist.worker_entry ();
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " prove | detect | campaign");
      ("--seed", Arg.Set_int seed, "N  seed of the cell draw (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  run size, in seconds on the reference host (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer traced run (1)");
    ]
  in
  let usage = "perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | Some w when !seconds > 0. && (!trace = 0 || !trace = 1) -> (
      try main ~workload:w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      with Failure msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 2)
  | _ ->
      prerr_endline usage;
      exit 2
