(* Chunked static-scheduling Domain pool. See DESIGN.md in this directory
   for why this is deliberately not a work-stealing scheduler: verification
   tasks are few (tens to hundreds) and coarse (milliseconds to minutes), so
   a fixed task array + one atomic chunk cursor is both contention-free and
   deterministic. *)

let default_jobs () = Domain.recommended_domain_count ()

let clamp_jobs jobs n =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Par: jobs must be >= 1";
  min jobs (max n 1)

module Cancel = struct
  type t = bool Atomic.t

  let create () : t = Atomic.make false
  let set (t : t) = Atomic.set t true
  let is_set (t : t) = Atomic.get t
end

(* Run every task, recording per-task outcome and wall-clock seconds into
   result slots indexed like the input (deterministic ordering regardless of
   which domain ran what). Exceptions are captured per task — together with
   their raw backtrace, so a re-raise later loses nothing — and one failing
   task never discards the results of the others.

   Each task gets a cancellation token. [deadline] starts a watchdog domain
   that sets the token of any task running past its per-task allowance;
   [stop_when] sets every token as soon as one task's result satisfies it
   (first-counterexample early exit). Tasks that start with their token
   already set still run — a governed task polls the token on entry and
   returns promptly — so the result array stays total and input-ordered. *)
let run_tasks_governed ~jobs ?deadline ?stop_when tasks =
  let n = Array.length tasks in
  let dummy_bt = Printexc.get_raw_backtrace () in
  let results = Array.make n (Error (Exit, dummy_bt)) in
  let times = Array.make n 0.0 in
  let tokens = Array.init n (fun _ -> Cancel.create ()) in
  (* [starts]/[finished] are racy by design: workers write, the watchdog
     reads. Immediate 64-bit values cannot tear, and the worst case of a
     stale read is one 5 ms-late (or early-by-one-poll) cancellation. *)
  let starts = Array.make n nan in
  let finished = Array.make n false in
  let all_done = Atomic.make false in
  let cancel_all () = Array.iter Cancel.set tokens in
  let exec i =
    let t0 = Unix.gettimeofday () in
    starts.(i) <- t0;
    (* The span's domain id is recorded by the trace buffer itself; the
       task index is the only argument worth carrying. *)
    if Obs.on () then
      Obs.Trace.span_begin "par.task" ~args:[ ("task", string_of_int i) ];
    let r =
      try Ok (tasks.(i) tokens.(i))
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
    in
    if Obs.on () then
      Obs.Trace.span_end "par.task"
        ~args:[ ("ok", match r with Ok _ -> "true" | Error _ -> "false") ];
    times.(i) <- Unix.gettimeofday () -. t0;
    finished.(i) <- true;
    results.(i) <- r;
    match (stop_when, r) with
    | Some p, Ok v -> if p v then cancel_all ()
    | _ -> ()
  in
  let watchdog =
    match deadline with
    | None -> None
    | Some limit ->
        Some
          (Domain.spawn (fun () ->
               while not (Atomic.get all_done) do
                 let now = Unix.gettimeofday () in
                 for i = 0 to n - 1 do
                   if (not (Float.is_nan starts.(i))) && not finished.(i) then
                     if now -. starts.(i) > limit then Cancel.set tokens.(i)
                 done;
                 Unix.sleepf 0.005
               done))
  in
  let jobs = clamp_jobs jobs n in
  (try
     if jobs = 1 then
       (* Inline serial path: bit-identical to a plain loop, no domains. *)
       for i = 0 to n - 1 do
         exec i
       done
     else begin
       (* Fixed-size task queue: the array itself. Each worker claims the
          next chunk of indices with one fetch-and-add; chunks amortize the
          atomic while static indexing keeps results in input order. *)
       let chunk = max 1 (n / (jobs * 4)) in
       let next = Atomic.make 0 in
       let worker () =
         let continue = ref true in
         while !continue do
           let lo = Atomic.fetch_and_add next chunk in
           if lo >= n then continue := false
           else
             for i = lo to min (lo + chunk - 1) (n - 1) do
               exec i
             done
         done
       in
       let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
       worker ();
       Array.iter Domain.join domains
     end
   with e ->
     (* Never leak the watchdog domain, whatever happens in the pool. *)
     Atomic.set all_done true;
     Option.iter Domain.join watchdog;
     raise e);
  Atomic.set all_done true;
  Option.iter Domain.join watchdog;
  (results, times)

let run_tasks ~jobs tasks =
  run_tasks_governed ~jobs (Array.map (fun t (_ : Cancel.t) -> t ()) tasks)

let drop_bt results =
  Array.map (function Ok v -> Ok v | Error (e, _) -> Error e) results

let reraise_first results =
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ -> ())
    results

let map ?jobs f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let results, _ = run_tasks ~jobs tasks in
  reraise_first results;
  Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) results)

let map_timed ?jobs f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let results, times = run_tasks ~jobs tasks in
  reraise_first results;
  List.init (Array.length results)
    (fun i -> ((match results.(i) with Ok v -> v | Error _ -> assert false), times.(i)))

let map_governed ?jobs ?deadline ?stop_when f xs =
  let tasks = Array.of_list (List.map (fun x token -> f token x) xs) in
  let results, times = run_tasks_governed ~jobs ?deadline ?stop_when tasks in
  let results = drop_bt results in
  List.init (Array.length results) (fun i -> (results.(i), times.(i)))

(* Oversubscription guard for nested parallelism (outer fan-out × inner
   portfolio). Keeps the outer degree — design/mutant fan-out dominates
   throughput — and shrinks the inner one. *)
let clamp_inner ~jobs ~inner =
  let cores = default_jobs () in
  let jobs = max 1 jobs and inner = max 1 inner in
  if jobs * inner <= cores then (inner, false)
  else (max 1 (cores / jobs), true)
