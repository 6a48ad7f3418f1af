(* CDCL solver. The architecture follows MiniSat 2.2 closely; comments
   below mark the places where invariants are subtle (the clause arena,
   watch maintenance, first-UIP analysis, reason locking).

   The hot path touches unboxed data only: clauses live in one flat int
   arena, watch lists are flat int arrays of (cref, blocker) pairs,
   assignments and reasons are int arrays, and the VSIDS order heap is an
   int array of variables. Propagation, conflict analysis and branching
   therefore neither allocate nor go through the write barrier. *)

(* Growable int stack with unboxed storage: trail, decision-level marks,
   analysis scratch, watch lists and the order heap. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let grow v need =
    let d = Array.make (max need (max 8 (2 * Array.length v.data))) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d

  let push v x =
    if v.len = Array.length v.data then grow v (v.len + 1);
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  (* One watch entry: a (cref, blocker) pair in two consecutive slots. *)
  let push2 v x y =
    if v.len + 2 > Array.length v.data then grow v (v.len + 2);
    v.data.(v.len) <- x;
    v.data.(v.len + 1) <- y;
    v.len <- v.len + 2

  let get v i =
    if i >= v.len then invalid_arg "Ivec.get";
    v.data.(i)
end

(* The clause arena. Every clause occupies [hdr_words + size] consecutive
   words of one growable [int array] and is addressed by the index of its
   first word, its cref:

     arena.(c)        header: size lsl 2, lor 2 if learnt, lor 1 if removed
     arena.(c + 1)    LBD (glue) of a learnt clause; 0 for a problem clause
     arena.(c + 2)    slot of a learnt clause's activity in [cla_act]; -1
                      for a problem clause
     arena.(c + 3)..  the literals

   Literals 0 and 1 of a clause are its watched literals; for a reason
   clause literal 0 is the implied literal. Removing a clause only sets its
   removed bit; [compact_arena] reclaims the space later and relocates every
   cref held elsewhere. *)
let hdr_words = 3
let no_cref = -1 (* "no clause": a decision, a level-0 fact, or no conflict *)

(* The words a clause of [len] literals occupies in the arena. The
   learnt-memory budget counts these, at 8 bytes per word. *)
let clause_words len = hdr_words + len
let clause_bytes len = 8 * clause_words len

type budget = {
  max_conflicts : int option;
  max_propagations : int option;
  max_decisions : int option;
  max_seconds : float option;
  max_learnt_mb : float option;
}

let no_budget =
  {
    max_conflicts = None;
    max_propagations = None;
    max_decisions = None;
    max_seconds = None;
    max_learnt_mb = None;
  }

let budget ?conflicts ?propagations ?decisions ?seconds ?learnt_mb () =
  {
    max_conflicts = conflicts;
    max_propagations = propagations;
    max_decisions = decisions;
    max_seconds = seconds;
    max_learnt_mb = learnt_mb;
  }

let budget_scale b factor =
  let scale_int = Option.map (fun n -> int_of_float (ceil (float_of_int n *. factor))) in
  let scale_float = Option.map (fun x -> x *. factor) in
  {
    max_conflicts = scale_int b.max_conflicts;
    max_propagations = scale_int b.max_propagations;
    max_decisions = scale_int b.max_decisions;
    max_seconds = scale_float b.max_seconds;
    max_learnt_mb = scale_float b.max_learnt_mb;
  }

type unknown_reason =
  | Out_of_conflicts
  | Out_of_propagations
  | Out_of_decisions
  | Out_of_time
  | Out_of_memory_budget
  | Cancelled

let reason_to_string = function
  | Out_of_conflicts -> "conflict budget exhausted"
  | Out_of_propagations -> "propagation budget exhausted"
  | Out_of_decisions -> "decision budget exhausted"
  | Out_of_time -> "wall-clock budget exhausted"
  | Out_of_memory_budget -> "learnt-clause memory budget exhausted"
  | Cancelled -> "cancelled"

type cancel = bool Atomic.t

let cancel_token () : cancel = Atomic.make false
let cancel (c : cancel) = Atomic.set c true
let cancelled (c : cancel) = Atomic.get c

type fault =
  | Fault_exhaust of unknown_reason
  | Fault_cancel
  | Fault_alloc of int

type result = Sat | Unsat | Unknown of unknown_reason

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  clauses : int;
  vars : int;
  clauses_exported : int;
  clauses_imported : int;
}

(* Counters from one (or, accumulated, all) [preprocess] call(s). *)
type presult = {
  pre_clauses_before : int;
  pre_clauses_after : int;
  pre_subsumed : int;
  pre_strengthened : int;
  pre_eliminated : int;
  pre_resolvents : int;
  pre_units : int;
}

let empty_presult =
  {
    pre_clauses_before = 0;
    pre_clauses_after = 0;
    pre_subsumed = 0;
    pre_strengthened = 0;
    pre_eliminated = 0;
    pre_resolvents = 0;
    pre_units = 0;
  }

let presult_add a b =
  {
    pre_clauses_before = a.pre_clauses_before + b.pre_clauses_before;
    pre_clauses_after = a.pre_clauses_after + b.pre_clauses_after;
    pre_subsumed = a.pre_subsumed + b.pre_subsumed;
    pre_strengthened = a.pre_strengthened + b.pre_strengthened;
    pre_eliminated = a.pre_eliminated + b.pre_eliminated;
    pre_resolvents = a.pre_resolvents + b.pre_resolvents;
    pre_units = a.pre_units + b.pre_units;
  }

type answer = A_none | A_sat | A_unsat | A_unknown

type t = {
  mutable nvars : int;
  (* Per-literal assignment, capacity >= 2 * nvars: 1 = true, -1 = false,
     0 = unassigned. Both literals of a variable are written together, so
     reading a literal's value is one load. *)
  mutable vals : int array;
  (* Per-variable state, arrays of capacity >= nvars. *)
  mutable level : int array;
  mutable reason : int array; (* cref of the implying clause; no_cref = none *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase: true = assign negative *)
  mutable seen : bool array;
  (* Per-literal watch lists of (cref, blocker) pairs, capacity >= 2 * nvars.
     [watches] holds clauses of length >= 3; binary clauses live in
     [bin_watches], where each entry's blocker is the implied literal. *)
  mutable watches : Ivec.t array;
  mutable bin_watches : Ivec.t array;
  (* The clause arena (see above). [arena_top] is the first free word,
     [arena_wasted] the words of removed clauses not yet reclaimed. *)
  mutable arena : int array;
  mutable arena_top : int;
  mutable arena_wasted : int;
  (* Learnt-clause activities, indexed by the slot in a learnt's header. *)
  mutable cla_act : float array;
  mutable n_slots : int;
  (* Clause databases, as crefs. *)
  clauses : int Vec.t;
  learnts : int Vec.t;
  (* Assignment trail. *)
  trail : Ivec.t;
  trail_lim : Ivec.t;
  mutable qhead : int;
  (* VSIDS. *)
  mutable var_inc : float;
  mutable cla_inc : float;
  heap : Ivec.t; (* binary max-heap of variables by activity *)
  mutable heap_index : int array; (* position in heap, -1 if absent *)
  (* Assumptions for the current solve. *)
  mutable assumptions : int array;
  conflict : int Vec.t; (* failed assumptions, negated *)
  (* Conflict-analysis scratch, reused across conflicts: the variables
     whose [seen] flag must be cleared, and the learnt clause under
     construction (asserting literal first). *)
  analyze_toclear : Ivec.t;
  learnt_buf : Ivec.t;
  (* LBD computation scratch: level -> stamp of the last clause that
     contained a literal at that level. *)
  mutable lbd_seen : int array;
  mutable lbd_stamp : int;
  (* DRAT proof logging (off unless [start_proof] was called). The stream
     is kept reversed; [proof] re-chronologizes it. Each event carries a
     stamp drawn from [proof_clock] when one is installed (0 otherwise):
     portfolio workers share one clock so their streams can be merged into
     a single causally-ordered derivation. *)
  mutable proof_logging : bool;
  mutable proof_rev : (int * Drat.event) list;
  mutable proof_clock : int Atomic.t option;
  (* Preprocessing (Simplify) state: variables resolved away by bounded
     variable elimination, their saved clauses for model reconstruction
     (most recent first), and watermarks so an incremental [preprocess]
     call only reconsiders clauses and trail literals added since the
     last one. *)
  mutable eliminated : bool array;
  mutable elim_stack : (int * int array array) list;
  mutable pre_watermark : int;
  mutable pre_trail_mark : int;
  mutable pre_acc : presult;
  (* Length of the level-0 trail at the last level-0 sweep ([simplify]);
     -1 when a clause has entered or a level-0 reason has been released
     since, so the next sweep must run. *)
  mutable simp_mark : int;
  (* Status. *)
  mutable ok : bool;
  mutable answer : answer;
  mutable model : bool array;
  mutable max_learnts : float;
  (* Statistics. *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  (* Resource governance: absolute limits for the active [solve] call
     (max_int / infinity when uncapped), set at entry from the budget plus
     the counters so far. [learnt_bytes] is the arena footprint of the live
     learnt clauses ([clause_bytes]), maintained on learn/remove. *)
  mutable lim_conflicts : int;
  mutable lim_propagations : int;
  mutable lim_decisions : int;
  mutable lim_learnt_bytes : int;
  mutable deadline : float;
  mutable cancel_tok : cancel option;
  mutable fault_hook : (stats -> fault option) option;
  mutable learnt_bytes : int;
  mutable poll_count : int;
  (* Clause sharing (portfolio mode). The export hook sees every learnt
     clause (as a private copy) with its glue and reports whether it took
     it; the import hook is drained at restart boundaries, where the solver
     sits at decision level 0 and foreign clauses can be installed safely. *)
  mutable export_hook : (Lit.t array -> lbd:int -> bool) option;
  mutable import_hook : (unit -> Lit.t array list) option;
  mutable n_exported : int;
  mutable n_imported : int;
  (* Search-diversity knobs (per solver so portfolio workers can diverge). *)
  mutable restart_base : int;
  mutable var_decay : float;
}

let clause_decay = 1. /. 0.999
let default_var_decay = 1. /. 0.95
let default_restart_base = 100

let create () =
  {
    nvars = 0;
    vals = Array.make 32 0;
    level = Array.make 16 (-1);
    reason = Array.make 16 no_cref;
    activity = Array.make 16 0.;
    polarity = Array.make 16 true;
    seen = Array.make 16 false;
    watches = Array.init 32 (fun _ -> Ivec.create ());
    bin_watches = Array.init 32 (fun _ -> Ivec.create ());
    arena = Array.make 1024 0;
    arena_top = 0;
    arena_wasted = 0;
    cla_act = Array.make 16 0.;
    n_slots = 0;
    clauses = Vec.create no_cref;
    learnts = Vec.create no_cref;
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    qhead = 0;
    var_inc = 1.;
    cla_inc = 1.;
    heap = Ivec.create ();
    heap_index = Array.make 16 (-1);
    assumptions = [||];
    conflict = Vec.create 0;
    analyze_toclear = Ivec.create ();
    learnt_buf = Ivec.create ();
    lbd_seen = Array.make 16 0;
    lbd_stamp = 0;
    proof_logging = false;
    proof_rev = [];
    proof_clock = None;
    eliminated = Array.make 16 false;
    elim_stack = [];
    pre_watermark = 0;
    pre_trail_mark = 0;
    pre_acc = empty_presult;
    simp_mark = -1;
    ok = true;
    answer = A_none;
    model = [||];
    max_learnts = 0.;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    lim_conflicts = max_int;
    lim_propagations = max_int;
    lim_decisions = max_int;
    lim_learnt_bytes = max_int;
    deadline = infinity;
    cancel_tok = None;
    fault_hook = None;
    learnt_bytes = 0;
    poll_count = 0;
    export_hook = None;
    import_hook = None;
    n_exported = 0;
    n_imported = 0;
    restart_base = default_restart_base;
    var_decay = default_var_decay;
  }

let nvars s = s.nvars
let ok s = s.ok

(* ------------------------------------------------------------------ *)
(* Clause access.                                                      *)

let clause_size s c = s.arena.(c) lsr 2
let clause_removed s c = s.arena.(c) land 1 <> 0
let clause_lbd s c = s.arena.(c + 1)
let clause_act s c = s.cla_act.(s.arena.(c + 2))

(* Literal [k] of clause [c]. *)
let clause_lit s c k = s.arena.(c + hdr_words + k)

(* A fresh copy of the clause's literals, for callers that keep them. *)
let clause_lits s c = Array.sub s.arena (c + hdr_words) (clause_size s c)

(* Append a clause holding [lits.(0 .. len-1)] to the arena; returns its
   cref. A learnt clause also gets a fresh activity slot (activity 0). *)
let alloc_clause s lits len ~learnt ~lbd =
  let words = clause_words len in
  let c = s.arena_top in
  if c + words > Array.length s.arena then begin
    let a = Array.make (max (c + words) (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 c;
    s.arena <- a
  end;
  let a = s.arena in
  a.(c) <- (len lsl 2) lor if learnt then 2 else 0;
  a.(c + 1) <- lbd;
  if learnt then begin
    let slot = s.n_slots in
    if slot = Array.length s.cla_act then begin
      let acts = Array.make (2 * slot) 0. in
      Array.blit s.cla_act 0 acts 0 slot;
      s.cla_act <- acts
    end;
    s.cla_act.(slot) <- 0.;
    s.n_slots <- slot + 1;
    a.(c + 2) <- slot
  end
  else a.(c + 2) <- -1;
  Array.blit lits 0 a (c + hdr_words) len;
  s.arena_top <- c + words;
  c

(* ------------------------------------------------------------------ *)
(* DRAT proof logging.                                                 *)

let start_proof s =
  if Vec.size s.clauses > 0 || Vec.size s.learnts > 0 || s.trail.len > 0 || not s.ok
  then invalid_arg "Solver.start_proof: must be enabled before any clause is added";
  s.proof_logging <- true;
  s.proof_rev <- []

let proof_logging s = s.proof_logging
let proof s = List.rev_map snd s.proof_rev
let stamped_proof s = List.rev s.proof_rev

let set_proof_clock s clock = s.proof_clock <- clock

(* Stamps are drawn with a fetch-and-add on the shared clock, so any event
   logged after observing another worker's publication (through the sharing
   rings' atomics) gets a strictly larger stamp than the events that
   produced the published clause. *)
let stamp s =
  match s.proof_clock with None -> 0 | Some c -> Atomic.fetch_and_add c 1

(* The solver permutes clause literals in place (watch maintenance), so
   every logged clause is copied at logging time. *)
let log_input s lits =
  if s.proof_logging then
    s.proof_rev <- (stamp s, Drat.Input (Array.of_list lits)) :: s.proof_rev

let log_add_list s lits =
  if s.proof_logging then
    s.proof_rev <- (stamp s, Drat.Add (Array.of_list lits)) :: s.proof_rev

let log_add_arr s lits =
  if s.proof_logging then
    s.proof_rev <- (stamp s, Drat.Add (Array.copy lits)) :: s.proof_rev

let log_empty s =
  if s.proof_logging then s.proof_rev <- (stamp s, Drat.Add [||]) :: s.proof_rev

let log_delete s c =
  if s.proof_logging then
    s.proof_rev <- (stamp s, Drat.Delete (clause_lits s c)) :: s.proof_rev

(* ------------------------------------------------------------------ *)
(* Variable order heap (max-heap on activity).                         *)

let heap_lt s v1 v2 = s.activity.(v1) > s.activity.(v2)

(* The heap's variables are [heap.data.(0 .. heap.len - 1)]. *)
let heap_swap s i j =
  let h = s.heap.data in
  let vi = h.(i) and vj = h.(j) in
  h.(i) <- vj;
  h.(j) <- vi;
  s.heap_index.(vi) <- j;
  s.heap_index.(vj) <- i

let rec heap_up s i =
  if i > 0 then begin
    let h = s.heap.data in
    let parent = (i - 1) / 2 in
    if heap_lt s h.(i) h.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let h = s.heap.data and n = s.heap.len in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = if l < n && heap_lt s h.(l) h.(i) then l else i in
  let best = if r < n && heap_lt s h.(r) h.(best) then r else best in
  if best <> i then begin
    heap_swap s i best;
    heap_down s best
  end

let heap_insert s v =
  if s.heap_index.(v) < 0 then begin
    Ivec.push s.heap v;
    s.heap_index.(v) <- s.heap.len - 1;
    heap_up s (s.heap.len - 1)
  end

let heap_decrease s v =
  (* Activity of [v] increased: move it toward the root. *)
  let i = s.heap_index.(v) in
  if i >= 0 then heap_up s i

(* Remove and return the root; the heap must not be empty. *)
let heap_pop s =
  let h = s.heap in
  let v = h.data.(0) in
  h.len <- h.len - 1;
  s.heap_index.(v) <- -1;
  if h.len > 0 then begin
    let last = h.data.(h.len) in
    h.data.(0) <- last;
    s.heap_index.(last) <- 0;
    heap_down s 0
  end;
  v

(* ------------------------------------------------------------------ *)
(* Variables.                                                          *)

let grow_array a n dflt =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let a' = Array.make (max n (2 * cap)) dflt in
    Array.blit a 0 a' 0 cap;
    a'
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.vals <- grow_array s.vals (2 * s.nvars) 0;
  s.level <- grow_array s.level s.nvars (-1);
  s.reason <- grow_array s.reason s.nvars no_cref;
  s.activity <- grow_array s.activity s.nvars 0.;
  s.polarity <- grow_array s.polarity s.nvars true;
  s.seen <- grow_array s.seen s.nvars false;
  s.heap_index <- grow_array s.heap_index s.nvars (-1);
  s.lbd_seen <- grow_array s.lbd_seen (s.nvars + 1) 0;
  s.eliminated <- grow_array s.eliminated s.nvars false;
  s.eliminated.(v) <- false;
  if 2 * s.nvars > Array.length s.watches then begin
    let grow_watchlists old =
      let a =
        Array.init (max (2 * s.nvars) (2 * Array.length old)) (fun _ -> Ivec.create ())
      in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    s.watches <- grow_watchlists s.watches;
    s.bin_watches <- grow_watchlists s.bin_watches
  end;
  s.vals.(Lit.pos v) <- 0;
  s.vals.(Lit.neg v) <- 0;
  s.level.(v) <- -1;
  s.reason.(v) <- no_cref;
  s.activity.(v) <- 0.;
  s.polarity.(v) <- true;
  heap_insert s v;
  v

(* Literal value: 0 unassigned, 1 true, -1 false. *)
let value_lit s l = s.vals.(l)

let var_assigned s v = s.vals.(Lit.pos v) <> 0

let decision_level s = s.trail_lim.len

(* ------------------------------------------------------------------ *)
(* Activity.                                                           *)

let rescale_var_activity s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale_var_activity s;
  heap_decrease s v

let decay_var_activity s = s.var_inc <- s.var_inc *. s.var_decay

let bump_clause s c =
  let slot = s.arena.(c + 2) in
  let act = s.cla_act.(slot) +. s.cla_inc in
  s.cla_act.(slot) <- act;
  if act > 1e20 then begin
    Vec.iter
      (fun c ->
        let k = s.arena.(c + 2) in
        s.cla_act.(k) <- s.cla_act.(k) *. 1e-20)
      s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause_activity s = s.cla_inc <- s.cla_inc *. clause_decay

(* ------------------------------------------------------------------ *)
(* Trail.                                                              *)

let unchecked_enqueue s l reason =
  let v = Lit.var l in
  s.vals.(l) <- 1;
  s.vals.(Lit.negate l) <- -1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Ivec.push s.trail l

let new_decision_level s = Ivec.push s.trail_lim s.trail.len

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Ivec.get s.trail_lim lvl in
    for i = s.trail.len - 1 downto bound do
      let l = s.trail.data.(i) in
      let v = Lit.var l in
      s.vals.(l) <- 0;
      s.vals.(Lit.negate l) <- 0;
      s.polarity.(v) <- Lit.is_neg l;
      s.reason.(v) <- no_cref;
      heap_insert s v
    done;
    s.trail.len <- bound;
    s.trail_lim.len <- lvl;
    s.qhead <- bound
  end

(* ------------------------------------------------------------------ *)
(* Clause attachment.                                                  *)

(* watches.(l) holds the clauses that must be inspected when [l] becomes
   true, i.e. the clauses watching the literal [negate l]; each entry pairs
   the clause's cref with its other watched literal as the blocker. Binary
   clauses go to the dedicated implication lists instead. *)
let attach_clause s c =
  let l0 = clause_lit s c 0 and l1 = clause_lit s c 1 in
  let lists = if clause_size s c = 2 then s.bin_watches else s.watches in
  Ivec.push2 lists.(Lit.negate l0) c l1;
  Ivec.push2 lists.(Lit.negate l1) c l0

(* Detaching is lazy: a removed clause keeps its arena words and its watch
   entries, and propagation drops the entries it meets. [compact_arena]
   drops the rest when it reclaims the words, which avoids O(watchlist)
   scans here. *)
let remove_clause s c =
  let h = s.arena.(c) in
  s.arena.(c) <- h lor 1;
  let len = h lsr 2 in
  s.arena_wasted <- s.arena_wasted + clause_words len;
  if h land 2 <> 0 then s.learnt_bytes <- s.learnt_bytes - clause_bytes len;
  (* A removed clause must never remain a reason. Callers guarantee this via
     the [locked] check. *)
  log_delete s c

(* A clause is locked while it is the reason of its (assigned) literal 0. *)
let locked s c =
  let l0 = clause_lit s c 0 in
  s.reason.(Lit.var l0) = c && value_lit s l0 <> 0

(* Reclaim the words of removed clauses: copy every live clause, in the
   order of [clauses] then [learnts], into a fresh arena, then rewrite the
   crefs held in the databases, the watch lists and [reason]. The order of
   every list is kept, and watch entries of removed clauses are dropped
   (exactly what lazy detach would do), so the search is unchanged. Learnt
   activity slots are renumbered in [learnts] order. Callable at any
   decision level, outside propagation and analysis, once every removed
   clause is out of [clauses] and [learnts]. *)
let compact_arena s =
  let old = s.arena in
  let live = s.arena_top - s.arena_wasted in
  let fresh = Array.make (max 1024 live) 0 in
  let acts = Array.make (max 16 (Vec.size s.learnts)) 0. in
  let top = ref 0 and slots = ref 0 in
  (* Move clause [c]; its old header becomes the forwarding address
     [-1 - new cref]. *)
  let move c =
    let h = old.(c) in
    let c' = !top in
    let words = clause_words (h lsr 2) in
    Array.blit old c fresh c' words;
    if h land 2 <> 0 then begin
      acts.(!slots) <- s.cla_act.(old.(c + 2));
      fresh.(c' + 2) <- !slots;
      incr slots
    end;
    old.(c) <- -1 - c';
    top := c' + words;
    c'
  in
  let relocate_db db =
    for i = 0 to Vec.size db - 1 do
      Vec.set db i (move (Vec.get db i))
    done
  in
  relocate_db s.clauses;
  relocate_db s.learnts;
  let relocate_watches (ws : Ivec.t) =
    let d = ws.data in
    let j = ref 0 in
    let i = ref 0 in
    while !i < ws.len do
      let h = old.(d.(!i)) in
      if h < 0 then begin
        d.(!j) <- -1 - h;
        d.(!j + 1) <- d.(!i + 1);
        j := !j + 2
      end
      else assert (h land 1 = 1);
      i := !i + 2
    done;
    ws.len <- !j
  in
  for l = 0 to (2 * s.nvars) - 1 do
    relocate_watches s.watches.(l);
    relocate_watches s.bin_watches.(l)
  done;
  for v = 0 to s.nvars - 1 do
    let r = s.reason.(v) in
    if r <> no_cref then begin
      let h = old.(r) in
      s.reason.(v) <- (if h < 0 then -1 - h else no_cref)
    end
  done;
  s.arena <- fresh;
  s.arena_top <- !top;
  s.arena_wasted <- 0;
  s.cla_act <- acts;
  s.n_slots <- !slots;
  if Obs.on () then
    Obs.Trace.instant "sat.compact" ~args:[ ("live_words", string_of_int !top) ]

(* Compact once a fifth of the arena is garbage (MiniSat's threshold). *)
let maybe_compact s = if s.arena_wasted * 5 > s.arena_top then compact_arena s

(* ------------------------------------------------------------------ *)
(* Propagation.                                                        *)

(* Binary implications for the newly-true literal [p]: each entry's blocker
   is the only other literal of its clause, so the visit is assign-or-detect
   with no clause scan. Reason clauses keep the MiniSat invariant that
   literal 0 is the implied literal, so the two binary literals are swapped
   into place on implication. Returns the conflicting cref, or no_cref. *)
let propagate_bin s p =
  let ws = s.bin_watches.(p) in
  let data = ws.data and n = ws.len in
  let arena = s.arena in
  let i = ref 0 and j = ref 0 in
  let confl = ref no_cref in
  while !i < n do
    let c = data.(!i) and other = data.(!i + 1) in
    i := !i + 2;
    if arena.(c) land 1 = 0 then begin
      data.(!j) <- c;
      data.(!j + 1) <- other;
      j := !j + 2;
      let v = value_lit s other in
      if v = 0 then begin
        if arena.(c + hdr_words) <> other then begin
          arena.(c + hdr_words) <- other;
          arena.(c + hdr_words + 1) <- Lit.negate p
        end;
        unchecked_enqueue s other c
      end
      else if v < 0 then begin
        (* Both literals false: conflict. Copy the tail back first. *)
        Array.blit data !i data !j (n - !i);
        j := !j + (n - !i);
        i := n;
        s.qhead <- s.trail.len;
        confl := c
      end
    end
  done;
  ws.len <- !j;
  !confl

(* Long clauses watching [negate p]. Entries are compacted in place: [j]
   trails [i] over the pairs that stay in this list. Returns the
   conflicting cref, or no_cref. *)
let propagate_long s p =
  let ws = s.watches.(p) in
  let data = ws.data and n = ws.len in
  let arena = s.arena in
  let false_lit = Lit.negate p in
  let i = ref 0 and j = ref 0 in
  let confl = ref no_cref in
  while !i < n do
    let c = data.(!i) and blocker = data.(!i + 1) in
    i := !i + 2;
    if value_lit s blocker = 1 then begin
      (* Blocker already true: the clause is satisfied, keep the entry
         without touching the clause. *)
      data.(!j) <- c;
      data.(!j + 1) <- blocker;
      j := !j + 2
    end
    else begin
      let h = arena.(c) in
      if h land 1 = 0 then begin
        let l0 = c + hdr_words in
        (* Make sure the false watch is literal 1. *)
        if arena.(l0) = false_lit then begin
          arena.(l0) <- arena.(l0 + 1);
          arena.(l0 + 1) <- false_lit
        end;
        let first = arena.(l0) in
        if value_lit s first = 1 then begin
          (* Clause already satisfied by the other watch: keep it, with that
             watch as the new blocker. *)
          data.(!j) <- c;
          data.(!j + 1) <- first;
          j := !j + 2
        end
        else begin
          (* Look for a new literal to watch. *)
          let stop = l0 + (h lsr 2) in
          let k = ref (l0 + 2) in
          while !k < stop && value_lit s arena.(!k) = -1 do incr k done;
          if !k < stop then begin
            let nl = arena.(!k) in
            arena.(l0 + 1) <- nl;
            arena.(!k) <- false_lit;
            (* Moves to another list (nl is not false, so not this one). *)
            Ivec.push2 s.watches.(Lit.negate nl) c first
          end
          else begin
            (* Unit or conflicting. *)
            data.(!j) <- c;
            data.(!j + 1) <- first;
            j := !j + 2;
            if value_lit s first = -1 then begin
              (* Conflict: copy the remaining entries back first. *)
              Array.blit data !i data !j (n - !i);
              j := !j + (n - !i);
              i := n;
              s.qhead <- s.trail.len;
              confl := c
            end
            else unchecked_enqueue s first c
          end
        end
      end
    end
  done;
  ws.len <- !j;
  !confl

(* Propagate every enqueued literal; returns the conflicting cref, or
   no_cref at a fixpoint. *)
let propagate s =
  let confl = ref no_cref in
  while !confl = no_cref && s.qhead < s.trail.len do
    let p = s.trail.data.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    confl := propagate_bin s p;
    if !confl = no_cref then confl := propagate_long s p
  done;
  !confl

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP).                                      *)

(* Literal-blocks-distance ("glue", Audemard & Simon 2009) of the literals
   [a.(off .. off+len-1)]: the number of distinct decision levels among
   them. Must be called while the literals are still assigned (i.e. before
   backtracking). *)
let compute_lbd s a off len =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let count = ref 0 in
  for i = off to off + len - 1 do
    let lv = s.level.(Lit.var a.(i)) in
    if lv > 0 && s.lbd_seen.(lv) <> stamp then begin
      s.lbd_seen.(lv) <- stamp;
      incr count
    end
  done;
  !count

(* Is [l] implied by the current learnt set? Basic (non-recursive)
   minimization: every literal of its reason (other than the implied one)
   is already in the learnt clause or at level 0. *)
let lit_redundant s l =
  let r = s.reason.(Lit.var l) in
  r <> no_cref
  &&
  let ok = ref true in
  for k = 1 to clause_size s r - 1 do
    let q = clause_lit s r k in
    if (not s.seen.(Lit.var q)) && s.level.(Lit.var q) > 0 then ok := false
  done;
  !ok

(* Leaves the learnt clause in [learnt_buf], asserting literal first, and
   returns the backtrack level. *)
let analyze s confl =
  let out = s.learnt_buf in
  out.len <- 0;
  Ivec.push out 0 (* placeholder for the asserting literal *);
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail.len - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let cr = !c in
    let h = s.arena.(cr) in
    if h land 2 <> 0 then begin
      bump_clause s cr;
      (* Dynamic glue update: a learnt clause involved in a new conflict may
         now span fewer levels than when it was learnt. Keep the minimum. *)
      let d = compute_lbd s s.arena (cr + hdr_words) (h lsr 2) in
      if d < s.arena.(cr + 1) then s.arena.(cr + 1) <- d
    end;
    let start = if !p = -1 then 0 else 1 in
    for jj = start to (h lsr 2) - 1 do
      let q = s.arena.(cr + hdr_words + jj) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        bump_var s v;
        s.seen.(v) <- true;
        Ivec.push s.analyze_toclear v;
        if s.level.(v) >= decision_level s then incr path_c else Ivec.push out q
      end
    done;
    (* Select next literal to expand: latest seen literal on the trail. *)
    while not s.seen.(Lit.var (Ivec.get s.trail !index)) do decr index done;
    p := Ivec.get s.trail !index;
    decr index;
    c := s.reason.(Lit.var !p);
    s.seen.(Lit.var !p) <- false;
    decr path_c;
    if !path_c <= 0 then continue := false
  done;
  let lits = out.data in
  lits.(0) <- Lit.negate !p;
  (* Minimize in place: drop redundant literals from the tail. *)
  let kept = ref 1 in
  for i = 1 to out.len - 1 do
    let q = lits.(i) in
    if not (lit_redundant s q) then begin
      lits.(!kept) <- q;
      incr kept
    end
  done;
  out.len <- !kept;
  (* Find the backtrack level: highest level among tail literals; put that
     literal at index 1 so it is watched after backtracking. *)
  let blevel =
    if out.len = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to out.len - 1 do
        if s.level.(Lit.var lits.(i)) > s.level.(Lit.var lits.(!max_i)) then max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      s.level.(Lit.var lits.(1))
    end
  in
  (* Clear the seen flags. *)
  for i = 0 to s.analyze_toclear.len - 1 do
    s.seen.(s.analyze_toclear.data.(i)) <- false
  done;
  s.analyze_toclear.len <- 0;
  blevel

(* Produce the subset of assumptions responsible for falsifying literal [p]
   (which is a currently-false assumption, passed negated). *)
let analyze_final s p =
  Vec.clear s.conflict;
  Vec.push s.conflict p;
  if decision_level s > 0 then begin
    s.seen.(Lit.var p) <- true;
    let bottom = Ivec.get s.trail_lim 0 in
    for i = s.trail.len - 1 downto bottom do
      let l = s.trail.data.(i) in
      let v = Lit.var l in
      if s.seen.(v) then begin
        let r = s.reason.(v) in
        if r = no_cref then Vec.push s.conflict (Lit.negate l)
        else
          for k = 1 to clause_size s r - 1 do
            let q = clause_lit s r k in
            if s.level.(Lit.var q) > 0 then s.seen.(Lit.var q) <- true
          done;
        s.seen.(v) <- false
      end
    done;
    s.seen.(Lit.var p) <- false
  end

(* ------------------------------------------------------------------ *)
(* Clause addition.                                                    *)

let add_clause s lits =
  if decision_level s <> 0 then
    invalid_arg "Solver.add_clause: only allowed at decision level 0";
  List.iter
    (fun l ->
      if s.eliminated.(Lit.var l) then
        invalid_arg "Solver.add_clause: literal over an eliminated variable")
    lits;
  log_input s lits;
  if s.ok then begin
    s.simp_mark <- -1;
    (* Sort + dedup; detect tautologies and level-0 entailment. *)
    let lits = List.sort_uniq Int.compare lits in
    let tautology =
      let rec loop = function
        | a :: (b :: _ as rest) -> (Lit.var a = Lit.var b) || loop rest
        | _ -> false
      in
      loop lits
    in
    let satisfied = List.exists (fun l -> value_lit s l = 1) lits in
    if not (tautology || satisfied) then begin
      let filtered = List.filter (fun l -> value_lit s l <> -1) lits in
      (* Literals false at level 0 are dropped before storing; the stronger
         clause is a unit-propagation consequence of the original plus the
         level-0 facts, so it goes into the proof as a derived clause (and
         is the identity any later [Delete] of this clause refers to). *)
      if List.compare_lengths filtered lits <> 0 then log_add_list s filtered;
      match filtered with
      | [] -> s.ok <- false
      | [ l ] ->
          unchecked_enqueue s l no_cref;
          if propagate s <> no_cref then begin
            s.ok <- false;
            log_empty s
          end
      | _ :: _ :: _ ->
          let a = Array.of_list filtered in
          let c = alloc_clause s a (Array.length a) ~learnt:false ~lbd:0 in
          Vec.push s.clauses c;
          attach_clause s c
    end
  end

(* ------------------------------------------------------------------ *)
(* Learnt DB reduction and level-0 simplification.                     *)

let reduce_db s =
  if Obs.on () then
    Obs.Trace.span_begin "sat.reduce"
      ~args:[ ("learnts", string_of_int (Vec.size s.learnts)) ];
  (* Glue-based reduction (Glucose-style): sort so the clauses to drop come
     first — highest LBD first, coldest activity as tiebreak — then drop the
     first half. Binary clauses, "glue" clauses (LBD <= 2) and clauses
     currently acting as a reason are always kept. *)
  Vec.sort_sub
    (fun a b ->
      let la = clause_lbd s a and lb = clause_lbd s b in
      if la <> lb then Int.compare lb la else Float.compare (clause_act s a) (clause_act s b))
    s.learnts;
  let n = Vec.size s.learnts in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = Vec.get s.learnts i in
    if locked s c || clause_size s c = 2 || clause_lbd s c <= 2 || i >= n / 2 then begin
      Vec.set s.learnts !kept c;
      incr kept
    end
    else remove_clause s c
  done;
  Vec.shrink s.learnts !kept;
  maybe_compact s;
  if Obs.on () then
    Obs.Trace.span_end "sat.reduce"
      ~args:[ ("kept", string_of_int (Vec.size s.learnts)) ]

(* A loop over refs, not a local recursive function: that would allocate
   a closure for every clause a sweep visits. *)
let clause_satisfied s c =
  let stop = c + hdr_words + clause_size s c in
  let i = ref (c + hdr_words) in
  while !i < stop && value_lit s s.arena.(!i) <> 1 do
    incr i
  done;
  !i < stop

let simplify s =
  assert (decision_level s = 0);
  if Obs.on () then Obs.Trace.span_begin "sat.simplify";
  if s.ok && propagate s = no_cref then begin
    (* Drop removed and satisfied (unlocked) clauses, keeping the order. *)
    let sweep ?(track_watermark = false) db =
      let kept = ref 0 in
      let removed_below = ref 0 in
      for i = 0 to Vec.size db - 1 do
        let c = Vec.get db i in
        if clause_removed s c || (clause_satisfied s c && not (locked s c)) then begin
          if not (clause_removed s c) then remove_clause s c;
          if track_watermark && i < s.pre_watermark then incr removed_below
        end
        else begin
          Vec.set db !kept c;
          incr kept
        end
      done;
      Vec.shrink db !kept;
      (* Keep the preprocessing watermark pointing at the first clause not
         yet seen by [preprocess], across the index shifts of the sweep. *)
      if track_watermark then s.pre_watermark <- max 0 (s.pre_watermark - !removed_below)
    in
    sweep s.learnts;
    sweep ~track_watermark:true s.clauses;
    maybe_compact s;
    s.simp_mark <- s.trail.len;
    if Obs.on () then Obs.Trace.span_end "sat.simplify"
  end
  else begin
    if s.ok && decision_level s = 0 then begin
      s.ok <- false;
      log_empty s
    end;
    if Obs.on () then Obs.Trace.span_end "sat.simplify"
  end

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

(* The unassigned variable of highest activity, or -1 when every variable
   is assigned. *)
let pick_branch_var s =
  let rec loop () =
    if s.heap.len = 0 then -1
    else begin
      let v = heap_pop s in
      if not (var_assigned s v) then v else loop ()
    end
  in
  loop ()

exception Found_sat
exception Found_unsat
exception Restart
exception Stop of unknown_reason

let current_stats s =
  {
    conflicts = s.n_conflicts;
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    restarts = s.n_restarts;
    learnt_clauses = Vec.size s.learnts;
    clauses = Vec.size s.clauses;
    vars = s.nvars;
    clauses_exported = s.n_exported;
    clauses_imported = s.n_imported;
  }

(* Budget/cancellation poll, called on the cheap boundaries of the search
   loop (once per propagate-or-conflict iteration, never inside a
   propagation wave). Counter checks are plain compares against the
   absolute limits; the wall clock is only consulted when a deadline is
   set. *)
let poll_limits s =
  if s.n_conflicts >= s.lim_conflicts then raise (Stop Out_of_conflicts);
  if s.n_propagations >= s.lim_propagations then raise (Stop Out_of_propagations);
  if s.n_decisions >= s.lim_decisions then raise (Stop Out_of_decisions);
  if s.learnt_bytes >= s.lim_learnt_bytes then raise (Stop Out_of_memory_budget);
  (match s.cancel_tok with
  | Some c when Atomic.get c -> raise (Stop Cancelled)
  | _ -> ());
  (match s.fault_hook with
  | None -> ()
  | Some hook -> (
      match hook (current_stats s) with
      | None -> ()
      | Some (Fault_exhaust r) -> raise (Stop r)
      | Some Fault_cancel -> raise (Stop Cancelled)
      | Some (Fault_alloc words) ->
          (* Allocation pressure: a dead array the GC must sweep. *)
          ignore (Sys.opaque_identity (Array.make (max 1 words) 0))));
  s.poll_count <- s.poll_count + 1;
  (* gettimeofday costs far less than the decision + propagation wave each
     poll corresponds to, so no further amortization is needed. *)
  if s.deadline < infinity && Unix.gettimeofday () > s.deadline then
    raise (Stop Out_of_time)

(* Handle assumptions and pick the next decision. *)
let decide s =
  let rec assume () =
    if decision_level s < Array.length s.assumptions then begin
      let p = s.assumptions.(decision_level s) in
      match value_lit s p with
      | 1 ->
          (* Dummy level so the level <-> assumption indexing stays aligned. *)
          new_decision_level s;
          assume ()
      | -1 ->
          analyze_final s (Lit.negate p);
          raise Found_unsat
      | _ ->
          new_decision_level s;
          unchecked_enqueue s p no_cref
    end
    else begin
      s.n_decisions <- s.n_decisions + 1;
      let v = pick_branch_var s in
      if v < 0 then raise Found_sat;
      new_decision_level s;
      unchecked_enqueue s (Lit.make v ~neg:s.polarity.(v)) no_cref
    end
  in
  assume ()

(* Record the clause [analyze] left in [learnt_buf]. *)
let record_learnt s blevel ~lbd =
  let buf = s.learnt_buf in
  let len = buf.len in
  (* First-UIP learnt clauses are derived by resolution over reason clauses,
     hence RUP with respect to the clauses alive right now. *)
  if s.proof_logging then log_add_arr s (Array.sub buf.data 0 len);
  (* Offer the clause to the sharing hook: it gets a private copy it may
     publish to other domains. *)
  (match s.export_hook with
  | None -> ()
  | Some hook ->
      if hook (Array.sub buf.data 0 len) ~lbd then s.n_exported <- s.n_exported + 1);
  cancel_until s blevel;
  if len = 1 then
    (* Asserting unit: goes to level 0 semantically, but we may be above
       level 0 because of assumptions; enqueue at the current (backtracked)
       level with no reason. Correct because blevel = 0 for units. *)
    unchecked_enqueue s buf.data.(0) no_cref
  else begin
    let c = alloc_clause s buf.data len ~learnt:true ~lbd in
    s.learnt_bytes <- s.learnt_bytes + clause_bytes len;
    Vec.push s.learnts c;
    attach_clause s c;
    bump_clause s c;
    unchecked_enqueue s buf.data.(0) c
  end

let search s ~max_conflicts =
  let conflict_c = ref 0 in
  let continue = ref true in
  while !continue do
    poll_limits s;
    let confl = propagate s in
    if confl <> no_cref then begin
      s.n_conflicts <- s.n_conflicts + 1;
      incr conflict_c;
      if decision_level s = 0 then begin
        s.ok <- false;
        log_empty s;
        raise Found_unsat
      end;
      let blevel = analyze s confl in
      (* LBD must be computed before [record_learnt] backtracks. *)
      let lbd = compute_lbd s s.learnt_buf.data 0 s.learnt_buf.len in
      record_learnt s blevel ~lbd;
      decay_var_activity s;
      decay_clause_activity s
    end
    else begin
      if !conflict_c >= max_conflicts then begin
        cancel_until s 0;
        raise Restart
      end;
      (* Sweep invariant: a clause can only become satisfied at level 0 by
         a new level-0 literal (learnt clauses are made of false literals,
         so none holds a level-0 literal), and every other way a clause
         enters or a reason is released resets [simp_mark]. A sweep with
         the level-0 trail unchanged since the last one therefore removes
         nothing, and is skipped. *)
      if decision_level s = 0 && s.trail.len <> s.simp_mark then simplify s;
      if not s.ok then raise Found_unsat;
      if float_of_int (Vec.size s.learnts) -. float_of_int s.trail.len >= s.max_learnts
      then reduce_db s;
      decide s
    end
  done
(* Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  (* Smallest k with 2^k - 1 >= i. *)
  let rec find_k k = if (1 lsl k) - 1 >= i then k else find_k (k + 1) in
  let k = find_k 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1) else luby (i - (1 lsl (k - 1)) + 1)

(* Arm the per-call limits. Counter caps are relative to this call (the
   counters accumulate across incremental solves); the learnt-memory cap is
   absolute, since it bounds the footprint of the shared database. *)
let set_limits s budget cancel =
  let rel base = function None -> max_int | Some n -> base + max 0 n in
  s.lim_conflicts <- rel s.n_conflicts budget.max_conflicts;
  s.lim_propagations <- rel s.n_propagations budget.max_propagations;
  s.lim_decisions <- rel s.n_decisions budget.max_decisions;
  s.lim_learnt_bytes <-
    (match budget.max_learnt_mb with
    | None -> max_int
    | Some mb -> int_of_float (mb *. 1024. *. 1024.));
  s.deadline <-
    (match budget.max_seconds with
    | None -> infinity
    | Some sec -> Unix.gettimeofday () +. sec);
  s.cancel_tok <- cancel

let clear_limits s =
  s.lim_conflicts <- max_int;
  s.lim_propagations <- max_int;
  s.lim_decisions <- max_int;
  s.lim_learnt_bytes <- max_int;
  s.deadline <- infinity;
  s.cancel_tok <- None

(* Deterministic polarity perturbation (xorshift keyed on the seed): flips
   the saved phases so a retry explores a different trajectory. Verdict-
   preserving — phases only steer the search. *)
let perturb_phases s seed =
  let st = ref (if seed = 0 then 0x9e3779b9 else seed) in
  for v = 0 to s.nvars - 1 do
    st := !st lxor (!st lsl 13);
    st := !st lxor (!st lsr 7);
    st := !st lxor (!st lsl 17);
    s.polarity.(v) <- !st land 1 = 1
  done

let set_fault_hook s hook = s.fault_hook <- hook
let set_export_hook s hook = s.export_hook <- hook
let set_import_hook s hook = s.import_hook <- hook

(* Install one foreign clause at decision level 0. The clause was learnt by
   a peer over the same CNF, so it is a logical consequence of the shared
   formula; it enters the proof as a derived clause (RUP in the merged
   stamped stream — the producer's own Add carries a smaller stamp).
   Watch placement mirrors [install_clause]: non-false literals first, and
   the degenerate cases (all-false, effectively unit) resolve right here. *)
let integrate_import s lits =
  let usable =
    Array.for_all (fun l -> Lit.var l < s.nvars && not s.eliminated.(Lit.var l)) lits
  in
  if usable && Array.length lits > 0 && s.ok
     && not (Array.exists (fun l -> value_lit s l = 1) lits)
  then begin
    let l = Array.copy lits in
    let len = Array.length l in
    let k = ref 0 in
    (try
       for i = 0 to len - 1 do
         if value_lit s l.(i) <> -1 then begin
           let tmp = l.(!k) in
           l.(!k) <- l.(i);
           l.(i) <- tmp;
           incr k;
           if !k >= 2 then raise Exit
         end
       done
     with Exit -> ());
    log_add_arr s l;
    s.n_imported <- s.n_imported + 1;
    s.simp_mark <- -1;
    if !k = 0 then begin
      s.ok <- false;
      log_empty s
    end
    else if len = 1 || !k = 1 then begin
      (* Unit under the level-0 assignment: assert the surviving literal;
         the clause itself adds nothing beyond it. *)
      if value_lit s l.(0) = 0 then unchecked_enqueue s l.(0) no_cref
    end
    else begin
      let c = alloc_clause s l len ~learnt:true ~lbd:len in
      s.learnt_bytes <- s.learnt_bytes + clause_bytes len;
      Vec.push s.learnts c;
      attach_clause s c
    end
  end

(* Drain the import hook; only legal at decision level 0 (solve entry and
   restart boundaries). *)
let drain_imports s =
  match s.import_hook with
  | None -> ()
  | Some hook -> List.iter (integrate_import s) (hook ())

let solve ?(assumptions = []) ?(budget = no_budget) ?cancel ?seed s =
  s.answer <- A_none;
  Vec.clear s.conflict;
  if not s.ok then begin
    s.answer <- A_unsat;
    Unsat
  end
  else begin
    set_limits s budget cancel;
    (* Per-solve metric deltas: stats are cumulative on the solver, so
       sample them at entry and publish the difference at exit. *)
    let obs0 =
      if Obs.on () then Some (s.n_conflicts, s.n_propagations, Unix.gettimeofday ())
      else None
    in
    (match seed with None -> () | Some seed -> perturb_phases s seed);
    drain_imports s;
    s.assumptions <- Array.of_list assumptions;
    if s.max_learnts = 0. then
      s.max_learnts <- max 1000. (float_of_int (Vec.size s.clauses) *. 0.3);
    let result = ref None in
    let restart = ref 1 in
    (try
       while !result = None do
         let bound = s.restart_base * luby !restart in
         (try
            search s ~max_conflicts:bound;
            assert false
          with
         | Found_sat ->
             s.model <- Array.init s.nvars (fun v -> value_lit s (Lit.pos v) = 1);
             (* Extend the model over variables resolved away by elimination
                so callers can read any variable they ever allocated. *)
             if s.elim_stack <> [] then Simplify.extend_model s.elim_stack s.model;
             s.answer <- A_sat;
             result := Some Sat
         | Found_unsat ->
             s.answer <- A_unsat;
             result := Some Unsat
         | Restart ->
             s.n_restarts <- s.n_restarts + 1;
             s.max_learnts <- s.max_learnts *. 1.05;
             if Obs.on () then begin
               (* Restart boundaries are the natural sampling points for
                  conflict/propagation rates: frequent enough to plot, far
                  enough apart to stay off the propagation fast path. *)
               Obs.Trace.instant "sat.restart"
                 ~args:[ ("restarts", string_of_int s.n_restarts) ];
               Obs.Trace.counter "sat.conflicts" (float_of_int s.n_conflicts);
               Obs.Trace.counter "sat.propagations" (float_of_int s.n_propagations)
             end;
             (* Restart boundaries are the import points: the trail is back
                at level 0, so foreign clauses can be installed with sound
                watch placement. *)
             drain_imports s);
         incr restart
       done
     with Stop reason ->
       (* Budget exhausted, cancelled, or an injected fault: back out to a
          clean level-0 state. Learnt clauses (and their DRAT events) are
          kept, so a follow-up [solve] resumes from the accumulated work. *)
       s.answer <- A_unknown;
       result := Some (Unknown reason));
    clear_limits s;
    cancel_until s 0;
    s.assumptions <- [||];
    (match obs0 with
    | Some (c0, p0, t0) when Obs.on () ->
        Obs.Metrics.add (Obs.Metrics.counter "sat.solves") 1;
        Obs.Metrics.add (Obs.Metrics.counter "sat.conflicts") (s.n_conflicts - c0);
        Obs.Metrics.add (Obs.Metrics.counter "sat.propagations") (s.n_propagations - p0);
        Obs.Metrics.observe
          (Obs.Metrics.histogram "sat.solve.seconds")
          (Unix.gettimeofday () -. t0)
    | _ -> ());
    match !result with Some r -> r | None -> assert false
  end

let value s l =
  if s.answer <> A_sat then failwith "Solver.value: last answer was not Sat";
  let v = Lit.var l in
  if v >= Array.length s.model then failwith "Solver.value: unknown variable";
  if Lit.is_neg l then not s.model.(v) else s.model.(v)

let model s =
  if s.answer <> A_sat then failwith "Solver.model: last answer was not Sat";
  Array.copy s.model

let unsat_assumptions s =
  if s.answer <> A_unsat then
    failwith "Solver.unsat_assumptions: last answer was not Unsat";
  List.map Lit.negate (Vec.to_list s.conflict)

(* ------------------------------------------------------------------ *)
(* CNF preprocessing (see Simplify).                                   *)

(* Install a preprocessed clause (length >= 2). Watches must sit on
   non-false literals w.r.t. the level-0 assignment, or propagation would
   miss the clause entirely: preprocessing enqueues derived units without
   propagating between actions, so a clause may arrive with literals that
   are already false. *)
let install_clause s lits =
  let l = Array.copy lits in
  let len = Array.length l in
  let k = ref 0 in
  (try
     for i = 0 to len - 1 do
       if value_lit s l.(i) <> -1 then begin
         let tmp = l.(!k) in
         l.(!k) <- l.(i);
         l.(i) <- tmp;
         incr k;
         if !k >= 2 then raise Exit
       end
     done
   with Exit -> ());
  let c = alloc_clause s l len ~learnt:false ~lbd:0 in
  Vec.push s.clauses c;
  attach_clause s c;
  s.simp_mark <- -1;
  if !k = 0 then begin
    s.ok <- false;
    log_empty s
  end
  else if !k = 1 && value_lit s l.(0) = 0 then unchecked_enqueue s l.(0) no_cref;
  c

let preprocess ?(elim = false) ?(frozen = []) s =
  if decision_level s <> 0 then
    invalid_arg "Solver.preprocess: only allowed at decision level 0";
  let before = Vec.size s.clauses in
  if Obs.on () then
    Obs.Trace.span_begin "sat.preprocess"
      ~args:[ ("clauses", string_of_int before); ("elim", string_of_bool elim) ];
  let finish st =
    let r =
      {
        pre_clauses_before = before;
        pre_clauses_after = Vec.size s.clauses;
        pre_subsumed = st.Simplify.s_subsumed;
        pre_strengthened = st.Simplify.s_strengthened;
        pre_eliminated = st.Simplify.s_eliminated;
        pre_resolvents = st.Simplify.s_resolvents;
        pre_units = st.Simplify.s_units;
      }
    in
    s.pre_acc <- presult_add s.pre_acc r;
    if Obs.on () then
      Obs.Trace.span_end "sat.preprocess"
        ~args:[ ("clauses", string_of_int r.pre_clauses_after) ];
    r
  in
  let nothing =
    {
      Simplify.s_subsumed = 0;
      s_strengthened = 0;
      s_eliminated = 0;
      s_resolvents = 0;
      s_units = 0;
    }
  in
  simplify s;
  if not s.ok then finish nothing
  else begin
    (* Level-0 implied literals never need their reason clause again
       (conflict analysis stops above level 0), so clear the pointers and
       let preprocessing strengthen or delete former reasons freely. The
       satisfied clauses this unlocks go at the next level-0 sweep. *)
    for i = 0 to s.trail.len - 1 do
      s.reason.(Lit.var s.trail.data.(i)) <- no_cref
    done;
    s.simp_mark <- -1;
    let n = Vec.size s.clauses in
    let ntrail = s.trail.len in
    let db = Array.make (n + ntrail) [||] in
    let protected = Array.make (n + ntrail) false in
    (* Simplify's clause ids -> crefs. *)
    let tbl : (int, int) Hashtbl.t = Hashtbl.create (2 * (n + ntrail) + 16) in
    for i = 0 to n - 1 do
      let c = Vec.get s.clauses i in
      (* Snapshot: the solver permutes clause literals in place. *)
      db.(i) <- clause_lits s c;
      Hashtbl.replace tbl i c
    done;
    (* The level-0 trail enters the database as protected unit clauses: it
       subsumes and strengthens but is itself immutable (those literals are
       assignments, not clause objects, and their DRAT events must stay). *)
    for i = 0 to ntrail - 1 do
      db.(n + i) <- [| s.trail.data.(i) |];
      protected.(n + i) <- true
    done;
    let fr = Array.make (max 1 s.nvars) false in
    List.iter (fun l -> fr.(Lit.var l) <- true) frozen;
    for v = 0 to s.nvars - 1 do
      if s.eliminated.(v) then fr.(v) <- true
    done;
    let config = { Simplify.default_config with bve = elim } in
    let seeds =
      if s.pre_watermark <= 0 && s.pre_trail_mark <= 0 then None
      else begin
        let ids = ref [] in
        for i = n - 1 downto min s.pre_watermark n do
          ids := i :: !ids
        done;
        for i = ntrail - 1 downto min s.pre_trail_mark ntrail do
          ids := (n + i) :: !ids
        done;
        Some !ids
      end
    in
    let actions, st = Simplify.run ~config ?seeds ~nvars:s.nvars ~frozen:fr ~protected db in
    let stopped = ref false in
    let apply = function
      | Simplify.Remove id -> (
          match Hashtbl.find_opt tbl id with
          | Some c -> if not (clause_removed s c) then remove_clause s c
          | None -> ())
      | Simplify.Strengthen (id, lits) -> (
          match Hashtbl.find_opt tbl id with
          | Some old ->
              log_add_arr s lits;
              let c = install_clause s lits in
              Hashtbl.replace tbl id c;
              if not (clause_removed s old) then remove_clause s old
          | None -> ())
      | Simplify.Add (id, lits) ->
          log_add_arr s lits;
          let c = install_clause s lits in
          Hashtbl.replace tbl id c
      | Simplify.Unit l ->
          log_add_list s [ l ];
          (match value_lit s l with
          | 0 -> unchecked_enqueue s l no_cref
          | 1 -> ()
          | _ ->
              s.ok <- false;
              log_empty s;
              stopped := true)
      | Simplify.Empty ->
          if s.ok then begin
            s.ok <- false;
            log_empty s
          end;
          stopped := true
      | Simplify.Eliminate (v, saved) ->
          s.eliminated.(v) <- true;
          s.elim_stack <- (v, saved) :: s.elim_stack
    in
    List.iter (fun a -> if not !stopped then apply a) actions;
    if s.ok && propagate s <> no_cref then begin
      s.ok <- false;
      log_empty s
    end;
    (* Sweep removed clauses out of the problem database, reclaim their
       arena words and advance the watermarks. *)
    let kept = ref 0 in
    for i = 0 to Vec.size s.clauses - 1 do
      let c = Vec.get s.clauses i in
      if not (clause_removed s c) then begin
        Vec.set s.clauses !kept c;
        incr kept
      end
    done;
    Vec.shrink s.clauses !kept;
    maybe_compact s;
    s.pre_watermark <- Vec.size s.clauses;
    s.pre_trail_mark <- s.trail.len;
    finish st
  end

let preprocess_totals s = s.pre_acc

let stats = current_stats

let pp_stats ppf st =
  Format.fprintf ppf
    "vars=%d clauses=%d learnt=%d conflicts=%d decisions=%d propagations=%d \
     restarts=%d exported=%d imported=%d"
    st.vars st.clauses st.learnt_clauses st.conflicts st.decisions
    st.propagations st.restarts st.clauses_exported st.clauses_imported

(* ------------------------------------------------------------------ *)
(* Portfolio support: configuration diversity, CNF snapshots, model
   injection. Used by [Portfolio] to clone a master solver's problem into
   worker solvers and to reflect a worker's answer back into the master. *)

let configure ?restart_base ?var_decay ?invert_phase s =
  (match restart_base with
  | None -> ()
  | Some b ->
      if b < 1 then invalid_arg "Solver.configure: restart_base must be >= 1";
      s.restart_base <- b);
  (match var_decay with
  | None -> ()
  | Some d ->
      if d < 1. then invalid_arg "Solver.configure: var_decay must be >= 1.0";
      s.var_decay <- d);
  match invert_phase with
  | None | Some false -> ()
  | Some true ->
      for v = 0 to s.nvars - 1 do
        s.polarity.(v) <- not s.polarity.(v)
      done

(* Snapshot of the live clause set at decision level 0: trail units first
   (they constrain everything downstream), then alive problem clauses, then
   alive learnts. Loading the snapshot into a fresh solver reproduces an
   equisatisfiable-with-current-state problem — learnt clauses are logical
   consequences, so they only prune, never change the verdict. *)
let export_cnf s =
  if decision_level s <> 0 then
    invalid_arg "Solver.export_cnf: only allowed at decision level 0";
  let acc = ref [] in
  Vec.iter (fun c -> if not (clause_removed s c) then acc := clause_lits s c :: !acc) s.learnts;
  Vec.iter (fun c -> if not (clause_removed s c) then acc := clause_lits s c :: !acc) s.clauses;
  for i = 0 to s.trail.len - 1 do
    acc := [| s.trail.data.(i) |] :: !acc
  done;
  (s.nvars, !acc)

(* Adopt a model found by a portfolio worker over a CNF exported from this
   solver, so [value]/[model] (and witness extraction above) work exactly as
   if this solver had answered Sat itself. Variables resolved away by our
   own elimination get reconstructed values. *)
let inject_model s model =
  if Array.length model < s.nvars then
    invalid_arg "Solver.inject_model: model too short";
  s.model <- Array.sub model 0 s.nvars;
  if s.elim_stack <> [] then Simplify.extend_model s.elim_stack s.model;
  s.answer <- A_sat
