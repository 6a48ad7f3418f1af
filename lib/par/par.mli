(** Parallel map over OCaml 5 domains, specialized for fanning out
    independent verification tasks (each task typically builds its own
    {!Bmc.Engine}: nothing is shared between tasks).

    Scheduling is chunked and static — a fixed task array and one atomic
    cursor; no work stealing. Results always come back in input order, so a
    parallel run is observably identical to the serial one (only faster),
    and [jobs:1] takes a plain inline loop with no domains at all. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** Cooperative cancellation tokens. A token is a plain [bool Atomic.t] —
    the same type {!Sat.Solver.solve} polls — so a watchdog here can cancel
    a SAT search in another domain with no dependency between the
    libraries. *)
module Cancel : sig
  type t = bool Atomic.t

  val create : unit -> t
  val set : t -> unit
  val is_set : t -> bool
end

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    domains (default {!default_jobs}), and returns results in input order.
    If any task raised, the first exception in input order is re-raised
    after all tasks have finished — with its original backtrace. *)

val map_timed : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b * float) list
(** Like {!map}, also returning each task's wall-clock seconds. *)

val map_governed :
  ?jobs:int ->
  ?deadline:float ->
  ?stop_when:('b -> bool) ->
  (Cancel.t -> 'a -> 'b) ->
  'a list ->
  (('b, exn) result * float) list
(** Resource-governed fan-out. Each task receives its own {!Cancel.t}
    token, which it should thread into its solver calls (e.g. via
    {!Bmc.limits}).

    [deadline] gives every task a wall-clock allowance in seconds: a
    watchdog domain polls running tasks and sets the token of any task
    past its deadline, so a hung query turns into an [Unknown] verdict
    instead of blocking the whole fan-out.

    [stop_when] is the first-counterexample early exit: as soon as a task
    completes with a result satisfying the predicate, every other task's
    token is set. Cancelled siblings still produce a row (typically
    [Unknown]), so the result list keeps one entry per input, in input
    order.

    Returns one [(outcome, wall_seconds)] pair per input. *)

val clamp_inner : jobs:int -> inner:int -> int * bool
(** [clamp_inner ~jobs ~inner] caps nested parallelism: the effective
    product [jobs × inner] must not exceed
    [Domain.recommended_domain_count ()]. Returns the clamped inner degree
    (at least 1 — the outer fan-out keeps its width) and whether clamping
    occurred, so callers can print a one-line warning. *)
