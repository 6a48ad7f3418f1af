(* The benchmark's own logic, kept free of solving so it can be tested in
   isolation: golden-matrix parsing, seeded cell draws, the tail-percentile
   rule, and span self-time derivation over an [Obs] trace. *)

(* {1 Cells and the golden matrix} *)

type cell = {
  design : string;
  mutant : string;  (** mutant id, or {!correct} for the unmutated design *)
  golden : string;  (** [proved@N] or [detected@N:<kind>] *)
}

let correct = "correct"
let cell_id c = c.design ^ "/" ^ c.mutant

let correct_cell ~design ~rec_bound =
  { design; mutant = correct; golden = Printf.sprintf "proved@%d" rec_bound }

(* The verdict class: the part of a golden verdict before '@'. *)
let verdict_class v =
  match String.index_opt v '@' with Some i -> String.sub v 0 i | None -> v

let is_nat s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let well_formed v =
  match String.index_opt v '@' with
  | None -> false
  | Some i -> (
      let rest = String.sub v (i + 1) (String.length v - i - 1) in
      match String.sub v 0 i with
      | "proved" -> is_nat rest
      | "detected" -> (
          match String.index_opt rest ':' with
          | Some j -> is_nat (String.sub rest 0 j) && j + 1 < String.length rest
          | None -> false)
      | _ -> false)

(* One [<design> <mutant_id> <verdict>] line per cell; blank lines are
   skipped, anything else malformed rejects the whole file. *)
let parse_golden text =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "" ] -> go (lineno + 1) acc rest
        | [ design; mutant; golden ] when well_formed golden ->
            go (lineno + 1) ({ design; mutant; golden } :: acc) rest
        | _ -> Error (Printf.sprintf "golden line %d malformed: %S" lineno line))
  in
  go 1 [] (String.split_on_char '\n' text)

(* {1 Seeded draws}

   A draw is an endless, seed-determined supply of cells in passes: each
   pass is a permutation of the whole pool, so every [|pool|] consecutive
   draws from a pass boundary hold every cell exactly once. Within a pass
   the permutation is stratified by design: a design's cells sit at evenly
   spaced positions (the [r]-th of its [n] cells, in a shuffled order, at
   key [(r + u) / n] with [u] uniform in [0, 1)), so every prefix holds
   each design in proportion to its cells whatever the seed. Seeds change
   which of a design's cells come first, and in what order, but not how
   the work splits across designs. *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let pass rng cells =
  let designs = List.sort_uniq compare (List.map (fun c -> c.design) cells) in
  List.concat_map
    (fun d ->
      let group = Array.of_list (List.filter (fun c -> c.design = d) cells) in
      shuffle rng group;
      let n = float_of_int (Array.length group) in
      List.mapi
        (fun r c -> ((float_of_int r +. Random.State.float rng 1.) /. n, c))
        (Array.to_list group))
    designs
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let draw ~seed cells =
  if cells = [] then invalid_arg "Perfbench.draw: empty pool";
  let rng = Random.State.make [| seed |] in
  let queue = ref [] in
  fun () ->
    if !queue = [] then queue := pass rng cells;
    match !queue with
    | c :: rest ->
        queue := rest;
        c
    | [] -> assert false

(* [interleave [(d1, k1); (d2, k2)]] takes [k1] cells from [d1], then [k2]
   from [d2], and repeats: a fixed class ratio in every block. *)
let interleave parts =
  let block = Array.of_list (List.concat_map (fun (d, k) -> List.init k (fun _ -> d)) parts) in
  if block = [||] then invalid_arg "Perfbench.interleave: empty block";
  let i = ref 0 in
  fun () ->
    let d = block.(!i mod Array.length block) in
    incr i;
    d ()

(* The next [n] cells of a draw, in draw order. *)
let take n next =
  let rec go acc k = if k = 0 then List.rev acc else go (next () :: acc) (k - 1) in
  go [] n

(* {1 Summary statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest whole percentile [q] whose nearest-rank value still has at
   least [beyond] samples ranked above it: with [n] samples that is the
   largest [q] with [n - ceil (q n / 100) >= beyond]. Returns [(q, value)];
   a sample too small for any such [q] falls back to the median, [q = 50]. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank q = (q * n + 99) / 100 in
  let rec find q =
    if q < 1 then None
    else if rank q >= 1 && n - rank q >= beyond then Some q
    else find (q - 1)
  in
  match find 99 with
  | Some q -> (q, a.(rank q - 1))
  | None -> (50, median xs)

(* {1 Span self times}

   [span_table events] folds a well-formed trace into one row per span
   name: how many spans, their summed duration, and their summed self time
   (duration minus the part covered by direct child spans on the same
   domain). Spans nest per domain, as [Obs.Trace.check] guarantees. *)

type span_row = { count : int; total : float; self : float }

let span_table events =
  let rows : (string, span_row) Hashtbl.t = Hashtbl.create 16 in
  let stacks : (int, (string * float * float ref) list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.ev_domain) in
      match (e.ev_kind, stack) with
      | Obs.Trace.Begin, _ ->
          Hashtbl.replace stacks e.ev_domain ((e.ev_name, e.ev_ts, ref 0.) :: stack)
      | Obs.Trace.End, (name, t0, children) :: outer ->
          let dur = e.ev_ts -. t0 in
          (match outer with (_, _, c) :: _ -> c := !c +. dur | [] -> ());
          let r =
            Option.value ~default:{ count = 0; total = 0.; self = 0. }
              (Hashtbl.find_opt rows name)
          in
          Hashtbl.replace rows name
            { count = r.count + 1; total = r.total +. dur; self = r.self +. dur -. !children };
          Hashtbl.replace stacks e.ev_domain outer
      | _ -> ())
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [])
