(* Pure pieces of the bench report, split out of [main] so they are
   unit-testable (the executable itself only runs whole experiments): the
   report tree and its renderer, the flip counter behind every
   lane-vs-lane gate, and the geo-mean of timing pairs. *)

(* The report tree. [Obj] and [Arr] print one member or element per line,
   [Row] prints all its members on one line. [Num (d, x)] prints [x] with
   [d] decimals, and NaN, meaning "no figure", as null. Strings print with
   OCaml escapes, which agree with JSON on the printable ASCII the report
   carries. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of int * float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list
  | Row of (string * json) list

(* The only code that knows the report layout: two-space indentation,
   ["key": value] members, and one trailing newline. *)
let render json =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let rec value indent = function
    | Null -> add "null"
    | Bool v -> add (string_of_bool v)
    | Int n -> add (string_of_int n)
    | Num (_, x) when Float.is_nan x -> add "null"
    | Num (d, x) -> add (Printf.sprintf "%.*f" d x)
    | Str s -> add (Printf.sprintf "%S" s)
    | Row kvs ->
        add "{";
        List.iteri (fun i kv -> if i > 0 then add ", "; member indent kv) kvs;
        add "}"
    | Arr xs -> lines indent "[" "]" (List.map (fun x ind -> value ind x) xs)
    | Obj kvs -> lines indent "{" "}" (List.map (fun kv ind -> member ind kv) kvs)
  and member indent (k, v) =
    add (Printf.sprintf "%S: " k);
    value indent v
  and lines indent opening closing items =
    add opening;
    add "\n";
    List.iteri
      (fun i item ->
        if i > 0 then add ",\n";
        add (String.make (indent + 2) ' ');
        item (indent + 2))
      items;
    (match items with [] -> () | _ -> add "\n");
    add (String.make indent ' ');
    add closing
  in
  value 0 json;
  add "\n";
  Buffer.contents b

(* Verdict flips between two lanes' matrices, each a list of (cell key,
   verdict) with unique keys. A cell whose verdicts differ counts once, and
   so does a cell that only one lane has: a lane that lost or invented a
   cell is as wrong as one that changed a verdict. *)
let lane_flips a b =
  let differs other (k, v) =
    match List.assoc_opt k other with Some v' -> v' <> v | None -> true
  in
  List.length (List.filter (differs b) a)
  + List.length (List.filter (fun (k, _) -> not (List.mem_assoc k a)) b)

(* Geometric mean of base/variant over per-design timing pairs, ignoring
   pairs where either side is nonpositive (a design whose whole lane ran
   in under a clock tick carries no signal). [None] when nothing usable
   remains. *)
let geo_mean_ratio pairs =
  let logs =
    List.filter_map
      (fun (base, variant) ->
        if base > 0.0 && variant > 0.0 then Some (log (base /. variant)) else None)
      pairs
  in
  match logs with
  | [] -> None
  | _ ->
      Some (exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs)))
