(* Growable polymorphic array: the solver's clause databases, the failed-
   assumption list, and DRAT checking. Unlike [Buffer] or lists, it supports
   O(1) random access, O(1) amortized push, and O(1) unordered removal (swap
   with last). The solver's hot paths (trail, watch lists, order heap) use
   the unboxed [Ivec] in solver.ml instead: a ['a array] pays a tag check on
   every read and the write barrier on every write. *)

type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) dummy =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size t = t.size

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.size then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- v

let unsafe_get t i = Array.unsafe_get t.data i
let unsafe_set t i v = Array.unsafe_set t.data i v

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t v =
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- v;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Vec.pop: empty";
  t.size <- t.size - 1;
  let v = t.data.(t.size) in
  t.data.(t.size) <- t.dummy;
  v

let last t =
  if t.size = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.size - 1)

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0

(* Truncate to [n] elements, n <= size. *)
let shrink t n =
  if n < 0 || n > t.size then invalid_arg "Vec.shrink";
  Array.fill t.data n (t.size - n) t.dummy;
  t.size <- n

(* Remove element [i] by swapping the last element into its place. *)
let swap_remove t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.swap_remove";
  t.size <- t.size - 1;
  t.data.(i) <- t.data.(t.size);
  t.data.(t.size) <- t.dummy

let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.data i)
  done

let exists p t =
  let rec loop i = i < t.size && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
  loop (t.size - 1) []

let sort_sub cmp t =
  let sub = Array.sub t.data 0 t.size in
  Array.sort cmp sub;
  Array.blit sub 0 t.data 0 t.size
