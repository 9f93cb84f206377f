(* Systematic crash-image enumeration.

   The durable state at a failure point is underdetermined: the base
   [Pool.crash_image] shows what has provably drained, but any subset of
   the in-flight cache lines may additionally have reached PM (WITCHER /
   Chipmunk enumerate exactly this space).  The reachable images are
   constrained by fence order *within* a line:

   - a pending word (flushed, awaiting the fence) may drain by itself;
   - a dirty word can only drain through a whole-line eviction, which
     also carries every pending word of that line with it.

   So each in-flight line has a small "drain level" radix — 1 (nothing
   in flight), 2 (pending XOR dirty words), or 3 (pending words first,
   then pending+dirty) — and a crash state is one digit per line.  Lines
   drain independently of each other: cross-line fence order is already
   folded into the base image (everything older than the last fence is
   durable there).

   Capture is O(touched): the candidate words come from the pool's
   touched-word journal ([Pool.dirty_words] / [Pool.pending_words]),
   filtered to words whose volatile value actually differs from the
   durable one (a no-op drain yields the same image, so it is excluded
   to keep every enumerated image distinct).

   States are materialised lazily as deltas — [(word, volatile value)]
   lists applied over the shared base image — never a full pool copy per
   image.  Enumeration order is deterministic and indexable: by total
   drain weight (number of non-zero digits' sum), then lexicographically
   by line address; index 0 is always the empty delta, i.e. exactly the
   base [Pool.crash_image].  Validating only index 0 therefore
   reproduces single-image behaviour bit-identically. *)

type delta = (int * int64) list

type line = {
  l_line : int; (* line number, for ordering *)
  l_pending : (int * int64) array; (* (word, volatile value), ascending *)
  l_dirty : (int * int64) array;
}

type state = { c_base : Pool.image; c_lines : line array }

let capture pool =
  let base = Pool.crash_image pool in
  let tbl : (int, (int * int64) list ref * (int * int64) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let slot line =
    match Hashtbl.find_opt tbl line with
    | Some s -> s
    | None ->
        let s = (ref [], ref []) in
        Hashtbl.add tbl line s;
        s
  in
  let record ~pending w =
    let v = Pool.peek pool w in
    if not (Int64.equal v (Pool.image_word base w)) then begin
      let p, d = slot (Cacheline.line_of_word w) in
      let cell = if pending then p else d in
      cell := (w, v) :: !cell
    end
  in
  List.iter (record ~pending:true) (Pool.pending_words pool);
  List.iter (record ~pending:false) (Pool.dirty_words pool);
  let lines =
    Hashtbl.fold
      (fun line (p, d) acc ->
        {
          l_line = line;
          l_pending = Array.of_list (List.sort compare !p);
          l_dirty = Array.of_list (List.sort compare !d);
        }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.l_line b.l_line)
    |> Array.of_list
  in
  { c_base = base; c_lines = lines }

let of_image img = { c_base = img; c_lines = [||] }
let base st = st.c_base
let line_count st = Array.length st.c_lines

let radix l =
  1
  + (if Array.length l.l_pending > 0 then 1 else 0)
  + if Array.length l.l_dirty > 0 then 1 else 0

(* Saturating product: radices are tiny but there may be many lines. *)
let count st =
  Array.fold_left
    (fun acc l ->
      let r = radix l in
      if acc > max_int / r then max_int else acc * r)
    1 st.c_lines

(* The delta contributed by draining line [l] to level [d]:
   level 1 drains the pending words (or the dirty words when nothing is
   pending — a dirty-only line can still be evicted whole); level 2
   drains both.  Dirty words never drain without the line's pending
   words: eviction writes back the entire line. *)
let line_delta l d acc =
  let add arr acc = Array.fold_right (fun wv acc -> wv :: acc) arr acc in
  match d with
  | 0 -> acc
  | 1 -> if Array.length l.l_pending > 0 then add l.l_pending acc else add l.l_dirty acc
  | _ -> add l.l_dirty (add l.l_pending acc)

(* All digit vectors of total weight [w] over [radices], lexicographically
   ascending with the lowest line most significant. *)
let rec vectors radices i w : int list Seq.t =
  if i = Array.length radices then if w = 0 then Seq.return [] else Seq.empty
  else
    Seq.concat_map
      (fun d -> Seq.map (fun tl -> d :: tl) (vectors radices (i + 1) (w - d)))
      (Seq.init (min (radices.(i) - 1) w + 1) Fun.id)

let delta_of_digits st digits =
  let acc = ref [] in
  List.iteri (fun i d -> acc := line_delta st.c_lines.(i) d !acc) digits;
  List.sort compare !acc

let to_seq st : (int * delta) Seq.t =
  let radices = Array.map radix st.c_lines in
  let max_weight = Array.fold_left (fun a r -> a + r - 1) 0 radices in
  Seq.init (max_weight + 1) Fun.id
  |> Seq.concat_map (fun w -> vectors radices 0 w)
  |> Seq.map (delta_of_digits st)
  |> Seq.mapi (fun i d -> (i, d))

let delta st i =
  if i < 0 then None
  else
    let rec go s =
      match s () with
      | Seq.Nil -> None
      | Seq.Cons ((j, d), rest) -> if j = i then Some d else go rest
    in
    go (to_seq st)

let image st i =
  Option.map
    (fun d ->
      let img = Pool.image_copy st.c_base in
      List.iter (fun (w, v) -> Pool.image_set img w v) d;
      img)
    (delta st i)
