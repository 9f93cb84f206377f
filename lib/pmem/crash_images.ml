(* Systematic crash-image enumeration.

   The durable state at a failure point is underdetermined:
   [Pool.crash_image] (image 0) shows what has provably drained, but any
   subset of the in-flight cache lines may additionally have reached PM
   (WITCHER / Chipmunk enumerate exactly this space).  The reachable images are
   constrained by fence order *within* a line:

   - a pending word (flushed, awaiting the fence) may drain by itself;
   - a dirty word can only drain through a whole-line eviction, which
     also carries every pending word of that line with it.

   So each in-flight line has a small "drain level" radix — 1 (nothing
   in flight), 2 (pending XOR dirty words), or 3 (pending words first,
   then pending+dirty) — and a crash state is one digit per line.  Lines
   drain independently of each other: cross-line fence order is already
   folded into image 0 (everything older than the last fence is durable
   there).

   Capture is O(touched) and copies no pool: a surface is a shared base
   image ([Pool.capture_delta] — the checkpoint's durable image, the
   booted image, or one copy per fresh pool) plus the durable delta, the
   words whose durable value differs from the base, plus the in-flight
   lines.  Both come from one walk of the pool's touched-word
   journal; in-flight words are filtered to those whose volatile value
   actually differs from the durable one (a no-op drain yields the same
   image, so it is excluded to keep every enumerated image distinct).
   Image 0 is base + durable delta, exactly [Pool.crash_image] at the
   capture.  A capture at the same pool instant as the previous one (no
   mutation in between) returns that surface itself.

   Enumerated states are deltas over image 0 — [(word, volatile value)]
   lists — never a full pool copy per image.  Enumeration order is
   deterministic and indexable: by total drain weight (the sum of the
   lines' drain levels), then lexicographically by line address; index
   0 is always the empty delta.  Validating only index 0 therefore
   reproduces single-image behaviour bit-identically. *)

type delta = (int * int64) list

(* An in-flight line is its drain levels: [line.(d - 1)] is the delta
   level [d] contributes, (word, volatile value) pairs, ascending.  Level
   1 drains the pending words (or the dirty words when nothing is
   pending — a dirty-only line can still be evicted whole); level 2,
   present when the line has both, drains both.  Dirty words never drain
   without the line's pending words: eviction writes back the entire
   line. *)
type state = {
  c_base : Pool.image; (* shared, never written *)
  c_durable : delta; (* base + this = image 0; distinct words, any order *)
  c_lines : delta array array; (* in-flight lines, ascending *)
}

type Pool.surface += Surface of state

(* Merge two ascending deltas over disjoint words. *)
let rec merge a b =
  match (a, b) with
  | [], d | d, [] -> d
  | ((wa, _) as x) :: xs, ((wb, _) as y) :: ys ->
      if wa < wb then x :: merge xs b else y :: merge a ys

(* Group ascending in-flight words into lines, ascending. *)
let lines_of flight =
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | (w, _, _) :: _ as ws ->
        let line = Cacheline.line_of_word w in
        let rec split p d = function
          | (w, v, pending) :: rest when Cacheline.line_of_word w = line ->
              if pending then split ((w, v) :: p) d rest else split p ((w, v) :: d) rest
          | rest -> (List.rev p, List.rev d, rest)
        in
        let p, d, rest = split [] [] ws in
        let levels = if p = [] then [| d |] else if d = [] then [| p |] else [| p; merge p d |] in
        go (levels :: acc) rest
  in
  go [] flight

let capture pool =
  match Pool.remembered_surface pool with
  | Surface st -> st
  | _ ->
      let base, durable, flight = Pool.capture_delta pool in
      let flight = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) flight in
      let st = { c_base = base; c_durable = durable; c_lines = lines_of flight } in
      Pool.remember_surface pool (Surface st);
      st

let base st = st.c_base
let line_count st = Array.length st.c_lines
let radix line = 1 + Array.length line

(* Saturating product: radices are tiny but there may be many lines. *)
let count st =
  Array.fold_left
    (fun acc l ->
      let r = radix l in
      if acc > max_int / r then max_int else acc * r)
    1 st.c_lines

(* The delta of a digit vector: each line's level is prepended in turn,
   last line first, so the result comes out ascending without a sort
   (lines are disjoint and ascending).  The last drained line's level is
   shared, not copied: a one-line delta allocates nothing. *)
let delta_of_digits st digits =
  let acc = ref [] in
  for i = Array.length digits - 1 downto 0 do
    let d = digits.(i) in
    if d > 0 then begin
      let level = st.c_lines.(i).(d - 1) in
      acc := if !acc = [] then level else level @ !acc
    end
  done;
  !acc

(* Put weight [w] on lines [from..], lexicographically smallest: as much
   as possible on the last lines.  The caller ensures it fits. *)
let fill_right radices digits from w =
  let w = ref w in
  for i = Array.length digits - 1 downto from do
    let d = min !w (radices.(i) - 1) in
    digits.(i) <- d;
    w := !w - d
  done

(* The next digit vector of the same total weight, lexicographically
   (lowest line most significant), as a fresh array; [None] after the
   last.  Raise the rightmost digit that has room while a later digit
   can give up one unit, then refill the rest as small as possible. *)
let next_vector radices digits =
  let rec find i later =
    if i < 0 then None
    else if digits.(i) < radices.(i) - 1 && later > 0 then Some (i, later)
    else find (i - 1) (later + digits.(i))
  in
  Option.map
    (fun (i, later) ->
      let next = Array.copy digits in
      next.(i) <- next.(i) + 1;
      fill_right radices next (i + 1) (later - 1);
      next)
    (find (Array.length digits - 1) 0)

let to_seq st : (int * delta) Seq.t =
  let n = Array.length st.c_lines in
  let radices = Array.map radix st.c_lines in
  let max_weight = Array.fold_left (fun a r -> a + r - 1) 0 radices in
  (* By total weight, then lexicographically within a weight. *)
  let rec from idx w digits () =
    Seq.Cons
      ( (idx, delta_of_digits st digits),
        fun () ->
          match next_vector radices digits with
          | Some next -> from (idx + 1) w next ()
          | None when w < max_weight ->
              let first = Array.make n 0 in
              fill_right radices first 0 (w + 1);
              from (idx + 1) (w + 1) first ()
          | None -> Seq.Nil )
  in
  from 0 0 (Array.make n 0)

let delta st i =
  if i < 0 then None
  else
    let rec go s =
      match s () with
      | Seq.Nil -> None
      | Seq.Cons ((j, d), rest) -> if j = i then Some d else go rest
    in
    go (to_seq st)

let boot_delta st d = if d = [] then st.c_durable else st.c_durable @ d

let image_word st d w =
  match List.assoc_opt w d with
  | Some v -> v
  | None -> (
      match List.assoc_opt w st.c_durable with
      | Some v -> v
      | None -> Pool.image_word st.c_base w)

let image st i =
  Option.map
    (fun d ->
      let img = Pool.image_copy st.c_base in
      List.iter (fun (w, v) -> Pool.image_set img w v) (boot_delta st d);
      img)
    (delta st i)
