(* PMRace's operation mutator (§4.5) and the AFL++-style byte mutator it
   is compared against in Table 4.

   The operation mutator evolves seeds with the five strategies inherited
   from Krace — mutation, addition, deletion, shuffling, merging — plus the
   PM-specific twists: parameters prefer keys similar to existing ones (to
   provoke shared accesses and PM alias pairs), and a "populate" fallback
   floods the store with inserts to trigger resizing paths. *)

module Rng = Sched.Rng

type strategy = Mutation | Addition | Deletion | Shuffling | Merging

let strategies = [ Mutation; Addition; Deletion; Shuffling; Merging ]

let existing_keys seed = List.map Seed.key_of (Seed.all_ops seed)

let near_key rng seed profile =
  match existing_keys seed with
  | [] -> None
  | keys ->
      let k = Rng.pick rng keys in
      Some ((k + Rng.int rng 3 - 1 + profile.Seed.key_range) mod profile.Seed.key_range)

(* Updating an arbitrary parameter of a random operation. *)
let mutate_op rng profile seed =
  let threads = Array.map Array.copy (Seed.threads seed) in
  let ti = Rng.int rng (Array.length threads) in
  if Array.length threads.(ti) = 0 then Seed.make threads
  else begin
    let oi = Rng.int rng (Array.length threads.(ti)) in
    threads.(ti).(oi) <- Seed.gen_op rng profile ~near:(near_key rng seed profile);
    Seed.make threads
  end

(* Adding an operation at an arbitrary position. *)
let add_op rng profile seed =
  let threads = Array.map Array.copy (Seed.threads seed) in
  let ti = Rng.int rng (Array.length threads) in
  let ops = threads.(ti) in
  let pos = Rng.int rng (Array.length ops + 1) in
  let op = Seed.gen_op rng profile ~near:(near_key rng seed profile) in
  threads.(ti) <-
    Array.init
      (Array.length ops + 1)
      (fun i -> if i < pos then ops.(i) else if i = pos then op else ops.(i - 1));
  Seed.make threads

(* Deleting an arbitrary operation. *)
let delete_op rng _profile seed =
  let threads = Array.map Array.copy (Seed.threads seed) in
  let ti = Rng.int rng (Array.length threads) in
  let ops = threads.(ti) in
  if Array.length ops <= 1 then Seed.make threads
  else begin
    let pos = Rng.int rng (Array.length ops) in
    threads.(ti) <-
      Array.init (Array.length ops - 1) (fun i -> if i < pos then ops.(i) else ops.(i + 1));
    Seed.make threads
  end

(* Shuffling operations and redistributing them over the threads. *)
let shuffle_ops rng _profile seed =
  let all = Array.of_list (Seed.all_ops seed) in
  let shuffled = Rng.shuffle rng all in
  let nthreads = Array.length (Seed.threads seed) in
  let buckets = Array.make nthreads [] in
  Array.iteri (fun i op -> buckets.(i mod nthreads) <- op :: buckets.(i mod nthreads)) shuffled;
  Seed.make (Array.map (fun ops -> Array.of_list (List.rev ops)) buckets)

(* Merging two existing seeds into a new one. *)
let merge rng _profile a b =
  let ta = Seed.threads a and tb = Seed.threads b in
  let nthreads = max (Array.length ta) (Array.length tb) in
  let merged =
    Array.init nthreads (fun i ->
        let get t = if i < Array.length t then t.(i) else [||] in
        let xs = get ta and ys = get tb in
        if Rng.bool rng then Array.append xs ys else Array.append ys xs)
  in
  Seed.make merged

let evolve rng profile ~corpus seed =
  match Rng.pick rng strategies with
  | Mutation -> (Mutation, mutate_op rng profile seed)
  | Addition -> (Addition, add_op rng profile seed)
  | Deletion -> (Deletion, delete_op rng profile seed)
  | Shuffling -> (Shuffling, shuffle_ops rng profile seed)
  | Merging ->
      let other = match corpus with [] -> seed | c -> Rng.pick rng c in
      (Merging, merge rng profile seed other)

(* The load-phase fallback: flood the system with inserts over many keys,
   triggering resize/migration paths in PM indexes. *)
let populate rng (profile : Seed.profile) ~factor =
  let ops_per_thread = profile.ops_per_thread * factor in
  let threads =
    Array.init profile.threads (fun _ ->
        Array.init ops_per_thread (fun _ ->
            Seed.Put
              {
                key = Rng.int rng profile.key_range;
                value = 1 + Rng.int rng profile.value_range;
              }))
  in
  Seed.make threads

(* ------------------------------------------------------------------ *)
(* The AFL++-style havoc byte mutator (the Table 4 baseline): random
   bit flips, byte replacements, insertions and deletions over the raw
   rendered command text, with no knowledge of the protocol grammar. *)

let afl_havoc rng s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_string b s;
  let rounds = 1 + Rng.int rng 8 in
  let current = ref (Buffer.contents b) in
  for _ = 1 to rounds do
    let s = !current in
    let n = String.length s in
    if n > 0 then
      match Rng.int rng 4 with
      | 0 ->
          (* bit flip *)
          let i = Rng.int rng n in
          let c = Char.chr (Char.code s.[i] lxor (1 lsl Rng.int rng 8)) in
          current := String.mapi (fun j cj -> if j = i then c else cj) s
      | 1 ->
          (* random byte replacement *)
          let i = Rng.int rng n in
          let c = Char.chr (Rng.int rng 256) in
          current := String.mapi (fun j cj -> if j = i then c else cj) s
      | 2 ->
          (* insertion *)
          let i = Rng.int rng (n + 1) in
          let c = Char.chr (Rng.int rng 256) in
          current := String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ ->
          (* deletion *)
          let i = Rng.int rng n in
          current := String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  done;
  !current
