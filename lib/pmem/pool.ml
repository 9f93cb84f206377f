(* Simulated persistent-memory pool.

   The pool keeps two images of memory:

   - [volatile]: the view CPU loads observe.  Stores land here first, which
     models data sitting in the (volatile) cache hierarchy.
   - [durable]: the media contents, i.e. what survives a crash.

   A store marks its word dirty and records which thread/instruction wrote
   it.  CLWB over a line moves its dirty words into a "pending" set and —
   following the persistency-state convention of the paper (§4.3) — marks
   them clean for checking purposes.  SFENCE writes pending words back to
   the durable image.  Non-temporal stores are immediately clean but still
   only durable after the next fence.  A crash discards the volatile image
   and all pending-but-unfenced write-backs.

   Representation (the persistent-mode execution engine, Figure 10): the
   per-word dirty/writer/pending metadata is *epoch-stamped* — an entry is
   only valid when [meta_epoch.(w) = epoch], so invalidating all metadata
   is a single epoch bump instead of four whole-pool array fills.  Every
   image mutation also records its word (once per epoch) in a touched-word
   journal.

   The run-cost twin of that idea (the hot-path overhaul): a pending-word
   index records each word whose pending flag is raised, so SFENCE drains
   in O(pending) instead of scanning the pool, and the line ops walk
   [base, base+words_per_line) in place instead of materialising word
   lists.

   One rewind serves every reset ([boot]): a pool is re-booted in place
   from an image — a checkpoint between campaigns, a crash image in
   post-failure validation.  The pool remembers the image it was last
   booted from; while nothing re-bases it, the journal holds exactly the
   words that differ from that image, so booting the same image again is
   a journal rewind: reset cost is O(touched), not O(pool).  A different
   image costs one read-only compare pass plus a write per differing word
   — never a fresh allocation or a whole-image blit.

   The capture twin (copy-free crash surfaces): a crash surface is the
   durable image as a delta over a shared capture base.  The base is the
   image the journal diverges from — the booted (or checkpointed) image —
   or, for a pool with neither, one copy of the durable image taken at
   the first request and kept until the next boot or checkpoint.  Every
   durable word that differs from the base is journaled, so the delta is
   found in O(touched).  A mutation counter ([instant]) ticks on every
   image or metadata mutation, so a capture can tell when nothing changed
   since the last one and share its surface. *)

type writer = { tid : int; instr : int; seq : int }

type image = int64 array

type surface = ..
type surface += No_surface

type t = {
  words : int;
  mutable eadr : bool; (* extended ADR: the cache hierarchy is in the persistent domain *)
  volatile : int64 array;
  durable : int64 array;
  dirty_tid : int array; (* valid (and -1 = clean) only when meta_epoch matches *)
  dirty_instr : int array;
  dirty_seq : int array;
  pending : bool array; (* written back at the next SFENCE; epoch-guarded *)
  meta_epoch : int array; (* dirty_*/pending entries are valid iff = epoch *)
  mutable epoch : int;
  (* Touched-word journal: words whose volatile or durable image changed
     since the epoch began, each recorded once (journal_epoch dedupes). *)
  mutable journal : int array;
  mutable journal_len : int;
  journal_epoch : int array;
  (* Pending-word index: the set of words [sfence] must examine — every
     word whose [pending] flag was raised since the last drain, recorded
     once per generation ([pend_stamp] dedupes, like the journal).  Entries
     can be stale (a later store cleared the flag), so the index is a
     superset of the pending set; [sfence] filters, which makes a fence
     O(pending index) instead of an O(pool) scan.  Draining (a fence or an
     epoch change) bumps [pend_gen], so stale stamps never resurrect. *)
  mutable pend_idx : int array;
  mutable pend_len : int;
  pend_stamp : int array;
  mutable pend_gen : int;
  mutable booted : image; (* image the journal diverges from; [no_image] = none *)
  mutable cbase : image; (* capture base: durable image minus journaled words; [no_image] = none yet *)
  mutable instant : int; (* bumped by every image or metadata mutation; never rewound *)
  mutable surface : surface; (* last remembered crash surface ... *)
  mutable surface_instant : int; (* ... valid while [instant] still equals this *)
  mutable seq : int;
}

(* The "not booted" sentinel: no pool has zero words, so no bootable
   image is physically this one. *)
let no_image : image = [||]

let create ?(eadr = false) ~words () =
  if words <= 0 || words mod Cacheline.words_per_line <> 0 then
    invalid_arg "Pool.create: size must be a positive multiple of the line size";
  {
    words;
    eadr;
    volatile = Array.make words 0L;
    durable = Array.make words 0L;
    dirty_tid = Array.make words (-1);
    dirty_instr = Array.make words (-1);
    dirty_seq = Array.make words (-1);
    pending = Array.make words false;
    meta_epoch = Array.make words 0;
    epoch = 1;
    journal = Array.make 256 0;
    journal_len = 0;
    journal_epoch = Array.make words 0;
    pend_idx = Array.make 64 0;
    pend_len = 0;
    pend_stamp = Array.make words 0;
    pend_gen = 1;
    booted = no_image;
    cbase = no_image;
    instant = 0;
    surface = No_surface;
    surface_instant = -1;
    seq = 0;
  }

let size t = t.words

let check t w =
  if w < 0 || w >= t.words then
    invalid_arg (Printf.sprintf "Pool: word offset %d out of bounds [0,%d)" w t.words)

(* Record an image mutation in the touched-word journal, once per epoch. *)
let journal_touch t w =
  if t.journal_epoch.(w) <> t.epoch then begin
    t.journal_epoch.(w) <- t.epoch;
    if t.journal_len = Array.length t.journal then begin
      let bigger = Array.make (2 * t.journal_len) 0 in
      Array.blit t.journal 0 bigger 0 t.journal_len;
      t.journal <- bigger
    end;
    t.journal.(t.journal_len) <- w;
    t.journal_len <- t.journal_len + 1
  end

let touched_words t = t.journal_len

(* Record a word in the pending index, once per generation.  Callers raise
   [t.pending.(w)] themselves; the index only guarantees [sfence] will
   look at the word. *)
let pend_add t w =
  if t.pend_stamp.(w) <> t.pend_gen then begin
    t.pend_stamp.(w) <- t.pend_gen;
    if t.pend_len = Array.length t.pend_idx then begin
      let bigger = Array.make (2 * t.pend_len) 0 in
      Array.blit t.pend_idx 0 bigger 0 t.pend_len;
      t.pend_idx <- bigger
    end;
    t.pend_idx.(t.pend_len) <- w;
    t.pend_len <- t.pend_len + 1
  end

(* Empty the pending index.  Only valid when no word is pending any more
   (after a fence drained the queue, or when an epoch change invalidated
   all metadata); bumping the generation retires every stamp at once. *)
let pend_drain t =
  t.pend_gen <- t.pend_gen + 1;
  t.pend_len <- 0

let pending_index_size t = t.pend_len

(* Start a new epoch: all per-word metadata becomes invalid (clean, not
   pending) and the journal and pending index empty — O(1) instead of
   O(pool). *)
let new_epoch t =
  t.instant <- t.instant + 1;
  t.epoch <- t.epoch + 1;
  t.journal_len <- 0;
  pend_drain t

(* Validate a word's metadata entry for the current epoch, initialising it
   to the clean state when the stamp is stale. *)
let refresh_meta t w =
  if t.meta_epoch.(w) <> t.epoch then begin
    t.meta_epoch.(w) <- t.epoch;
    t.dirty_tid.(w) <- -1;
    t.dirty_instr.(w) <- -1;
    t.dirty_seq.(w) <- -1;
    t.pending.(w) <- false
  end

let load t w =
  check t w;
  t.volatile.(w)

let peek = load

(* The dirty indicator is the sequence number (>= 1 when dirty): thread
   ids can legitimately be negative (init/recovery contexts). *)
let dirty_writer t w =
  check t w;
  if t.meta_epoch.(w) <> t.epoch || t.dirty_seq.(w) < 0 then None
  else Some { tid = t.dirty_tid.(w); instr = t.dirty_instr.(w); seq = t.dirty_seq.(w) }

(* The fields of [dirty_writer], read without allocating: the load hook
   runs on every dirty read.  Only meaningful while the word is dirty. *)
let dirty_tid t w =
  check t w;
  t.dirty_tid.(w)

let dirty_instr t w =
  check t w;
  t.dirty_instr.(w)

let is_dirty t w =
  check t w;
  t.meta_epoch.(w) = t.epoch && t.dirty_seq.(w) >= 0

let is_pending t w =
  check t w;
  t.meta_epoch.(w) = t.epoch && t.pending.(w)

let is_durably_equal t w =
  check t w;
  Int64.equal t.volatile.(w) t.durable.(w)

let is_eadr t = t.eadr
let set_eadr t eadr = t.eadr <- eadr

let clean_word t w =
  t.dirty_tid.(w) <- -1;
  t.dirty_instr.(w) <- -1;
  t.dirty_seq.(w) <- -1

let store t ~tid ~instr w v =
  check t w;
  t.instant <- t.instant + 1;
  t.seq <- t.seq + 1;
  journal_touch t w;
  t.volatile.(w) <- v;
  if t.eadr then
    (* eADR (§6.6): caches are battery-backed, so every store is durable at
       once and never PM_DIRTY — the visibility/persistency gap is gone.
       No metadata entry is ever valid on an eADR pool. *)
    t.durable.(w) <- v
  else begin
    refresh_meta t w;
    t.dirty_tid.(w) <- tid;
    t.dirty_instr.(w) <- instr;
    t.dirty_seq.(w) <- t.seq;
    (* A store after CLWB but before the fence is not covered by the
       pending write-back: the line must be flushed again. *)
    t.pending.(w) <- false
  end

let movnt t ~tid:_ ~instr:_ w v =
  check t w;
  t.instant <- t.instant + 1;
  t.seq <- t.seq + 1;
  journal_touch t w;
  t.volatile.(w) <- v;
  if t.eadr then t.durable.(w) <- v
  else begin
    (* Non-temporal stores bypass the cache: the word is never PM_DIRTY for
       checking purposes, but durability still requires the next SFENCE. *)
    refresh_meta t w;
    clean_word t w;
    t.pending.(w) <- true;
    pend_add t w
  end

let clwb t w =
  check t w;
  t.instant <- t.instant + 1;
  (* Walk the line in place (Cacheline.iter_line geometry): the legacy
     words-of-line list cost one allocation per flush on the hottest
     instrumented operation. *)
  Cacheline.iter_line
    (fun x ->
      if t.meta_epoch.(x) = t.epoch && t.dirty_seq.(x) >= 0 then begin
        clean_word t x;
        t.pending.(x) <- true;
        pend_add t x
      end)
    w

(* Persist one pending word: clear the flag, journal the durable-image
   mutation, write back. *)
let persist_word t w =
  t.pending.(w) <- false;
  journal_touch t w;
  t.durable.(w) <- t.volatile.(w)

(* Sort [a.(0 .. n-1)] ascending in place.  A fence drains a handful of
   words, so short prefixes take an insertion sort; longer ones a heap
   sort (worst case O(n log n), no allocation). *)
let insertion_cutoff = 16

let sort_prefix (a : int array) n =
  if n <= insertion_cutoff then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let rec sift root len =
      let child = (2 * root) + 1 in
      if child < len then begin
        let child = if child + 1 < len && a.(child + 1) > a.(child) then child + 1 else child in
        if a.(child) > a.(root) then begin
          let x = a.(root) in
          a.(root) <- a.(child);
          a.(child) <- x;
          sift child len
        end
      end
    in
    for root = (n / 2) - 1 downto 0 do
      sift root n
    done;
    for last = n - 1 downto 1 do
      let x = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- x;
      sift 0 last
    done
  end

let sfence t =
  t.instant <- t.instant + 1;
  (* Compact the index in place down to the words that are still pending
     (stores since their CLWB may have cleared the flag) ... *)
  let n = ref 0 in
  for i = 0 to t.pend_len - 1 do
    let w = t.pend_idx.(i) in
    if t.meta_epoch.(w) = t.epoch && t.pending.(w) then begin
      t.pend_idx.(!n) <- w;
      incr n
    end
  done;
  let n = !n in
  (* ... then sort that prefix in place, so the persisted list comes back
     in the ascending order the legacy full scan produced: checkers and
     golden fingerprints observe it.  O(pending log pending), independent
     of the pool size, and no copy. *)
  sort_prefix t.pend_idx n;
  let persisted = ref [] in
  for i = n - 1 downto 0 do
    let w = t.pend_idx.(i) in
    persist_word t w;
    persisted := w :: !persisted
  done;
  pend_drain t;
  !persisted

(* The legacy O(pool-size) fence: a full descending scan over every word.
   Kept verbatim as the executable specification of [sfence] — the
   equivalence property in test_pool runs both in lockstep — and as the
   "before" side of the hotpath bench.  Do not optimise this. *)
let sfence_scan t =
  t.instant <- t.instant + 1;
  let persisted = ref [] in
  for w = t.words - 1 downto 0 do
    if t.meta_epoch.(w) = t.epoch && t.pending.(w) then begin
      persist_word t w;
      persisted := w :: !persisted
    end
  done;
  pend_drain t;
  !persisted

let evict_line t line =
  let base = Cacheline.first_word_of_line line in
  if base < 0 || base >= t.words then
    invalid_arg "Pool.evict_line: line out of bounds";
  t.instant <- t.instant + 1;
  let evicted = ref [] in
  Cacheline.iter_line
    (fun w ->
      if is_dirty t w then begin
        clean_word t w;
        journal_touch t w;
        t.durable.(w) <- t.volatile.(w);
        evicted := w :: !evicted
      end)
    base;
  List.rev !evicted

(* Within an epoch every dirty word was stored (journaled) and every
   pending word was movnt'd (journaled) or was dirty when CLWB'd (ditto),
   so the touched-word journal is a superset of dirty ∪ pending: walking
   it — O(touched) — replaces the O(pool) scans below.  The journal is in
   first-touch order, so sort to keep the historical ascending results. *)
let dirty_words t =
  let acc = ref [] in
  for i = 0 to t.journal_len - 1 do
    let w = t.journal.(i) in
    if is_dirty t w then acc := w :: !acc
  done;
  List.sort Int.compare !acc

let pending_words t =
  let acc = ref [] in
  for i = 0 to t.journal_len - 1 do
    let w = t.journal.(i) in
    if is_pending t w then acc := w :: !acc
  done;
  List.sort Int.compare !acc

let quiesce t =
  t.instant <- t.instant + 1;
  for i = 0 to t.journal_len - 1 do
    let w = t.journal.(i) in
    if is_dirty t w then begin
      clean_word t w;
      t.pending.(w) <- true;
      pend_add t w
    end
  done;
  ignore (sfence t)

let crash_image t = Array.copy t.durable

let capture_base t =
  if t.cbase == no_image then t.cbase <- Array.copy t.durable;
  t.cbase

(* Values are boxed, and an unchanged word shares its box with the base
   (a drained one with its volatile copy): test physical equality before
   loading the boxes. *)
let differ (x : int64) y = x != y && not (Int64.equal x y)

let capture_delta t =
  let base = capture_base t in
  let durable = ref [] and flight = ref [] in
  for i = 0 to t.journal_len - 1 do
    let w = t.journal.(i) in
    let d = t.durable.(w) in
    if differ d base.(w) then durable := (w, d) :: !durable;
    if t.meta_epoch.(w) = t.epoch then begin
      let pending = t.pending.(w) in
      if pending || t.dirty_seq.(w) >= 0 then begin
        let v = t.volatile.(w) in
        if differ v d then flight := (w, v, pending) :: !flight
      end
    end
  done;
  (base, !durable, !flight)

let remembered_surface t = if t.surface_instant = t.instant then t.surface else No_surface

let remember_surface t s =
  t.surface <- s;
  t.surface_instant <- t.instant

let image_word (img : image) w = img.(w)
let image_words (img : image) = Array.length img
let image_copy (img : image) = Array.copy img
let image_set (img : image) w v = img.(w) <- v

let of_image (img : image) =
  let t = create ~words:(Array.length img) () in
  Array.blit img 0 t.volatile 0 (Array.length img);
  Array.blit img 0 t.durable 0 (Array.length img);
  t

(* Install [v] as word [w]'s volatile and durable contents, skipping the
   write (and its barrier) when the word already holds it. *)
let install t w v =
  let cur = t.volatile.(w) in
  if cur != v && not (Int64.equal cur v) then t.volatile.(w) <- v;
  let cur = t.durable.(w) in
  if cur != v && not (Int64.equal cur v) then t.durable.(w) <- v

let rec check_delta t = function
  | [] -> ()
  | (w, _) :: rest ->
      check t w;
      check_delta t rest

(* The delta words diverge from the booted image: journal them so the
   next boot rewinds them too. *)
let rec apply_delta t = function
  | [] -> ()
  | (w, v) :: rest ->
      journal_touch t w;
      install t w v;
      apply_delta t rest

(* The pool holds exactly [img] in both images: start a fresh epoch
   (all clean, nothing pending, empty journal) booted from [img]. *)
let rebase t (img : image) =
  new_epoch t;
  t.booted <- img;
  t.cbase <- img;
  t.seq <- 0

let boot ?(delta = []) t (img : image) =
  if Array.length img <> t.words then invalid_arg "Pool.boot: image size mismatch";
  check_delta t delta;
  if t.booted == img then
    (* Every image mutation since the last boot from [img] is journaled:
       undoing those words is the whole boot. *)
    for i = 0 to t.journal_len - 1 do
      let w = t.journal.(i) in
      install t w img.(w)
    done
  else
    for w = 0 to t.words - 1 do
      install t w img.(w)
    done;
  rebase t img;
  t.eadr <- false;
  apply_delta t delta

let checkpoint t =
  (* Only a quiesced pool (no dirty or pending words) has one image to
     checkpoint: the write-back queue is not part of an image.  Any
     dirty/pending word was image-mutated this epoch, so scanning the
     journal suffices to enforce this. *)
  for i = 0 to t.journal_len - 1 do
    let w = t.journal.(i) in
    if is_dirty t w || is_pending t w || not (Int64.equal t.volatile.(w) t.durable.(w)) then
      invalid_arg "Pool.checkpoint: pool not quiesced (dirty or pending words)"
  done;
  (* Both images now equal the copy: the pool is booted from it. *)
  let img = Array.copy t.durable in
  rebase t img;
  img
