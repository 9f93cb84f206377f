(* Cache-line geometry of the simulated persistent-memory device.

   Addresses throughout the simulator are *word offsets* into the pool
   (one word = 8 bytes), so a cache line groups [words_per_line]
   consecutive words.  This mirrors the 64-byte line granularity of
   CLWB/CLFLUSHOPT on x86. *)

let bytes_per_word = 8
let words_per_line = 8
let bytes_per_line = bytes_per_word * words_per_line

let line_of_word w = w / words_per_line
let first_word_of_line l = l * words_per_line

(* All word offsets covered by the line containing [w], as a list.  The
   reference [iter_line] and [fold_line] are tested against; no program
   code calls it. *)
let words_of_line_containing w =
  let base = first_word_of_line (line_of_word w) in
  List.init words_per_line (fun i -> base + i)

let iter_line f w =
  let base = first_word_of_line (line_of_word w) in
  for x = base to base + words_per_line - 1 do
    f x
  done

let fold_line f init w =
  let base = first_word_of_line (line_of_word w) in
  let acc = ref init in
  for x = base to base + words_per_line - 1 do
    acc := f !acc x
  done;
  !acc

let same_line a b = line_of_word a = line_of_word b
