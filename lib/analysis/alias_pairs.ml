(* Achieved-vs-possible alias-pair accounting.

   The possible set comes from the site graph (the static pre-pass
   analogue); achieved pairs are fed in dynamically by the analyzer's own
   lint pass.  Keeping both sets here gives coverage a denominator and
   the fuzzer its starting set of uncovered pairs. *)

module Instr = Runtime.Instr

type pair = { pw : Instr.t; pr : Instr.t }

type t = {
  poss : (Instr.t * Instr.t, unit) Hashtbl.t;
  ach : (Instr.t * Instr.t, unit) Hashtbl.t;
  mutable beyond : int; (* achieved pairs outside the possible set *)
}

let create () = { poss = Hashtbl.create 64; ach = Hashtbl.create 64; beyond = 0 }

let add_possible t ~write ~read = Hashtbl.replace t.poss (write, read) ()

let of_site_graph g =
  let t = create () in
  List.iter (fun (w, r) -> add_possible t ~write:w ~read:r) (Site_graph.possible_pairs g);
  t

let mark_achieved t ~write ~read =
  if not (Hashtbl.mem t.ach (write, read)) then begin
    Hashtbl.replace t.ach (write, read) ();
    if not (Hashtbl.mem t.poss (write, read)) then t.beyond <- t.beyond + 1
  end

let sorted_pairs tbl =
  Hashtbl.fold (fun (w, r) () acc -> { pw = w; pr = r } :: acc) tbl []
  |> List.sort (fun a b ->
         match Instr.compare a.pw b.pw with 0 -> Instr.compare a.pr b.pr | c -> c)

let possible t = sorted_pairs t.poss
let possible_count t = Hashtbl.length t.poss
let achieved_count t = Hashtbl.length t.ach - t.beyond
let beyond_static t = t.beyond

let uncovered t =
  Hashtbl.fold
    (fun (w, r) () acc -> if Hashtbl.mem t.ach (w, r) then acc else { pw = w; pr = r } :: acc)
    t.poss []
  |> List.sort (fun a b ->
         match Instr.compare a.pw b.pw with 0 -> Instr.compare a.pr b.pr | c -> c)

let pp ppf t =
  Fmt.pf ppf "alias pairs: %d achieved / %d possible%s" (achieved_count t) (possible_count t)
    (if t.beyond > 0 then Printf.sprintf " (+%d beyond the static set)" t.beyond else "")
