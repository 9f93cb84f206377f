(* Likely persistence-ordering invariant inference (WITCHER-style).

   Two invariant shapes are mined from correct executions:

   - Order(A, B): every time store site A is issued before store site B,
     A is already durable (fence-persisted) when B first issues.  The
     canonical PM commit discipline: data durable before the flag that
     publishes it is written.
   - Commit(C): whenever a fence persists stores from two or more
     distinct sites at once (an "epoch"), site C's store is the last one
     issued — C is the epoch's commit variable.

   All predicates are defined on FIRST occurrences per execution:
   Order(A,B) is meaningful in an execution iff first_issue(A) <
   first_issue(B), and holds iff first_durable(A) < first_issue(B),
   where durability is attributed to the last writer of each word a
   fence persists.  The miner and the online checker share one tracker
   that raises both program points (a site's first store, a multi-site
   fence epoch), so running [check] (or the checker) over the very
   traces an invariant was mined from yields zero violations by
   construction — a property the tests assert.

   Support is the number of executions (Order) or epochs (Commit) in
   which the invariant was meaningful and held; [mine] keeps invariants
   that were never violated and reach [min_support]. *)

module Env = Runtime.Env
module Instr = Runtime.Instr

type inv = Order of { first : Instr.t; next : Instr.t } | Commit of { site : Instr.t }
type spec = { inv : inv; support : int }

type violation = {
  v_inv : inv;
  v_site : Instr.t;
  v_addr : int;
  v_words : int list;
}

let inv_kind_slug = function Order _ -> "order" | Commit _ -> "commit"

let label = function
  | Order { first; next } ->
      Printf.sprintf "order %s -> %s" (Instr.name first) (Instr.name next)
  | Commit { site } -> Printf.sprintf "commit %s" (Instr.name site)

let inv_key = function
  | Order { first; next } -> (0, Instr.to_int first, Instr.to_int next)
  | Commit { site } -> (1, Instr.to_int site, 0)

let compare_inv a b = compare (inv_key a) (inv_key b)

(* ------------------------------------------------------------------ *)
(* Per-execution tracking, shared by the miner and the checker          *)
(* ------------------------------------------------------------------ *)

type first = Pending of int list (* words stored since the first issue *) | Durable

(* The two program points every predicate is evaluated at. *)
type point =
  | First_issue of { site : Instr.t; addr : int }
      (** a site's first store of the execution, before it counts as issued *)
  | Epoch of {
      sites : (Instr.t, unit) Hashtbl.t; (* the sites whose stores it persisted *)
      last_site : Instr.t; (* the latest of those stores *)
      last_word : int;
      persisted : int list;
    }  (** a fence persisting the latest stores of two or more sites *)

type tracker = {
  writers : (int, Instr.t * int) Hashtbl.t; (* word -> (last writer, store seq) *)
  firsts : (Instr.t, first) Hashtbl.t; (* absent = not yet issued *)
  mutable seq : int;
}

let tracker () = { writers = Hashtbl.create 64; firsts = Hashtbl.create 16; seq = 0 }

let reset_tracker tr =
  Hashtbl.reset tr.writers;
  Hashtbl.reset tr.firsts;
  tr.seq <- 0

(* Durability is attributed to the last writer of each word a fence
   persists. *)
let track tr ~emit (ev : Env.event) =
  match ev with
  | Env.Ev_store { instr = site; addr; _ } | Env.Ev_movnt { instr = site; addr; _ } ->
      tr.seq <- tr.seq + 1;
      (match Hashtbl.find_opt tr.firsts site with
      | None ->
          emit (First_issue { site; addr });
          Hashtbl.replace tr.firsts site (Pending [ addr ])
      | Some (Pending ws) -> Hashtbl.replace tr.firsts site (Pending (addr :: ws))
      | Some Durable -> ());
      Hashtbl.replace tr.writers addr (site, tr.seq)
  | Env.Ev_fence { persisted; _ } ->
      let sites = Hashtbl.create 8 and last = ref None in
      List.iter
        (fun w ->
          match Hashtbl.find_opt tr.writers w with
          | Some (site, s) ->
              Hashtbl.replace sites site ();
              (match !last with Some (s', _, _) when s' > s -> () | _ -> last := Some (s, site, w));
              Hashtbl.replace tr.firsts site Durable
          | None -> ())
        persisted;
      (match !last with
      | Some (_, last_site, last_word) when Hashtbl.length sites >= 2 ->
          emit (Epoch { sites; last_site; last_word; persisted })
      | Some _ | None -> ())
  | Env.Ev_load _ | Env.Ev_clwb _ | Env.Ev_branch _ -> ()

(* ------------------------------------------------------------------ *)
(* Mining                                                              *)
(* ------------------------------------------------------------------ *)

type stat = { mutable support : int; mutable violated : bool }

type t = {
  orders : (Instr.t * Instr.t, stat) Hashtbl.t; (* (first, next) *)
  commits : (Instr.t, stat) Hashtbl.t;
  tr : tracker;
  mutable execs : int;
}

(* Least support a mined invariant needs: one execution is a single
   observation, not a likely invariant. *)
let min_support = 2

let create () = { orders = Hashtbl.create 64; commits = Hashtbl.create 16; tr = tracker (); execs = 0 }

let executions t = t.execs

let tally tbl key held =
  let st =
    match Hashtbl.find_opt tbl key with
    | Some st -> st
    | None ->
        let st = { support = 0; violated = false } in
        Hashtbl.add tbl key st;
        st
  in
  if held then st.support <- st.support + 1 else st.violated <- true

let on_point t = function
  | First_issue { site; _ } ->
      (* Order(a, site) is meaningful for every site a already issued. *)
      Hashtbl.iter (fun a st -> tally t.orders (a, site) (st = Durable)) t.tr.firsts
  | Epoch { sites; last_site; _ } ->
      Hashtbl.iter (fun site _ -> tally t.commits site (Instr.equal site last_site)) sites

let step t ev = track t.tr ~emit:(on_point t) ev

let finish t =
  t.execs <- t.execs + 1;
  reset_tracker t.tr

let absorb t events =
  List.iter (step t) events;
  finish t

let mine t =
  let keep st = (not st.violated) && st.support >= min_support in
  let specs =
    Hashtbl.fold
      (fun (first, next) st acc ->
        if keep st then { inv = Order { first; next }; support = st.support } :: acc else acc)
      t.orders []
  in
  let specs =
    Hashtbl.fold
      (fun site st acc -> if keep st then { inv = Commit { site }; support = st.support } :: acc else acc)
      t.commits specs
  in
  List.sort (fun a b -> compare_inv a.inv b.inv) specs

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type checker = {
  order_by_next : (Instr.t, (Instr.t * inv) list) Hashtbl.t; (* next -> (first, inv) *)
  commit_sites : (Instr.t, inv) Hashtbl.t;
  ctr : tracker;
}

let checker specs =
  let c = { order_by_next = Hashtbl.create 16; commit_sites = Hashtbl.create 8; ctr = tracker () } in
  List.iter
    (fun { inv; _ } ->
      match inv with
      | Order { first; next } ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt c.order_by_next next) in
          Hashtbl.replace c.order_by_next next ((first, inv) :: prev)
      | Commit { site } -> Hashtbl.replace c.commit_sites site inv)
    specs;
  c

let reset c = reset_tracker c.ctr

let on_check c ~emit = function
  | First_issue { site; addr } -> (
      match Hashtbl.find_opt c.order_by_next site with
      | Some lst ->
          List.iter
            (fun (first, inv) ->
              match Hashtbl.find_opt c.ctr.firsts first with
              | Some (Pending ws) ->
                  emit
                    { v_inv = inv; v_site = site; v_addr = addr; v_words = List.sort_uniq compare ws }
              | Some Durable | None -> ())
            lst
      | None -> ())
  | Epoch { sites; last_site; last_word; persisted } ->
      Hashtbl.iter
        (fun site inv ->
          if (not (Instr.equal site last_site)) && Hashtbl.mem sites site then
            emit
              {
                v_inv = inv;
                v_site = last_site;
                v_addr = last_word;
                v_words = List.sort compare persisted;
              })
        c.commit_sites

let check_step c ~emit ev = track c.ctr ~emit:(on_check c ~emit) ev

let check specs events =
  let c = checker specs in
  let acc = ref [] in
  List.iter (check_step c ~emit:(fun v -> acc := v :: !acc)) events;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_inv ppf inv = Fmt.string ppf (label inv)
let pp_spec ppf { inv; support } = Fmt.pf ppf "%a (support %d)" pp_inv inv support
