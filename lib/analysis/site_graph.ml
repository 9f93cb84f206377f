(* Site graph: aggregate the instruction sites observed across recorded
   seed executions into a store/flush/fence/load graph.

   The graph plays the role of PMRace's LLVM pre-pass output: it bounds
   the alias-pair coverage map (possible_pairs is the denominator) and
   gives the lint pass a per-site vocabulary.  Aliasing is computed at
   word granularity: two sites alias when some execution showed them
   touching the same pool word, which over a set of seed executions
   approximates the static may-alias relation the paper's pass computes
   on IR. *)

module Env = Runtime.Env
module Instr = Runtime.Instr

type kind = K_store | K_movnt | K_load | K_flush | K_fence

type node = {
  n_site : Instr.t;
  mutable n_stores : int;
  mutable n_movnts : int;
  mutable n_loads : int;
  mutable n_flushes : int;
  mutable n_fences : int;
  mutable n_addrs : int;
}

type t = {
  nodes : (Instr.t, node) Hashtbl.t;
  site_addrs : (Instr.t, (int, unit) Hashtbl.t) Hashtbl.t;
  writers : (int, (Instr.t, unit) Hashtbl.t) Hashtbl.t; (* addr -> store sites *)
  readers : (int, (Instr.t, unit) Hashtbl.t) Hashtbl.t; (* addr -> load sites *)
  flush_edges : (Instr.t * Instr.t, unit) Hashtbl.t; (* store -> flush *)
  fence_edges : (Instr.t * Instr.t, unit) Hashtbl.t; (* flush -> fence *)
  (* Per-execution transient state, reset by [finish]: which dirty words
     each store site owns, and which flushed words await a fence. *)
  dirty : (int, Instr.t) Hashtbl.t; (* word -> writing site *)
  pending : (int, Instr.t) Hashtbl.t; (* word -> flushing site *)
  mutable executions : int;
}

let create () =
  {
    nodes = Hashtbl.create 64;
    site_addrs = Hashtbl.create 64;
    writers = Hashtbl.create 256;
    readers = Hashtbl.create 256;
    flush_edges = Hashtbl.create 64;
    fence_edges = Hashtbl.create 64;
    dirty = Hashtbl.create 64;
    pending = Hashtbl.create 64;
    executions = 0;
  }

let node_of t site =
  match Hashtbl.find_opt t.nodes site with
  | Some n -> n
  | None ->
      let n =
        { n_site = site; n_stores = 0; n_movnts = 0; n_loads = 0; n_flushes = 0; n_fences = 0;
          n_addrs = 0 }
      in
      Hashtbl.add t.nodes site n;
      n

let touch_addr t site addr =
  let addrs =
    match Hashtbl.find_opt t.site_addrs site with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.add t.site_addrs site s;
        s
  in
  if not (Hashtbl.mem addrs addr) then begin
    Hashtbl.replace addrs addr ();
    (node_of t site).n_addrs <- (node_of t site).n_addrs + 1
  end

let mark tbl addr site =
  let sites =
    match Hashtbl.find_opt tbl addr with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.add tbl addr s;
        s
  in
  Hashtbl.replace sites site ()

let step t (ev : Env.event) =
  match ev with
  | Env.Ev_store { instr; addr; _ } ->
      (node_of t instr).n_stores <- (node_of t instr).n_stores + 1;
      touch_addr t instr addr;
      mark t.writers addr instr;
      Hashtbl.replace t.dirty addr instr
  | Env.Ev_movnt { instr; addr; _ } ->
      (node_of t instr).n_movnts <- (node_of t instr).n_movnts + 1;
      touch_addr t instr addr;
      mark t.writers addr instr;
      (* Non-temporal stores are never dirty; they go straight to the
         write-back queue and persist at the next fence. *)
      Hashtbl.remove t.dirty addr;
      Hashtbl.replace t.pending addr instr
  | Env.Ev_load { instr; addr; _ } ->
      (node_of t instr).n_loads <- (node_of t instr).n_loads + 1;
      touch_addr t instr addr;
      mark t.readers addr instr
  | Env.Ev_clwb { instr; addr; _ } ->
      (node_of t instr).n_flushes <- (node_of t instr).n_flushes + 1;
      touch_addr t instr addr;
      Pmem.Cacheline.iter_line
        (fun w ->
          match Hashtbl.find_opt t.dirty w with
          | Some writer ->
              Hashtbl.replace t.flush_edges (writer, instr) ();
              Hashtbl.remove t.dirty w;
              Hashtbl.replace t.pending w instr
          | None -> ())
        addr
  | Env.Ev_fence { instr; _ } ->
      (node_of t instr).n_fences <- (node_of t instr).n_fences + 1;
      Hashtbl.iter (fun _ flusher -> Hashtbl.replace t.fence_edges (flusher, instr) ()) t.pending;
      Hashtbl.reset t.pending
  | Env.Ev_branch _ -> ()

let finish t =
  t.executions <- t.executions + 1;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.pending

let absorb t events =
  List.iter (step t) events;
  finish t

let executions t = t.executions

let nodes t =
  Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []
  |> List.sort (fun a b -> Instr.compare a.n_site b.n_site)

let node t site = Hashtbl.find_opt t.nodes site

let sites_of tbl addr =
  match Hashtbl.find_opt tbl addr with
  | Some s -> Hashtbl.fold (fun i () acc -> i :: acc) s [] |> List.sort Instr.compare
  | None -> []

let writers_of t addr = sites_of t.writers addr
let readers_of t addr = sites_of t.readers addr

let shared_addrs t =
  Hashtbl.fold (fun addr _ acc -> if Hashtbl.mem t.readers addr then addr :: acc else acc)
    t.writers []
  |> List.sort compare

let possible_pairs t =
  let pairs = Hashtbl.create 128 in
  Hashtbl.iter
    (fun addr ws ->
      match Hashtbl.find_opt t.readers addr with
      | None -> ()
      | Some rs ->
          Hashtbl.iter (fun w () -> Hashtbl.iter (fun r () -> Hashtbl.replace pairs (w, r) ()) rs) ws)
    t.writers;
  Hashtbl.fold (fun p () acc -> p :: acc) pairs []
  |> List.sort (fun (w, r) (w', r') ->
         match Instr.compare w w' with 0 -> Instr.compare r r' | c -> c)

let possible_count t = List.length (possible_pairs t)

let edge_list tbl =
  Hashtbl.fold (fun e () acc -> e :: acc) tbl []
  |> List.sort (fun (a, b) (a', b') ->
         match Instr.compare a a' with 0 -> Instr.compare b b' | c -> c)

let flush_edges t = edge_list t.flush_edges
let fence_edges t = edge_list t.fence_edges

let pp_summary ppf t =
  Fmt.pf ppf "site graph: %d sites over %d executions@." (Hashtbl.length t.nodes) t.executions;
  Fmt.pf ppf "  shared addresses     : %d@." (List.length (shared_addrs t));
  Fmt.pf ppf "  possible alias pairs : %d@." (possible_count t);
  Fmt.pf ppf "  store->flush edges   : %d@." (Hashtbl.length t.flush_edges);
  Fmt.pf ppf "  flush->fence edges   : %d@." (Hashtbl.length t.fence_edges)
