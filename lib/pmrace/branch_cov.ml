(* Conventional branch coverage: the set of instrumented branch sites
   executed so far.  PMRace combines this with PM alias pair coverage as
   fuzzing feedback (§4.2.3). *)

type t = Site_set.t

let create = Site_set.create
let observe t instr = Site_set.add t (Runtime.Instr.to_int instr)
let count = Site_set.count
let covered t instr = Site_set.mem t (Runtime.Instr.to_int instr)

(* Union a worker-local delta into a shared map (campaign-boundary merge,
   serialised by the fuzzer's hub). *)
let merge_into = Site_set.union_into

(* Empty the map so a worker-local delta can be reused across campaigns. *)
let clear = Site_set.clear

(* Wire/store codec (fleet mode): covered branch sites by name, sorted for
   a canonical encoding; decode re-registers the names in list order. *)
let codec =
  Obs.Codec.(
    conv
      (fun names ->
        let t = create () in
        List.iter (fun name -> ignore (observe t (Runtime.Instr.site name))) names;
        Ok t)
      (fun t ->
        Site_set.fold (fun id acc -> Runtime.Instr.name (Runtime.Instr.of_int id) :: acc) t []
        |> List.sort compare)
      (list string))
