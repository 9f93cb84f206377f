(* Per-layer accounting for the traced run.

   The program already keeps per-layer counters and histograms in
   [Obs.Metrics]; the traced run resets them before each traced block,
   snapshots them at phase boundaries, and accumulates the snapshots
   here.  Labelled series (per-worker counters) are summed under their
   name; subtracting an earlier snapshot of the same block isolates the
   phase after it. *)

type t = { sums : (string, float) Hashtbl.t; counts : (string, int) Hashtbl.t }

let create () = { sums = Hashtbl.create 32; counts = Hashtbl.create 32 }

let add ?(sign = 1) t readings =
  let bump_sum k v =
    Hashtbl.replace t.sums k
      ((float_of_int sign *. v) +. Option.value ~default:0. (Hashtbl.find_opt t.sums k))
  in
  List.iter
    (fun (r : Obs.Metrics.reading) ->
      match r.r_value with
      | Obs.Metrics.Counter n -> bump_sum r.r_name (float_of_int n)
      | Obs.Metrics.Gauge g -> bump_sum r.r_name g
      | Obs.Metrics.Histogram { count; sum; _ } ->
          bump_sum r.r_name sum;
          Hashtbl.replace t.counts r.r_name
            ((sign * count) + Option.value ~default:0 (Hashtbl.find_opt t.counts r.r_name)))
    readings

(* Counter total, gauge sum, or histogram sum of observations. *)
let sum t name = Option.value ~default:0. (Hashtbl.find_opt t.sums name)

(* Histogram observation count. *)
let count t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

let ratio a b = if b = 0. then 0. else a /. b
let mean t name = ratio (sum t name) (float_of_int (count t name))

(* A per-layer metric as the benchmark reports it. *)
type metric = { layer : string; name : string; unit : string; value : float }

let pp_table ppf metrics =
  Format.fprintf ppf "  %-26s %-30s %14s  %s@." "layer" "metric" "value" "unit";
  List.iter
    (fun m -> Format.fprintf ppf "  %-26s %-30s %14.4f  %s@." m.layer m.name m.value m.unit)
    metrics
