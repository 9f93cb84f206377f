(* Taint label sets: lattice laws, a model check against sorted lists, the
   sharing fast paths, and Tval propagation. *)

module Taint = Runtime.Taint
module Tval = Runtime.Tval

let taint_of = Taint.of_labels

let test_basics () =
  Alcotest.(check bool) "empty" true (Taint.is_empty Taint.empty);
  Alcotest.(check bool) "singleton non-empty" false (Taint.is_empty (Taint.singleton 3));
  Alcotest.(check bool) "mem" true (Taint.mem 3 (Taint.singleton 3));
  Alcotest.(check (list int)) "labels sorted" [ 1; 2; 5 ] (Taint.labels (taint_of [ 5; 1; 2; 1 ]))

let small_labels = QCheck.(small_list (int_bound 50))

let prop_union_comm =
  QCheck.Test.make ~name:"taint: union commutative" ~count:200
    QCheck.(pair small_labels small_labels)
    (fun (a, b) ->
      Taint.equal (Taint.union (taint_of a) (taint_of b)) (Taint.union (taint_of b) (taint_of a)))

let prop_union_assoc =
  QCheck.Test.make ~name:"taint: union associative" ~count:200
    QCheck.(triple small_labels small_labels small_labels)
    (fun (a, b, c) ->
      let ta = taint_of a and tb = taint_of b and tc = taint_of c in
      Taint.equal (Taint.union ta (Taint.union tb tc)) (Taint.union (Taint.union ta tb) tc))

let prop_union_idem =
  QCheck.Test.make ~name:"taint: union idempotent" ~count:200 small_labels (fun a ->
      let t = taint_of a in
      Taint.equal (Taint.union t t) t)

let prop_add_mem =
  QCheck.Test.make ~name:"taint: add implies mem" ~count:200
    QCheck.(pair (int_bound 100) small_labels)
    (fun (l, a) -> Taint.mem l (Taint.add l (taint_of a)))

let prop_sorted_invariant =
  QCheck.Test.make ~name:"taint: labels strictly increasing" ~count:200
    QCheck.(pair small_labels small_labels)
    (fun (a, b) ->
      let rec increasing = function
        | x :: (y :: _ as rest) -> x < y && increasing rest
        | _ -> true
      in
      increasing (Taint.labels (Taint.union (taint_of a) (taint_of b))))

(* Every operation against a [List.sort_uniq] reference.  Two operands are
   grown from one base set, so they share its tail; their extra labels are
   drawn both above the base's newest label (a cons) and below it (an
   insertion).  [max_label] sets how large the sets get: memcached-pmem
   values carry up to 255 labels. *)
let model = List.sort_uniq Int.compare

let gen_model_case ~max_label =
  QCheck.Gen.(
    let labels n = list_size (int_bound n) (int_bound max_label) in
    quad (labels (max_label / 2)) (labels 8) (labels 8) (int_bound (max_label + 2)))

let model_ok (base, xa, xb, probe) =
  let grow t xs = List.fold_left (fun t l -> Taint.add l t) t xs in
  let t0 = taint_of base in
  let ta = grow t0 xa and tb = grow t0 xb in
  let m0 = model base and ma = model (base @ xa) and mb = model (base @ xb) in
  let mu = model (ma @ mb) in
  let u = Taint.union ta tb in
  let fold_desc t = List.rev (Taint.fold (fun l acc -> l :: acc) t []) in
  let newest = 1 + List.fold_left max (-1) ma in
  let tn = Taint.add newest ta in
  Taint.labels t0 = m0
  && Taint.labels ta = ma
  && Taint.labels tb = mb
  && Taint.labels u = mu
  && Taint.labels (Taint.union tb ta) = mu
  && Taint.labels (Taint.union ta t0) = ma
  && fold_desc u = List.rev mu
  && Taint.cardinal u = List.length mu
  && Taint.mem probe u = List.mem probe mu
  && Taint.mem probe ta = List.mem probe ma
  && Taint.equal u (taint_of mu)
  && Taint.equal (taint_of (List.rev mu)) u
  && Taint.equal ta tb = (ma = mb)
  && Taint.is_empty u = (mu = [])
  (* The sharing fast paths, physically. *)
  && Taint.union ta ta == ta
  && Taint.union tn ta == tn
  && Taint.union ta tn == tn
  && Taint.union ta t0 == ta
  && Taint.union t0 ta == ta

let prop_model ~name ~count ~max_label =
  QCheck.Test.make ~name ~count (QCheck.make (gen_model_case ~max_label)) model_ok

(* Tval arithmetic propagates the union of operand taints. *)
let prop_tval_arith_propagates =
  QCheck.Test.make ~name:"tval: arithmetic unions taints" ~count:200
    QCheck.(quad small_labels small_labels (int_range 1 100) (int_range 1 100))
    (fun (ta, tb, va, vb) ->
      let a = Tval.with_taint (Tval.of_int va) (taint_of ta) in
      let b = Tval.with_taint (Tval.of_int vb) (taint_of tb) in
      let expect = Taint.union (taint_of ta) (taint_of tb) in
      List.for_all
        (fun op -> Taint.equal (Tval.taint (op a b)) expect)
        [ Tval.add; Tval.sub; Tval.mul; Tval.div; Tval.logand; Tval.logor; Tval.logxor ])

let test_tval_values () =
  let open Tval in
  Alcotest.(check int) "add" 7 (to_int (add (of_int 3) (of_int 4)));
  Alcotest.(check int) "sub" (-1) (to_int (sub (of_int 3) (of_int 4)));
  Alcotest.(check int) "mul" 12 (to_int (mul (of_int 3) (of_int 4)));
  Alcotest.(check int) "div" 2 (to_int (div (of_int 9) (of_int 4)));
  Alcotest.(check int) "rem" 1 (to_int (rem (of_int 9) (of_int 4)));
  Alcotest.(check int) "shift_left" 8 (to_int (shift_left (of_int 1) 3));
  Alcotest.(check int) "shift_right" 1 (to_int (shift_right (of_int 8) 3))

let test_tval_div_by_zero () =
  Alcotest.check_raises "div" (Invalid_argument "Tval.div: division by zero") (fun () ->
      ignore (Tval.div Tval.one Tval.zero))

let test_untainted () =
  let t = Tval.with_taint (Tval.of_int 5) (Taint.singleton 1) in
  Alcotest.(check bool) "tainted" true (Tval.is_tainted t);
  Alcotest.(check bool) "untainted strips" false (Tval.is_tainted (Tval.untainted t));
  Alcotest.(check int) "value preserved" 5 (Tval.to_int (Tval.untainted t))

let test_comparisons_ignore_taint () =
  let a = Tval.with_taint (Tval.of_int 5) (Taint.singleton 1) in
  let b = Tval.of_int 5 in
  Alcotest.(check bool) "equal_v" true (Tval.equal_v a b);
  Alcotest.(check bool) "infix =" true Tval.Infix.(a = b);
  Alcotest.(check bool) "infix <" true Tval.Infix.(Tval.of_int 4 < b)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "tval arithmetic values" `Quick test_tval_values;
    Alcotest.test_case "tval division by zero" `Quick test_tval_div_by_zero;
    Alcotest.test_case "untainted" `Quick test_untainted;
    Alcotest.test_case "comparisons ignore taint" `Quick test_comparisons_ignore_taint;
    QCheck_alcotest.to_alcotest prop_union_comm;
    QCheck_alcotest.to_alcotest prop_union_assoc;
    QCheck_alcotest.to_alcotest prop_union_idem;
    QCheck_alcotest.to_alcotest prop_add_mem;
    QCheck_alcotest.to_alcotest prop_sorted_invariant;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      (prop_model ~name:"taint: every operation ≡ sorted-list model" ~count:300 ~max_label:40);
    QCheck_alcotest.to_alcotest ~speed_level:`Slow
      (prop_model ~name:"taint: every operation ≡ sorted-list model, hundreds of labels"
         ~count:3000 ~max_label:600);
    QCheck_alcotest.to_alcotest prop_tval_arith_propagates;
  ]
