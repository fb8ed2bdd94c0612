(* Self-tests of the benchmark's arithmetic: the percentile rule, the
   bag comparator, the q-error and span self time. *)

module M = Measure

let approx = Alcotest.float 1e-9
let value = Relalg.Value.(fun f -> Float f)

let percentile_rule () =
  Alcotest.(check bool) "median needs 20 samples" false (M.supported ~q:0.5 19);
  Alcotest.(check bool) "median with 20 samples" true (M.supported ~q:0.5 20);
  Alcotest.(check bool) "p95 needs 200 samples" false (M.supported ~q:0.95 199);
  Alcotest.(check bool) "p95 with 200 samples" true (M.supported ~q:0.95 200);
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check approx "nearest-rank p50" 50. (M.percentile ~q:0.5 xs);
  Alcotest.check approx "nearest-rank p95" 95. (M.percentile ~q:0.95 xs);
  Alcotest.check approx "p100 is the maximum" 100. (M.percentile ~q:1.0 xs);
  Alcotest.check approx "median of three" 2. (M.median [ 3.; 1.; 2. ]);
  Alcotest.(check bool) "empty sample" true (Float.is_nan (M.median []))

let bag_comparator () =
  let row fs = Array.of_list (List.map value fs) in
  Alcotest.(check bool) "last-digit float drift is equal" true
    (M.bags_equal (M.bag [ row [ 0.1 +. 0.2 ] ]) (M.bag [ row [ 0.3 ] ]));
  Alcotest.(check bool) "a real difference is not" false
    (M.bags_equal (M.bag [ row [ 0.3001 ] ]) (M.bag [ row [ 0.3 ] ]));
  Alcotest.(check bool) "row order does not matter" true
    (M.bags_equal (M.bag [ row [ 1. ]; row [ 2. ] ]) (M.bag [ row [ 2. ]; row [ 1. ] ]));
  let a = M.bag [ row [ 1. ]; row [ 1. ]; row [ 2. ] ] and b = M.bag [ row [ 1. ]; row [ 3. ] ] in
  let only_a, only_b = M.bag_diff a b in
  Alcotest.(check (list string)) "duplicates count" [ "1"; "2" ] only_a;
  Alcotest.(check (list string)) "missing rows" [ "3" ] only_b;
  Alcotest.(check bool) "mixed types render apart" false
    (M.bags_equal (M.bag [ [| Relalg.Value.Int 1 |] ]) (M.bag [ [| Relalg.Value.Str "x" |] ]))

let qerror () =
  Alcotest.check approx "under-estimate" 10. (M.qerror ~est:10. ~act:100.);
  Alcotest.check approx "over-estimate" 10. (M.qerror ~est:100. ~act:10.);
  Alcotest.check approx "exact" 1. (M.qerror ~est:42. ~act:42.);
  Alcotest.check approx "empty result clamps to one row" 5. (M.qerror ~est:5. ~act:0.);
  Alcotest.check approx "both empty" 1. (M.qerror ~est:0. ~act:0.)

let self_time () =
  let span id parent start stop = { M.id; req = 0; name = string_of_int id; parent; start; stop } in
  let spans =
    [ span 0 None 0. 10.;
      span 1 (Some 0) 1. 3.;
      span 2 (Some 0) 2. 5.;  (* overlaps its sibling: counted once *)
      span 3 (Some 0) 8. 12.;  (* runs past its parent: clipped *)
      span 4 (Some 1) 1.5 2.5 ]
  in
  let self = List.map (fun ((s : M.span), t) -> (s.id, t)) (M.self_times spans) in
  Alcotest.check approx "parent minus covered children" 4. (List.assoc 0 self);
  Alcotest.check approx "child minus grandchild" 1. (List.assoc 1 self);
  Alcotest.check approx "leaf keeps its duration" 3. (List.assoc 2 self);
  Alcotest.check approx "union of intervals" 6. (M.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 5.); (8., 12.) ])

let json () =
  Alcotest.(check string) "escaping" {|{"a\"b":["x\ny",1,null,true]}|}
    (M.to_string (M.Obj [ ("a\"b", M.Arr [ M.Str "x\ny"; M.Int 1; M.Num nan; M.Bool true ]) ]))

let () =
  Alcotest.run "perfbench"
    [ ( "measure",
        [ Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "bag comparator" `Quick bag_comparator;
          Alcotest.test_case "q-error" `Quick qerror;
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "json" `Quick json ] ) ]
