(* The input generator is seeded and fixed-work: the same seed gives a
   byte-identical operation list, and every seed gives the same
   multiset of work. *)

let fail fmt = Printf.ksprintf failwith fmt

let () =
  let a = Gen.dump ~seed:7 and b = Gen.dump ~seed:7 in
  if a <> b then fail "seed 7 gave two different operation lists";
  let base = Gen.work ~seed:1 in
  List.iter
    (fun seed ->
      if Gen.dump ~seed = Gen.dump ~seed:1 then fail "seed %d did not permute anything" seed;
      if Gen.work ~seed <> base then fail "seed %d changed the multiset of work" seed)
    [ 2; 3; 42; 1_000_003 ];
  (* cold_explore: at least 150 points, each a distinct structure and
     strategy, so none can be answered by the reuse rule *)
  let points = Gen.cold_explore ~seed:1 in
  if Array.length points < 150 then fail "lattice has only %d points" (Array.length points);
  let groups =
    Array.to_list points
    |> List.map (fun (r : Gen.req) ->
           let p = r.Gen.point in
           (p.Icdb_explore.Axis.p_component, p.Icdb_explore.Axis.p_attrs,
            p.Icdb_explore.Axis.p_strategy))
    |> List.sort_uniq compare
  in
  if List.length groups <> Array.length points then
    fail "two lattice points share a structure and strategy";
  (* hot_query: the catalogue is 1.5x the 512-entry cache *)
  let h = Gen.hot_query ~seed:1 in
  if Array.length h.Gen.catalogue <> 768 then
    fail "catalogue has %d entries" (Array.length h.Gen.catalogue);
  print_endline "perfbench generator: deterministic and fixed-work"
