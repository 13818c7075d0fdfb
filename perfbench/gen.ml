(* Seeded, fixed-work operation lists for the four workloads.

   The seed only permutes: the order of operations, which load variant
   of a structure holds which popularity rank, the order in which the
   catalogue or population is generated, and the order of pauses within
   a block. It never changes the multiset of work, so two seeds measure
   the same amount of synthesis, lookups and queries. *)

module Axis = Icdb_explore.Axis
module Sizing = Icdb_timing.Sizing

(* A request_component: an explore point plus external loads. Loads are
   kept as their CQL text so the daemon and the in-process replay read
   the very same float. *)
type req = { point : Axis.point; loads : (string * string) list }

type op =
  | Request of req
  | Iquery of { id : string; slot : string }
  | Fquery of string
  | Sql of string

(* A structure: a catalogue component at fixed attribute values. *)
type structure = { comp : string; attrs : (string * int) list }

let structure comp attrs = { comp; attrs }

(* ------------------------------------------------------------------ *)
(* Seeded permutations                                                 *)
(* ------------------------------------------------------------------ *)

let rng seed salt = Random.State.make [| 0x1CDB; seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* The output a load is attached to: the component's first data
   output, bit 0 when it is a bus. *)
let load_port comp =
  match Icdb_genus.Component.find comp with
  | None -> invalid_arg ("unknown component " ^ comp)
  | Some c -> (
      match
        List.find_opt
          (fun (p : Icdb_genus.Component.port) ->
            p.Icdb_genus.Component.role = Icdb_genus.Component.Data_out)
          c.Icdb_genus.Component.ports
      with
      | Some p ->
          if p.Icdb_genus.Component.bus then p.Icdb_genus.Component.port_name ^ "[0]"
          else p.Icdb_genus.Component.port_name
      | None -> invalid_arg ("no data output on " ^ comp))

let point ?(strategy = Sizing.Balanced) ?clock s =
  { Axis.p_component = s.comp;
    p_attrs = s.attrs;
    p_strategy = strategy;
    p_clock = clock;
    p_delay = None }

let loaded s load =
  { point = point s; loads = [ (load_port s.comp, Printf.sprintf "%.3f" load) ] }

let request_cql r =
  let base = Axis.point_cql r.point in
  match r.loads with
  | [] -> base
  | loads ->
      base ^ "; oload:("
      ^ String.concat ","
          (List.map (fun (port, l) -> Printf.sprintf "%s:%s" port l) loads)
      ^ ")"

let request_spec r =
  let c = Axis.point_constraints r.point in
  Icdb.Spec.make
    ~constraints:
      { c with
        Sizing.port_loads =
          List.map (fun (p, l) -> (p, float_of_string l)) r.loads }
    (Icdb.Spec.From_component
       { component = r.point.Axis.p_component;
         attributes = r.point.Axis.p_attrs;
         functions = [] })

let op_text = function
  | Request r -> request_cql r
  | Iquery { id; slot } ->
      Printf.sprintf "command:instance_query; instance:%s; %s:?s" id slot
  | Fquery funcs ->
      Printf.sprintf "command:function_query; function:%s; component:?s" funcs
  | Sql s -> s

(* The work an operation does, without what the seed decides (which
   load variant it names): equal across seeds as a multiset. *)
let work_class = function
  | Request r ->
      "request " ^ Axis.point_to_string r.point
      ^ String.concat "" (List.map fst r.loads)
  | Iquery { id; slot } ->
      let comp = String.sub id 0 (String.rindex id '_') in
      Printf.sprintf "iquery %s %s" comp slot
  | Fquery f -> "fquery " ^ f
  | Sql s -> "sql " ^ s

(* Instance ids a fresh server hands out: "<component>_<n>", n counting
   every generated instance from 1. *)
let predicted_id comp n = Printf.sprintf "%s_%d" (String.lowercase_ascii comp) n

(* Largest-remainder apportionment of [total] slots over weights. *)
let apportion total weights =
  let sum = Array.fold_left ( +. ) 0.0 weights in
  let exact = Array.map (fun w -> w /. sum *. float_of_int total) weights in
  let counts = Array.map truncate exact in
  let left = total - Array.fold_left ( + ) 0 counts in
  let order =
    Array.init (Array.length weights) (fun i -> i)
    |> Array.to_list
    |> List.stable_sort (fun i j ->
           compare (exact.(j) -. float_of_int counts.(j))
             (exact.(i) -. float_of_int counts.(i)))
  in
  List.iteri (fun k i -> if k < left then counts.(i) <- counts.(i) + 1) order;
  counts

(* ------------------------------------------------------------------ *)
(* hot_query                                                           *)
(* ------------------------------------------------------------------ *)

let counter_variant size (load, enable, ud) =
  structure "counter"
    [ ("size", size); ("load", load); ("enable", enable); ("up_or_down", ud) ]

let sized comp sizes = List.map (fun n -> structure comp [ ("size", n) ]) sizes

let hot_structures =
  List.concat_map
    (fun size ->
      [ counter_variant size (1, 1, 3); counter_variant size (0, 0, 1) ])
    [ 2; 3; 4; 5 ]
  @ sized "register" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  @ sized "adder" [ 1; 2; 3; 4 ]
  @ sized "mux_scl" [ 1; 2; 3; 4 ]
  @ sized "comparator" [ 1; 2; 3 ]
  @ sized "multiplier" [ 1; 2; 3 ]
  @ sized "alu" [ 1; 2 ]
  |> Array.of_list

let hot_variants = 24
let hot_ops = 8192

type hot = {
  catalogue : req array;  (* in generation order *)
  ids : string array;     (* ids the catalogue entries get, same order *)
  ops : op array;         (* one cycle of the read mix *)
}

let hot_load v = 0.25 *. float_of_int (v + 1)

let function_lists = [| "(INC)"; "(ADD)"; "(COUNTER)"; "(LOAD)"; "(MUX_SCL)"; "(EQ)" |]

let sql_statements =
  let comps = [| "counter"; "register"; "adder"; "mux_scl"; "comparator"; "multiplier"; "alu" |] in
  Array.concat
    [ Array.map
        (fun c ->
          Printf.sprintf
            "SELECT id, area, clock_width FROM instances WHERE component = '%s'" c)
        comps;
      Array.map
        (fun c ->
          Printf.sprintf "PARETO instances ON area, clock_width WHERE component = '%s'" c)
        comps ]

let hot_query ~seed =
  let ns = Array.length hot_structures in
  let nkeys = ns * hot_variants in
  (* catalogue entry (s, v) sits at index s * variants + v *)
  let entry s v = loaded hot_structures.(s) (hot_load v) in
  let order = shuffle (rng seed 1) (Array.init nkeys (fun k -> k)) in
  let catalogue = Array.map (fun k -> entry (k / hot_variants) (k mod hot_variants)) order in
  let position = Array.make nkeys 0 in
  Array.iteri (fun pos k -> position.(k) <- pos) order;
  let ids =
    Array.mapi (fun pos r -> predicted_id r.point.Axis.p_component (pos + 1)) catalogue
  in
  (* popularity rank r -> structure r mod ns (fixed), variant by a
     seeded per-structure permutation: equal-cost variants trade ranks *)
  let perms = Array.init ns (fun s -> shuffle (rng seed (100 + s)) (Array.init hot_variants Fun.id)) in
  let key_of_rank r = (r mod ns * hot_variants) + perms.(r mod ns).(r / ns) in
  let zipf = Array.init nkeys (fun r -> 1.0 /. float_of_int (r + 1)) in
  let by_rank count f =
    let counts = apportion count zipf in
    let out = ref [] in
    Array.iteri (fun r c -> for _ = 1 to c do out := f (key_of_rank r) :: !out done) counts;
    List.rev !out
  in
  let n_req = hot_ops / 2 in
  let n_iq = hot_ops * 3 / 10 in
  let n_fq = hot_ops / 10 in
  let n_sql = hot_ops - n_req - n_iq - n_fq in
  let slots = [| "delay"; "area"; "shape_function" |] in
  let requests = by_rank n_req (fun k -> Request (entry (k / hot_variants) (k mod hot_variants))) in
  let iqueries =
    List.mapi
      (fun i k -> Iquery { id = ids.(position.(k)); slot = slots.(i mod 3) })
      (by_rank n_iq Fun.id)
  in
  let fqueries = List.init n_fq (fun i -> Fquery function_lists.(i mod Array.length function_lists)) in
  let sqls = List.init n_sql (fun i -> Sql sql_statements.(i mod Array.length sql_statements)) in
  let ops = shuffle (rng seed 2) (Array.of_list (requests @ iqueries @ fqueries @ sqls)) in
  { catalogue; ids; ops }

(* ------------------------------------------------------------------ *)
(* cold_explore                                                        *)
(* ------------------------------------------------------------------ *)

let counter_variants =
  [| (1, 1, 3); (0, 1, 3); (1, 0, 2); (0, 0, 2); (1, 1, 1); (0, 0, 1) |]

let strategies = [| Sizing.Fastest; Sizing.Balanced; Sizing.Cheapest |]

(* Exactly one point per (structure, strategy): two points that share
   both would let the §3.3 reuse rule answer the later one from the
   earlier, and which one that is would depend on the order. The clock
   bound rotates over none / loose / tight across variants, so every
   size meets every bound under every strategy, and the tight ones
   bind. *)
let explore_lattice () =
  let counters =
    List.concat_map
      (fun size ->
        List.concat
          (List.init (Array.length counter_variants) (fun v ->
               List.init (Array.length strategies) (fun si ->
                   let clock =
                     match (v + si) mod 3 with
                     | 0 -> None
                     | 1 -> Some (float_of_int ((3 * size) + 14))
                     | _ -> Some (float_of_int ((3 * size) + 8))
                   in
                   point ~strategy:strategies.(si) ?clock
                     (counter_variant size counter_variants.(v))))))
      [ 2; 3; 4; 5; 6; 7; 8 ]
  in
  let singles =
    List.map point
      (sized "adder" [ 1; 2; 3; 4; 5; 6 ]
      @ sized "alu" [ 1; 2; 3; 4 ]
      @ sized "comparator" [ 1; 2; 3; 4 ]
      @ sized "multiplier" [ 1; 2; 3; 4; 5; 6 ]
      @ sized "register" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      @ sized "mux_scl" [ 1; 2; 3; 4; 5; 6 ])
  in
  Array.of_list (counters @ singles)

(* The lattice in the order of pass [pass] of a run: every pass takes
   its own seeded order, so a point's latency is seen at several
   positions (the daemon's heap, and so its GC work, grows along a
   pass). *)
let cold_pass ~seed pass =
  Array.map
    (fun p -> { point = p; loads = [] })
    (shuffle (rng seed (3 + (100_000 * pass))) (explore_lattice ()))

let cold_explore ~seed = cold_pass ~seed 0

(* The warm-up of a cold_explore set-up: components the lattice never
   uses, so neither the cache, the synthesis memo nor the reuse rule can
   carry work over to a lattice point. Together they take long enough
   (about 0.7 s) that a set-up spans several of the host's short speed
   phases rather than sitting in one. *)
let cold_warmup =
  Array.map
    (fun s -> { point = point s; loads = [] })
    [| structure "adder_subtractor" [ ("size", 6) ]; structure "encode" [ ("size", 8) ];
       structure "barrel_shifter" [ ("size", 8) ] |]

(* ------------------------------------------------------------------ *)
(* durable_churn / follower_lag                                        *)
(* ------------------------------------------------------------------ *)

let churn_structures =
  [| counter_variant 3 (1, 1, 3); counter_variant 4 (0, 0, 1);
     structure "register" [ ("size", 4) ]; structure "register" [ ("size", 8) ];
     structure "adder" [ ("size", 3) ]; structure "mux_scl" [ ("size", 4) ];
     structure "comparator" [ ("size", 2) ]; structure "alu" [ ("size", 2) ] |]

(* The standing population: every churn structure at [per] distinct
   loads, in a seeded order. *)
let population ~seed ~per =
  let n = Array.length churn_structures in
  let keys = shuffle (rng seed 4) (Array.init (n * per) Fun.id) in
  Array.map
    (fun k -> loaded churn_structures.(k / per) (0.1 *. float_of_int ((k mod per) + 1)))
    keys

let churn_population = 32
let session_length = Array.length churn_structures

(* Session [n] of connection [conn]: every churn structure once, in a
   seeded order, at the connection's own load — so no write can be
   answered from the cache or by reuse, while synthesis stays
   memoized. *)
let churn_session ~seed ~conn n =
  let order = shuffle (rng seed (1000 + (2 * n) + conn)) (Array.init session_length Fun.id) in
  Array.map (fun s -> loaded churn_structures.(s) (10.0 +. float_of_int conn)) order

(* per structure: 192 instances, so a follower_lag set-up takes long
   enough (about 0.4 s) to span several of the host's short speed
   phases *)
let lag_population = 24

(* Write [i] of follower_lag and the pause that follows its visibility.
   Blocks of eight writes take each structure once and each pause in
   50 + 6.25 k ms (k = 0..7) once, so the writes land evenly across the
   publisher's 50 ms poll period in every block. *)
let lag_write ~seed i =
  let block = i / session_length and k = i mod session_length in
  let st = rng seed (5000 + block) in
  let order = shuffle st (Array.init session_length Fun.id) in
  let pauses = shuffle st (Array.init session_length Fun.id) in
  let r = loaded churn_structures.(order.(k)) (20.0 +. (0.001 *. float_of_int i)) in
  (r, 0.050 +. (0.00625 *. float_of_int pauses.(k)))

(* ------------------------------------------------------------------ *)
(* Serialisation (for the determinism test)                            *)
(* ------------------------------------------------------------------ *)

let dump ~seed =
  let buf = Buffer.create 65536 in
  let line s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  let h = hot_query ~seed in
  Array.iteri (fun i r -> line (h.ids.(i) ^ " " ^ request_cql r)) h.catalogue;
  Array.iter (fun o -> line (op_text o)) h.ops;
  Array.iter (fun r -> line (request_cql r)) (cold_explore ~seed);
  Array.iter (fun r -> line (request_cql r)) (population ~seed ~per:churn_population);
  for n = 0 to 3 do
    for conn = 0 to 1 do
      Array.iter (fun r -> line (request_cql r)) (churn_session ~seed ~conn n)
    done
  done;
  for i = 0 to 31 do
    let r, pause = lag_write ~seed i in
    line (Printf.sprintf "%s pause=%.5f" (request_cql r) pause)
  done;
  Buffer.contents buf

(* The multiset of work [dump] lists, as sorted work classes. *)
let work ~seed =
  let h = hot_query ~seed in
  let cls = ref [] in
  let add s = cls := s :: !cls in
  Array.iter (fun r -> add ("catalogue " ^ request_cql r)) h.catalogue;
  Array.iter (fun o -> add (work_class o)) h.ops;
  Array.iter (fun r -> add ("cold " ^ request_cql r)) (cold_explore ~seed);
  Array.iter (fun r -> add ("population " ^ request_cql r)) (population ~seed ~per:churn_population);
  for n = 0 to 3 do
    for conn = 0 to 1 do
      Array.iter (fun r -> add ("churn " ^ request_cql r)) (churn_session ~seed ~conn n)
    done
  done;
  for i = 0 to 31 do
    let r, pause = lag_write ~seed i in
    add (Printf.sprintf "lag %d %s" (i / session_length) (work_class (Request r)));
    add (Printf.sprintf "pause %d %.5f" (i / session_length) pause)
  done;
  List.sort compare !cls
