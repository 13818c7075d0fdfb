(* Golden-file regression for the layout back end: the CIF files
   committed under bench_out/ (Figure 9's five counters, Figure 12's
   shape alternatives) must be reproduced byte-for-byte by a fresh
   server. Layout generation is deterministic — the CIF text depends
   only on the netlist, the strip count and the port positions — so
   any diff means the generation pipeline changed observable output.
   lattice_figures.txt pins the sizer and STA figures of the
   cold-explore lattice, and qm_covers.txt the exact covers the
   Quine-McCluskey minimizer returns, the same way.

   When such a change is intentional, regenerate with
       ICDB_BLESS=1 dune exec test/test_golden.exe
   (append [-- test qm] or another group name to bless only that
   group, or point ICDB_GOLDEN_DIR at the bench_out directory to bless
   or compare against a different tree). *)

open Icdb
open Icdb_layout

let check = Alcotest.check

(* The goldens live in <repo>/bench_out; tests run under _build, so
   walk up to the repository root: the directory holding dune-project,
   which dune does not copy into _build/default, and which a source
   export without .git still has. *)
let golden_dir =
  lazy
    (match Sys.getenv_opt "ICDB_GOLDEN_DIR" with
     | Some d -> d
     | None ->
         let rec up dir =
           if Sys.file_exists (Filename.concat dir "dune-project") then
             Filename.concat dir "bench_out"
           else
             let parent = Filename.dirname dir in
             if parent = dir then
               Alcotest.fail
                 "repository root not found; set ICDB_GOLDEN_DIR"
             else up parent
         in
         up (Sys.getcwd ()))

let bless = Sys.getenv_opt "ICDB_BLESS" = Some "1"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let check_golden name cif =
  let path = Filename.concat (Lazy.force golden_dir) name in
  if bless then (
    Out_channel.with_open_bin path (fun oc -> output_string oc cif);
    Printf.printf "blessed %s (%d bytes)\n" path (String.length cif))
  else if not (Sys.file_exists path) then
    Alcotest.fail (Printf.sprintf "missing golden %s (run with ICDB_BLESS=1)" path)
  else
    check Alcotest.string (name ^ " matches byte-for-byte") (read_file path) cif

let server = lazy (Server.create ~verify:false ())

let counter ?(typ = 2) ?(load = 0) ?(enable = 0) ?(ud = 1) () =
  Server.request_component (Lazy.force server)
    (Spec.make
       (Spec.From_component
          { component = "counter";
            attributes =
              [ ("size", 5); ("type", typ); ("load", load); ("enable", enable);
                ("up_or_down", ud) ];
            functions = [] }))

(* Figure 9: the five counter implementations at their best-area shape. *)
let test_fig9 () =
  List.iter
    (fun (tag, inst) ->
      let _, cif, _ =
        Server.request_layout (Lazy.force server) inst.Instance.id ()
      in
      check_golden (Printf.sprintf "fig9_%s.cif" tag) cif)
    [ ("ripple", counter ~typ:1 ());
      ("sync_up", counter ());
      ("sync_up_enable", counter ~enable:1 ());
      ("sync_updown", counter ~ud:3 ());
      ("sync_updown_load", counter ~ud:3 ~load:1 ~enable:1 ()) ]

(* Figure 12: every shape alternative of the up/down+load counter. *)
let test_fig12 () =
  let inst = counter ~ud:3 ~load:1 ~enable:1 () in
  check Alcotest.bool "has shape alternatives" true
    (List.length inst.Instance.shape > 1);
  List.iter
    (fun (a : Shape.alternative) ->
      let _, cif, _ =
        Server.request_layout (Lazy.force server) inst.Instance.id
          ~alternative:a.Shape.alt_index ()
      in
      check_golden (Printf.sprintf "fig12_strips%d.cif" a.Shape.alt_strips) cif)
    inst.Instance.shape

(* ------------------------------------------------------------------ *)
(* Lattice figures                                                     *)
(* ------------------------------------------------------------------ *)

(* The 160-point cold-explore lattice: counters of size 2-8 in six
   attribute variants, each under fastest, balanced and cheapest with
   the clock bound rotating over none / loose / tight, plus one
   default-strategy point per single structure. Every point is also
   requested under one external load on its first data output, so the
   goldens pin the sizer and STA figures the explore sweep reports. *)
module Axis = Icdb_explore.Axis
module Sizing = Icdb_timing.Sizing

let lattice () =
  let point ?(strategy = Sizing.Balanced) ?clock comp attrs =
    { Axis.p_component = comp; p_attrs = attrs; p_strategy = strategy;
      p_clock = clock; p_delay = None }
  in
  let variants = [ (1, 1, 3); (0, 1, 3); (1, 0, 2); (0, 0, 2); (1, 1, 1); (0, 0, 1) ] in
  let strategies = [ Sizing.Fastest; Sizing.Balanced; Sizing.Cheapest ] in
  let counters =
    List.concat_map
      (fun size ->
        List.concat
          (List.mapi
             (fun v (load, enable, ud) ->
               List.mapi
                 (fun si strategy ->
                   let clock =
                     match (v + si) mod 3 with
                     | 0 -> None
                     | 1 -> Some (float_of_int ((3 * size) + 14))
                     | _ -> Some (float_of_int ((3 * size) + 8))
                   in
                   point ~strategy ?clock "counter"
                     [ ("size", size); ("load", load); ("enable", enable);
                       ("up_or_down", ud) ])
                 strategies)
             variants))
      [ 2; 3; 4; 5; 6; 7; 8 ]
  in
  let singles =
    List.concat_map
      (fun (comp, n) -> List.init n (fun i -> point comp [ ("size", i + 1) ]))
      [ ("adder", 6); ("alu", 4); ("comparator", 4); ("multiplier", 6);
        ("register", 8); ("mux_scl", 6) ]
  in
  counters @ singles

(* The component's first data output, bit 0 when it is a bus. *)
let load_port comp =
  let c = Option.get (Icdb_genus.Component.find comp) in
  let p =
    List.find
      (fun (p : Icdb_genus.Component.port) ->
        p.Icdb_genus.Component.role = Icdb_genus.Component.Data_out)
      c.Icdb_genus.Component.ports
  in
  if p.Icdb_genus.Component.bus then p.Icdb_genus.Component.port_name ^ "[0]"
  else p.Icdb_genus.Component.port_name

(* One line of figures per request; floats in %h so that any change of
   the last bit shows. *)
let point_figures server (p : Axis.point) loads =
  let spec =
    Spec.make
      ~constraints:{ (Axis.point_constraints p) with Sizing.port_loads = loads }
      (Spec.From_component
         { component = p.Axis.p_component; attributes = p.Axis.p_attrs;
           functions = [] })
  in
  let inst = Server.request_component server spec in
  let r = inst.Instance.report in
  let ports l =
    String.concat "," (List.map (fun (n, t) -> Printf.sprintf "%s:%h" n t) l)
  in
  Printf.sprintf "%s load=%s dump=%s CW=%h WD=[%s] SD=[%s] area=%h shapes=[%s]"
    (Axis.point_to_string p)
    (ports loads)
    (Digest.to_hex
       (Digest.string
          (Icdb_netlist.Vhdl.dump { inst.Instance.netlist with name = "golden" })))
    r.Icdb_timing.Sta.clock_width
    (ports r.Icdb_timing.Sta.output_delays)
    (ports r.Icdb_timing.Sta.setup_times)
    (Shape.best_area inst.Instance.shape).Shape.alt_area
    (String.concat ","
       (List.map
          (fun (a : Shape.alternative) ->
            Printf.sprintf "%d:%h:%h:%h" a.Shape.alt_strips a.Shape.alt_width
              a.Shape.alt_height a.Shape.alt_area)
          inst.Instance.shape))

let test_lattice () =
  let server = Server.create ~verify:false () in
  let lines =
    List.concat_map
      (fun (p : Axis.point) ->
        [ point_figures server p [];
          point_figures server p [ (load_port p.Axis.p_component, 20.0) ] ])
      (lattice ())
  in
  check Alcotest.int "320 requests" 320 (List.length lines);
  let text = String.concat "\n" lines ^ "\n" in
  let name = "lattice_figures.txt" in
  let path = Filename.concat (Lazy.force golden_dir) name in
  if bless || not (Sys.file_exists path) then check_golden name text
  else
    let expected = String.split_on_char '\n' (read_file path) in
    let actual = String.split_on_char '\n' text in
    check Alcotest.int "line count" (List.length expected) (List.length actual);
    List.iter2
      (fun e a -> if e <> a then check Alcotest.string "lattice figures" e a)
      expected actual


(* ------------------------------------------------------------------ *)
(* Quine-McCluskey covers                                              *)
(* ------------------------------------------------------------------ *)

module Sop = Icdb_logic.Sop

(* Seeded functions of 9-12 variables: unions of random cubes with up
   to 9 don't-cares plus stray minterms, so primes span several merge
   levels and overlap. Cubes stop once 700 minterms are reached, which
   keeps the whole sweep to a few seconds even for a quadratic merge. *)
let qm_function st nvars =
  let full = (1 lsl nvars) - 1 in
  let points = Hashtbl.create 256 in
  let cubes = 3 + Random.State.int st 10 in
  let rec add_cubes k =
    if k < cubes && Hashtbl.length points < 700 then begin
      let mask = ref 0 in
      for _ = 1 to 2 + Random.State.int st 8 do
        mask := !mask lor (1 lsl Random.State.int st nvars)
      done;
      let base = Random.State.int st (full + 1) land lnot !mask in
      (* every sub-mask of [mask] *)
      let rec subs sub =
        Hashtbl.replace points (base lor sub) ();
        if sub <> 0 then subs ((sub - 1) land !mask)
      in
      subs !mask;
      add_cubes (k + 1)
    end
  in
  add_cubes 0;
  for _ = 1 to Random.State.int st 65 do
    Hashtbl.replace points (Random.State.int st (full + 1)) ()
  done;
  List.sort compare (Hashtbl.fold (fun m () acc -> m :: acc) points [])

(* Seeded dense functions: each point on with probability
   min(1/2, 700/2^n). *)
let qm_dense st nvars =
  let p = Float.min 0.5 (700.0 /. float_of_int (1 lsl nvars)) in
  List.filter (fun _ -> Random.State.float st 1.0 < p)
    (List.init (1 lsl nvars) Fun.id)

(* A cube as one character per variable, variable 0 first. *)
let cube_string nvars (i : Sop.implicant) =
  String.init nvars (fun v ->
      if i.Sop.mask land (1 lsl v) <> 0 then '-'
      else if i.Sop.bits land (1 lsl v) <> 0 then '1'
      else '0')

let test_qm_covers () =
  let st = Random.State.make [| 0x9A11 |] in
  let lines =
    List.concat_map
      (fun nvars ->
        List.init 8 (fun case ->
            let ms =
              if case < 6 then qm_function st nvars else qm_dense st nvars
            in
            let cover = Sop.minimize (Sop.of_minterms nvars ms) in
            Printf.sprintf "%d.%d vars=%d minterms=%d fn=%s cover=%s" nvars case
              nvars (List.length ms)
              (Digest.to_hex
                 (Digest.string (String.concat "," (List.map string_of_int ms))))
              (String.concat " "
                 (List.map (cube_string nvars) (Sop.cubes cover)))))
      [ 9; 10; 11; 12 ]
  in
  check_golden "qm_covers.txt" (String.concat "\n" lines ^ "\n")

let () =
  Alcotest.run "golden"
    [ ("cif",
       [ Alcotest.test_case "fig9 counters" `Quick test_fig9;
         Alcotest.test_case "fig12 shapes" `Quick test_fig12 ]);
      ("lattice",
       [ Alcotest.test_case "cold-explore figures" `Quick test_lattice ]);
      ("qm",
       [ Alcotest.test_case "seeded covers, 9-12 variables" `Quick
           test_qm_covers ]) ]
