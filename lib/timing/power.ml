(* Power estimation.

   §1 lists power consumption among the figures the database must serve
   next to delay and area. The estimate combines:
   - dynamic power: per-instance switching activity, measured by driving
     the gate-level netlist with a deterministic pseudo-random vector
     sequence and counting output toggles, times a per-cell switching
     energy proportional to switched transistor width;
   - static power: a small per-transistor leakage term.

   Activities are reported per instance so optimization tools can find
   hot spots. *)

open Icdb_netlist
open Icdb_logic

type report = {
  vectors : int;                 (* simulation length *)
  dynamic_mw : float;            (* at the reference clock *)
  static_uw : float;
  reference_mhz : float;
  activities : (string * float) list;  (* instance -> toggles per vector *)
}

let switching_energy_fj (cell : Celllib.t) size =
  (* ~2 fJ per switched unit transistor at 5 V, scaled by drive *)
  2.0 *. float_of_int cell.Celllib.transistors *. (0.5 +. (0.5 *. size))

let leakage_nw_per_transistor = 5.0

let reference_mhz = 10.0

(* Deterministic input sequence: clock-like inputs toggle every vector,
   others flip pseudo-randomly. *)
let is_clock_name n =
  let u = String.uppercase_ascii n in
  u = "CLK" || u = "CLOCK" || u = "CK" || u = "CLKO"

let estimate ?(vectors = 64) ?(seed = 7) (nl : Netlist.t) =
  let sim = Icdb_sim.Gate_sim.create nl in
  let rng = Random.State.make [| seed |] in
  let inputs = nl.Netlist.inputs in
  (* output net of each instance, for toggle counting *)
  let out_nets =
    List.filter_map
      (fun (i : Netlist.instance) ->
        match Celllib.find i.cell with
        | Some c -> (
            match Netlist.pin_net i c.Celllib.output with
            | Some n -> Some (i, c, n)
            | None -> None)
        | None -> None)
      nl.Netlist.instances
  in
  let toggles = Hashtbl.create 64 in
  let last = Hashtbl.create 64 in
  let record () =
    List.iter
      (fun ((i : Netlist.instance), _, net) ->
        let v = Icdb_iif.Interp.value sim net in
        (match Hashtbl.find_opt last i.inst_name with
         | Some prev when prev <> v ->
             Hashtbl.replace toggles i.inst_name
               (1 + match Hashtbl.find_opt toggles i.inst_name with
                    | Some c -> c
                    | None -> 0)
         | _ -> ());
        Hashtbl.replace last i.inst_name v)
      out_nets
  in
  let state = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace state n false) inputs;
  for step = 1 to vectors do
    let assignment =
      List.map
        (fun n ->
          let v =
            if is_clock_name n then step mod 2 = 1
            else if Random.State.int rng 100 < 30 then
              not (Hashtbl.find state n)
            else Hashtbl.find state n
          in
          Hashtbl.replace state n v;
          (n, v))
        inputs
    in
    Icdb_iif.Interp.step sim assignment;
    record ()
  done;
  let activities =
    List.map
      (fun ((i : Netlist.instance), _, _) ->
        let t =
          match Hashtbl.find_opt toggles i.inst_name with
          | Some c -> float_of_int c
          | None -> 0.0
        in
        (i.inst_name, t /. float_of_int vectors))
      out_nets
  in
  let dynamic_mw =
    (* P = activity * E * f; fJ * MHz = nW, so / 1e6 gives mW *)
    List.fold_left
      (fun acc ((i : Netlist.instance), c, _) ->
        let a = List.assoc i.inst_name activities in
        acc +. (a *. switching_energy_fj c i.size *. reference_mhz /. 1.0e6))
      0.0 out_nets
  in
  let static_uw =
    List.fold_left
      (fun acc ((i : Netlist.instance), c, _) ->
        ignore i;
        acc +. (float_of_int c.Celllib.transistors *. leakage_nw_per_transistor /. 1000.0))
      0.0 out_nets
  in
  { vectors; dynamic_mw; static_uw; reference_mhz; activities }

let report_to_string r =
  let hot =
    List.sort (fun (_, a) (_, b) -> compare b a) r.activities
    |> List.filteri (fun i _ -> i < 5)
  in
  Printf.sprintf
    "P %.3f mW at %.0f MHz (static %.2f uW, %d vectors)\nhottest: %s"
    r.dynamic_mw r.reference_mhz r.static_uw r.vectors
    (String.concat ", "
       (List.map (fun (n, a) -> Printf.sprintf "%s %.2f" n a) hot))
