(* Equivalence checking between a flat IIF specification and a mapped
   netlist. Both run on the same machine, Interp (the netlist through
   Gate_sim's front end), from the all-zero state, so driving identical
   input sequences must produce identical output sequences.

   For purely combinational designs the check enumerates input vectors
   exhaustively (up to a bound) instead of sampling. When both sides
   settle to a function of the present inputs alone, it runs the word
   mode on both, 63 vectors per native int, and replays the first
   differing vector one vector at a time for the report. *)

open Icdb_iif

type result =
  | Equivalent
  | Mismatch of {
      step : int;
      inputs : (string * bool) list;
      expected : (string * bool) list;  (* from the IIF reference *)
      got : (string * bool) list;       (* from the netlist *)
    }

type method_ = Words | Vectors | Sequence

let is_combinational (flat : Flat.t) =
  List.for_all (fun eq -> not (Flat.is_sequential eq)) flat.Flat.fequations

(* Outputs compare by position; [same_names] says the two output name
   lists are equal, and when they are not every step is a mismatch. *)
let compare_step ~same_names ~nout ref_sim gate_sim step inputs =
  Interp.step ref_sim inputs;
  Interp.step gate_sim inputs;
  let rec agree k =
    k = nout || (Interp.output ref_sim k = Interp.output gate_sim k && agree (k + 1))
  in
  if same_names && agree 0 then None
  else
    Some
      (Mismatch
         { step; inputs; expected = Interp.outputs ref_sim;
           got = Interp.outputs gate_sim })

(* The step comparison of one design and netlist. *)
let comparer (flat : Flat.t) (netlist : Icdb_netlist.Netlist.t) =
  compare_step
    ~same_names:(flat.Flat.foutputs = netlist.Icdb_netlist.Netlist.outputs)
    ~nout:(List.length flat.Flat.foutputs)

(* Vector [v]: input i takes bit i. *)
let assignment inputs v = List.mapi (fun i name -> (name, (v lsr i) land 1 = 1)) inputs

(* Exhaustive combinational check; caps at 2^max_exhaustive inputs. *)
let max_exhaustive = 14

let vectors flat netlist ref_sim gate_sim =
  let inputs = flat.Flat.finputs in
  let total = 1 lsl List.length inputs in
  let compare = comparer flat netlist ref_sim gate_sim in
  let rec go v =
    if v >= total then Equivalent
    else match compare v (assignment inputs v) with None -> go (v + 1) | Some m -> m
  in
  go 0

let check_combinational flat netlist =
  if List.length flat.Flat.finputs > max_exhaustive then
    invalid_arg "Equiv.check_combinational: too wide";
  let ref_sim = Interp.create flat in
  let gate_sim = Gate_sim.create netlist in
  vectors flat netlist ref_sim gate_sim

(* Word [base / 63] of the exhaustive enumeration: lane l of input i's
   word is bit i of vector [base + l], for the [lanes] vectors left. *)
let input_words inputs ~base ~lanes =
  List.mapi
    (fun i name ->
      let w = ref 0 in
      for l = lanes - 1 downto 0 do
        w := (!w lsl 1) lor (((base + l) lsr i) land 1)
      done;
      (name, !w))
    inputs

let rec lowest_lane d l = if d land 1 = 1 then l else lowest_lane (d lsr 1) (l + 1)

(* Word mode on both sides over all 2^n vectors. Every output depends only on
   the present vector, so the lowest differing lane of the first
   differing word is the scalar loop's first mismatch, and replaying it
   alone reproduces that loop's record. *)
let by_words flat netlist ref_sim gate_sim ref_words gate_words =
  let inputs = flat.Flat.finputs in
  let total = 1 lsl List.length inputs in
  let rec go base =
    if base >= total then Equivalent
    else begin
      let lanes = min 63 (total - base) in
      let vec = input_words inputs ~base ~lanes in
      Interp.step_words ref_words vec;
      Interp.step_words gate_words vec;
      let expected = Interp.output_words ref_words
      and got = Interp.output_words gate_words in
      let diff = ref 0 in
      Array.iteri (fun k x -> diff := !diff lor (x lxor got.(k))) expected;
      let diff = if lanes = 63 then !diff else !diff land ((1 lsl lanes) - 1) in
      if diff = 0 then go (base + 63)
      else
        let v = base + lowest_lane diff 0 in
        match comparer flat netlist ref_sim gate_sim v (assignment inputs v) with
        | Some m -> m
        | None ->
            failwith
              (Printf.sprintf
                 "Equiv: word and scalar simulation of %s disagree at vector %d"
                 flat.Flat.fname v)
    end
  in
  go 0

(* Randomized sequential check: drive random values on all inputs,
   toggling any plausible clock nets explicitly so edges occur. The
   sequence is deterministic in [seed]. *)
let check_sequential ?(steps = 200) ?(seed = 42) flat netlist =
  let rng = Random.State.make [| seed |] in
  let inputs = flat.Flat.finputs in
  let ref_sim = Interp.create flat in
  let gate_sim = Gate_sim.create netlist in
  let compare = comparer flat netlist ref_sim gate_sim in
  let rec go step current =
    if step >= steps then Equivalent
    else begin
      (* flip a random subset of inputs each step *)
      let next =
        List.map
          (fun (n, v) ->
            if Random.State.int rng 100 < 40 then (n, not v) else (n, v))
          current
      in
      match compare step next with
      | None -> go (step + 1) next
      | Some m -> m
    end
  in
  go 0 (List.map (fun n -> (n, false)) inputs)

(* What [check] runs, with the simulators it built to decide. Words
   need both sides to settle to a function of the present inputs, the
   same input names, and the same output names in the same order. *)
type plan =
  | By_words of Interp.t * Interp.t * Interp.words * Interp.words
  | By_vectors of Interp.t * Interp.t
  | By_sequence

let plan (flat : Flat.t) (netlist : Icdb_netlist.Netlist.t) =
  if is_combinational flat && List.length flat.Flat.finputs <= max_exhaustive then begin
    let ref_sim = Interp.create flat in
    let gate_sim = Gate_sim.create netlist in
    let names l = List.sort_uniq String.compare l in
    let words =
      if names flat.Flat.finputs = names netlist.Icdb_netlist.Netlist.inputs
         && flat.Flat.foutputs = netlist.Icdb_netlist.Netlist.outputs
      then Option.bind (Interp.words ref_sim) (fun r ->
          Option.map (fun g -> (r, g)) (Interp.words gate_sim))
      else None
    in
    match words with
    | Some (r, g) -> By_words (ref_sim, gate_sim, r, g)
    | None -> By_vectors (ref_sim, gate_sim)
  end
  else By_sequence

let method_of flat netlist =
  match plan flat netlist with
  | By_words _ -> Words
  | By_vectors _ -> Vectors
  | By_sequence -> Sequence

let check ?steps ?seed flat netlist =
  match plan flat netlist with
  | By_words (r, g, rw, gw) -> by_words flat netlist r g rw gw
  | By_vectors (r, g) -> vectors flat netlist r g
  | By_sequence -> check_sequential ?steps ?seed flat netlist

let result_to_string = function
  | Equivalent -> "equivalent"
  | Mismatch { step; inputs; expected; got } ->
      let show l =
        String.concat ", "
          (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n (Bool.to_int v)) l)
      in
      Printf.sprintf "mismatch at step %d\n  inputs: %s\n  spec:    %s\n  netlist: %s"
        step (show inputs) (show expected) (show got)
