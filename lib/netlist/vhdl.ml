(* Structural VHDL: the netlist interchange format of the generation
   path (Figure 8). The writer emits an entity/architecture pair for a
   gate netlist (used by synthesis tools to simulate the result, §3.3);
   the parser reads the subset the partitioner uses to hand ICDB a
   cluster of component instances (§6.3). *)

exception Vhdl_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Vhdl_error s)) fmt

(* Net names like Q[3] or $m1 are legal IIF but not VHDL identifiers.
   A name that needs neither is returned as it is. *)
let sanitize name =
  let bad c = c = '[' || c = ']' || c = '$' || c = '.' in
  if name <> "" && name.[0] <> '_' && not (String.exists bad name) then name
  else
    let s = String.map (fun c -> if bad c then '_' else c) name in
    if String.length s > 0 && s.[0] = '_' then "n" ^ s else s

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* Everything is written into one buffer. A drive size keeps its %.2f
   text (and its %h text in the trailer); the usual size 1 is a
   constant. *)
let size_text s = if s = 1.0 then "1.00" else Printf.sprintf "%.2f" s
let size_hex s = if s = 1.0 then "0x1p+0" else Printf.sprintf "%h" s

let write_entity buf (nl : Netlist.t) =
  let add = Buffer.add_string buf in
  let name = sanitize nl.Netlist.name in
  add "entity ";
  add name;
  add " is\n  port (\n";
  let left = ref (List.length nl.Netlist.inputs + List.length nl.Netlist.outputs) in
  let port dir n =
    decr left;
    add "    ";
    add (sanitize n);
    add dir;
    add (if !left = 0 then " bit\n" else " bit;\n")
  in
  List.iter (port " : in") nl.Netlist.inputs;
  List.iter (port " : out") nl.Netlist.outputs;
  add "  );\nend ";
  add name;
  add ";\n"

let write_architecture buf (nl : Netlist.t) =
  let add = Buffer.add_string buf in
  add "architecture netlist of ";
  add (sanitize nl.Netlist.name);
  add " is\n";
  (* component declarations, one per distinct cell *)
  List.iter
    (fun c ->
      add "  component ";
      add c;
      add " end component;\n")
    (List.sort_uniq compare (List.map (fun i -> i.Netlist.cell) nl.Netlist.instances));
  (* internal signals *)
  let io = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace io n ()) nl.Netlist.inputs;
  List.iter (fun n -> Hashtbl.replace io n ()) nl.Netlist.outputs;
  let first = ref true in
  List.iter
    (fun n ->
      if not (Hashtbl.mem io n) then begin
        add (if !first then "  signal " else ", ");
        first := false;
        add (sanitize n)
      end)
    (Netlist.nets nl);
  if not !first then add " : bit;\n";
  add "begin\n";
  List.iter
    (fun (i : Netlist.instance) ->
      add "  ";
      add i.inst_name;
      add ": ";
      add i.cell;
      add " port map (";
      List.iteri
        (fun j (p, n) ->
          if j > 0 then add ", ";
          add p;
          add " => ";
          add (sanitize n))
        i.conns;
      add ");  -- size ";
      add (size_text i.size);
      add "\n")
    nl.Netlist.instances;
  add "end netlist;\n"

(* Entity declaration only (the VHDL_head query of §3.3). *)
let entity_of nl =
  let buf = Buffer.create 256 in
  write_entity buf nl;
  Buffer.contents buf

let architecture_of nl =
  let buf = Buffer.create 1024 in
  write_architecture buf nl;
  Buffer.contents buf

let write_vhdl buf nl =
  write_entity buf nl;
  Buffer.add_char buf '\n';
  write_architecture buf nl

let to_vhdl nl =
  let buf = Buffer.create 4096 in
  write_vhdl buf nl;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Exact persistence (workspace .vhdl files)                           *)
(* ------------------------------------------------------------------ *)

(* The sanitized entity/architecture text is what external tools read,
   but it does not round-trip: names are sanitized and drive sizes live
   in comments. Workspace files therefore carry a machine-readable
   trailer of "--#" comment lines (still legal VHDL) encoding the
   netlist exactly, which crash recovery reads back with [undump]. *)

let trailer_field what s =
  if String.exists (fun c -> c = '\t' || c = '\n' || c = ',' || c = '=') s then
    fail "%s %S not representable in a netlist trailer" what s;
  s

let dump nl =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let field what s = add (trailer_field what s) in
  write_vhdl buf nl;
  add "--#name\t";
  field "name" nl.Netlist.name;
  add "\n";
  List.iter
    (fun n ->
      add "--#in\t";
      field "net" n;
      add "\n")
    nl.Netlist.inputs;
  List.iter
    (fun n ->
      add "--#out\t";
      field "net" n;
      add "\n")
    nl.Netlist.outputs;
  List.iter
    (fun (i : Netlist.instance) ->
      add "--#inst\t";
      field "instance" i.Netlist.inst_name;
      add "\t";
      field "cell" i.Netlist.cell;
      add "\t";
      add (size_hex i.Netlist.size);
      add "\t";
      List.iteri
        (fun j (p, n) ->
          if j > 0 then add ",";
          field "pin" p;
          add "=";
          field "net" n)
        i.Netlist.conns;
      add "\n")
    nl.Netlist.instances;
  Buffer.contents buf

let undump src =
  let name = ref None in
  let inputs = ref [] and outputs = ref [] and instances = ref [] in
  let parse_conns s =
    if s = "" then []
    else
      String.split_on_char ',' s
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | Some i ->
                 (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
             | None -> fail "malformed connection %S in netlist trailer" kv)
  in
  String.split_on_char '\n' src
  |> List.iter (fun line ->
         if String.length line > 3 && String.sub line 0 3 = "--#" then
           let body = String.sub line 3 (String.length line - 3) in
           match String.split_on_char '\t' body with
           | [ "name"; n ] -> name := Some n
           | [ "in"; n ] -> inputs := n :: !inputs
           | [ "out"; n ] -> outputs := n :: !outputs
           | [ "inst"; label; cell; size; conns ] ->
               let size =
                 match float_of_string_opt size with
                 | Some s -> s
                 | None -> fail "malformed size %S in netlist trailer" size
               in
               instances :=
                 { Netlist.inst_name = label; cell; size;
                   conns = parse_conns conns }
                 :: !instances
           | _ -> fail "malformed netlist trailer line %S" line);
  match !name with
  | None -> fail "missing netlist trailer (--# lines)"
  | Some name ->
      { Netlist.name;
        inputs = List.rev !inputs;
        outputs = List.rev !outputs;
        instances = List.rev !instances }

(* ------------------------------------------------------------------ *)
(* Parser (structural subset)                                          *)
(* ------------------------------------------------------------------ *)

(* Parsed cluster netlist: instances of named components with
   formal => actual port maps. Actuals and formals are plain
   identifiers (already flattened to bit nets). *)

type parsed_instance = {
  pi_label : string;
  pi_component : string;
  pi_ports : (string * string) list;  (* formal -> actual net *)
}

type parsed = {
  p_name : string;
  p_inputs : string list;
  p_outputs : string list;
  p_instances : parsed_instance list;
}

type token = Id of string | Sym of char

let tokenize_vhdl src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let is_id c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '[' || c = ']' || c = '$'
  in
  while !i < n do
    let c = src.[!i] in
    if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_id c then begin
      let j = ref !i in
      while !j < n && is_id src.[!j] do incr j done;
      toks := Id (String.sub src !i (!j - !i)) :: !toks;
      i := !j
    end
    else begin
      (match c with
       | '(' | ')' | ':' | ';' | ',' | '=' | '>' | '.' -> toks := Sym c :: !toks
       | c -> fail "unexpected character %C" c);
      incr i
    end
  done;
  List.rev !toks

let kw s k = String.lowercase_ascii s = k

(* Parse [entity NAME is port ( n : in bit; ... ); end NAME;
    architecture A of NAME is begin
      label: COMP port map (f => a, ...); ... end A;] *)
let parse src =
  let toks = ref (tokenize_vhdl src) in
  let peek () = match !toks with t :: _ -> Some t | [] -> None in
  let next () =
    match !toks with
    | t :: rest -> toks := rest; t
    | [] -> fail "unexpected end of VHDL"
  in
  let expect_sym c =
    match next () with
    | Sym s when s = c -> ()
    | Sym s -> fail "expected %C, found %C" c s
    | Id s -> fail "expected %C, found %s" c s
  in
  let ident () =
    match next () with
    | Id s -> s
    | Sym c -> fail "expected identifier, found %C" c
  in
  let expect_kw k =
    let s = ident () in
    if not (kw s k) then fail "expected %s, found %s" k s
  in
  expect_kw "entity";
  let name = ident () in
  expect_kw "is";
  expect_kw "port";
  expect_sym '(';
  let inputs = ref [] and outputs = ref [] in
  let rec ports () =
    (* names , ... : dir type *)
    let rec names acc =
      let n = ident () in
      match peek () with
      | Some (Sym ',') -> ignore (next ()); names (n :: acc)
      | _ -> List.rev (n :: acc)
    in
    let ns = names [] in
    expect_sym ':';
    let dir = ident () in
    let _ty = ident () in
    (match String.lowercase_ascii dir with
     | "in" -> inputs := !inputs @ ns
     | "out" -> outputs := !outputs @ ns
     | d -> fail "unsupported port direction %s" d);
    match next () with
    | Sym ';' -> ports ()
    | Sym ')' -> ()
    | Sym c -> fail "expected ; or ) in port list, found %C" c
    | Id s -> fail "expected ; or ) in port list, found %s" s
  in
  ports ();
  expect_sym ';';
  expect_kw "end";
  let _ = ident () in
  expect_sym ';';
  expect_kw "architecture";
  let _arch = ident () in
  expect_kw "of";
  let _ = ident () in
  expect_kw "is";
  (* skip declarations until begin *)
  let rec to_begin () =
    match next () with
    | Id s when kw s "begin" -> ()
    | _ -> to_begin ()
  in
  to_begin ();
  let instances = ref [] in
  let rec stmts () =
    match next () with
    | Id s when kw s "end" ->
        let _ = ident () in
        expect_sym ';'
    | Id label ->
        expect_sym ':';
        let comp = ident () in
        (* optional "entity"/"component" keyword before the name *)
        let comp =
          if kw comp "component" || kw comp "entity" then ident () else comp
        in
        expect_kw "port";
        expect_kw "map";
        expect_sym '(';
        let rec maps acc =
          let formal = ident () in
          expect_sym '=';
          expect_sym '>';
          let actual = ident () in
          match next () with
          | Sym ',' -> maps ((formal, actual) :: acc)
          | Sym ')' -> List.rev ((formal, actual) :: acc)
          | Sym c -> fail "expected , or ) in port map, found %C" c
          | Id s -> fail "expected , or ) in port map, found %s" s
        in
        let ports = maps [] in
        expect_sym ';';
        instances :=
          { pi_label = label; pi_component = comp; pi_ports = ports }
          :: !instances;
        stmts ()
    | Sym c -> fail "expected statement, found %C" c
  in
  stmts ();
  { p_name = name;
    p_inputs = !inputs;
    p_outputs = !outputs;
    p_instances = List.rev !instances }

(* ------------------------------------------------------------------ *)
(* Cluster flattening                                                  *)
(* ------------------------------------------------------------------ *)

(* Inline sub-netlists into one flat netlist: each parsed instance's
   component is resolved (by [resolve]) to a gate netlist whose ports
   are connected per the port map and whose internal nets are prefixed
   with the instance label. Labels must be unique: two instances under
   one label would share their internal nets. *)
let flatten parsed ~resolve =
  let instances = ref [] in
  let labels = Hashtbl.create 16 in
  List.iter
    (fun pi ->
      if Hashtbl.mem labels pi.pi_label then
        fail "duplicate instance label %s in cluster" pi.pi_label;
      Hashtbl.add labels pi.pi_label ();
      let sub : Netlist.t =
        match resolve pi.pi_component with
        | Some nl -> nl
        | None -> fail "unknown component %s in cluster" pi.pi_component
      in
      let io = sub.Netlist.inputs @ sub.Netlist.outputs in
      let rename net =
        match List.assoc_opt net pi.pi_ports with
        | Some actual -> actual
        | None ->
            if List.mem net io then
              fail "instance %s: port %s of %s not connected" pi.pi_label net
                pi.pi_component
            else pi.pi_label ^ "/" ^ net
      in
      List.iter
        (fun (i : Netlist.instance) ->
          instances :=
            { i with
              inst_name = pi.pi_label ^ "/" ^ i.inst_name;
              conns = List.map (fun (p, n) -> (p, rename n)) i.conns }
            :: !instances)
        sub.Netlist.instances)
    parsed.p_instances;
  { Netlist.name = parsed.p_name;
    inputs = parsed.p_inputs;
    outputs = parsed.p_outputs;
    instances = List.rev !instances }
