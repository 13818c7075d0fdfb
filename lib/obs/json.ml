(* Deterministic JSON emission, shared by bench artifacts, the flight
   recorder, the admin plane's /statz and /connz, and `icdb stats
   --json`.

   Objects render their fields in exactly the order given, floats
   render at an explicit fixed precision, and nothing here consults the
   clock or any hash table — the same values always produce
   byte-identical text, so one parser (CI's python3 json.tool, or the
   tests' structural validator) serves every machine-readable surface. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of { v : float; prec : int }
  | Str of string
  | List of t list
  | Obj of (string * t) list

let float ?(prec = 6) v = Float { v; prec }

(* The one JSON string escaper: the Chrome trace export and the admin
   plane's hand-built bodies use it too. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec render buf level v =
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float { v; prec } -> (
      (* JSON has no nan/inf literals *)
      match Float.classify_float v with
      | FP_nan | FP_infinite -> Buffer.add_string buf "null"
      | _ -> Buffer.add_string buf (Printf.sprintf "%.*f" prec v))
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (level + 1);
          render buf (level + 1) item)
        items;
      Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (level + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          render buf (level + 1) item)
        fields;
      Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  render buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write ~path v =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc -> output_string oc (to_string v));
  Sys.rename tmp path
