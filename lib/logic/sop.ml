(* Two-level (sum-of-products) representation and minimization.

   Used node-locally by the logic optimizer: node functions are small
   (a handful of fanins), so exact Quine–McCluskey prime generation with
   an essential-then-greedy cover is affordable and deterministic. *)

(* An implicant over [nvars] variables: [bits] gives the value of the
   cared-about variables, [mask] has a 1 for every don't-care position. *)
type implicant = { bits : int; mask : int }

type t = {
  nvars : int;
  implicants : implicant list;
}

let nvars t = t.nvars

let cubes t = t.implicants

let zero nvars = { nvars; implicants = [] }

let one nvars = { nvars; implicants = [ { bits = 0; mask = (1 lsl nvars) - 1 } ] }

let is_zero t = t.implicants = []

let is_one t =
  let full = (1 lsl t.nvars) - 1 in
  List.exists (fun i -> i.mask land full = full) t.implicants

(* Does implicant [i] cover minterm [m]? *)
let covers i m = i.bits land lnot i.mask = m land lnot i.mask

let eval t assignment =
  (* [assignment] bit i = value of variable i *)
  List.exists (fun i -> covers i assignment) t.implicants

let of_minterms nvars minterms =
  if nvars > 20 then invalid_arg "Sop.of_minterms: too many variables";
  { nvars;
    implicants = List.map (fun m -> { bits = m; mask = 0 }) minterms }

(* Every implicant covers [bits] with any sub-mask of [mask] set, so the
   covered points are marked once each instead of testing every
   implicant at every point. *)
let minterms t =
  let n = 1 lsl t.nvars in
  let on = Bytes.make n '\000' in
  List.iter
    (fun i ->
      let base = i.bits land lnot i.mask and mask = i.mask land (n - 1) in
      if base >= 0 && base < n then begin
        let rec mark sub =
          Bytes.unsafe_set on (base lor sub) '\001';
          if sub <> 0 then mark ((sub - 1) land mask)
        in
        mark mask
      end)
    t.implicants;
  let out = ref [] in
  for m = n - 1 downto 0 do
    if Bytes.unsafe_get on m <> '\000' then out := m :: !out
  done;
  !out

(* Set bits of all 63 bits of an int. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Literal count of an implicant: variables not masked out. *)
let implicant_literals t i = t.nvars - popcount i.mask

let literal_count t =
  List.fold_left (fun acc i -> acc + implicant_literals t i) 0 t.implicants

(* ------------------------------------------------------------------ *)
(* Quine–McCluskey prime implicant generation                          *)
(* ------------------------------------------------------------------ *)

(* Prime generation by neighbour lookup. An implicant's bits are zero
   under its mask, so two implicants of one level merge exactly when
   they share a mask and one is the other with a single cared 0-bit
   set. A level is a list of groups, one per mask, and while a group is
   processed a 2^nvars table marks its members, so each partner is one
   lookup. Every sub-cube of an implicant is an implicant too, so a
   merged implicant of mask [m lor b] arises from group [m] along every
   bit of its mask; keeping only the merge along its lowest bit
   produces each next-level implicant once, already grouped by mask.
   Members left unmerged are the primes. A function's set of primes is
   unique, so the sorted list equals that of any complete
   Quine–McCluskey pass. *)
let prime_implicants nvars minterms =
  let full = (1 lsl nvars) - 1 in
  (* 0: not in the current group; 1: member; 2: member that merged *)
  let table = Bytes.make (full + 1) '\000' in
  let primes = ref [] in
  let rec level groups =
    if groups <> [] then
      level
        (List.concat_map
           (fun (mask, members) ->
             Array.iter (fun x -> Bytes.unsafe_set table x '\001') members;
             let scratch = Array.make (Array.length members) 0 in
             let next = ref [] in
             for v = 0 to nvars - 1 do
               let b = 1 lsl v in
               if mask land b = 0 then begin
                 (* merges along [b] are emitted when [b] is below every
                    bit of [mask] *)
                 let emit = mask land (b - 1) = 0 in
                 let count = ref 0 in
                 Array.iter
                   (fun x ->
                     if x land b = 0
                        && Bytes.unsafe_get table (x lor b) <> '\000'
                     then begin
                       Bytes.unsafe_set table x '\002';
                       Bytes.unsafe_set table (x lor b) '\002';
                       if emit then begin
                         scratch.(!count) <- x;
                         incr count
                       end
                     end)
                   members;
                 if !count > 0 then
                   next := (mask lor b, Array.sub scratch 0 !count) :: !next
               end
             done;
             Array.iter
               (fun x ->
                 if Bytes.unsafe_get table x = '\001' then
                   primes := { bits = x; mask } :: !primes;
                 Bytes.unsafe_set table x '\000')
               members;
             !next)
           groups)
  in
  level [ (0, Array.of_list minterms) ];
  List.sort compare !primes

(* Cover selection: essential primes first, then greedily pick the prime
   covering the most remaining minterms (ties broken by fewer literals,
   then lexicographically, for determinism). Minterm sets are bitsets,
   63 minterms per word: [remaining] is dense, and each prime's cover
   holds only the words it touches, so a prime's gain is the popcount
   of its cover words against [remaining]. *)

(* A cover's nonzero words: word [at.(k)] of the bitset is [set.(k)]. *)
type cover = { at : int array; set : int array }

let select_cover nvars primes minterms =
  let primes = Array.of_list primes in
  let space = 1 lsl nvars in
  let remaining = Array.make ((space + 62) / 63) 0 in
  let add set m = set.(m / 63) <- set.(m / 63) lor (1 lsl (m mod 63)) in
  List.iter (add remaining) minterms;
  (* per minterm: how many primes cover it, and the last one seen *)
  let count = Array.make space 0 and only = Array.make space 0 in
  let scratch = Array.make (Array.length remaining) 0 in
  let covers =
    Array.mapi
      (fun j p ->
        let base = p.bits land lnot p.mask in
        let touched = ref [] in
        let rec mark sub =
          let m = base lor sub in
          count.(m) <- count.(m) + 1;
          only.(m) <- j;
          if scratch.(m / 63) = 0 then touched := (m / 63) :: !touched;
          add scratch m;
          if sub <> 0 then mark ((sub - 1) land p.mask)
        in
        mark p.mask;
        let at = Array.of_list !touched in
        let set = Array.map (fun w -> scratch.(w)) at in
        Array.iter (fun w -> scratch.(w) <- 0) at;
        { at; set })
      primes
  in
  let gain j =
    let c = covers.(j) and g = ref 0 in
    for k = 0 to Array.length c.at - 1 do
      g := !g + popcount (c.set.(k) land remaining.(c.at.(k)))
    done;
    !g
  in
  let left = ref (List.length minterms) and chosen = ref [] in
  let choose j =
    let c = covers.(j) in
    left := !left - gain j;
    Array.iteri (fun k w -> remaining.(w) <- remaining.(w) land lnot c.set.(k)) c.at;
    chosen := primes.(j) :: !chosen
  in
  (* essential primes *)
  List.iter
    (fun m ->
      if count.(m) = 1 && remaining.(m / 63) land (1 lsl (m mod 63)) <> 0 then
        choose only.(m))
    minterms;
  (* greedy for the rest *)
  while !left > 0 do
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun j p ->
        let g = gain j in
        if g > 0 then
          if !best < 0 then (best := j; best_gain := g)
          else
            let bp = primes.(!best) in
            if g > !best_gain
               || (g = !best_gain && popcount p.mask > popcount bp.mask)
               || (g = !best_gain && popcount p.mask = popcount bp.mask
                   && compare p bp < 0)
            then (best := j; best_gain := g))
      primes;
    if !best < 0 then left := 0 (* unreachable: primes cover all *)
    else choose !best
  done;
  List.rev !chosen

let minimize t =
  let ms = minterms t in
  if ms = [] then zero t.nvars
  else
    let primes = prime_implicants t.nvars ms in
    { t with implicants = select_cover t.nvars primes ms }

(* ------------------------------------------------------------------ *)
(* Conversion to/from flat expressions over a fanin list               *)
(* ------------------------------------------------------------------ *)

open Icdb_iif

exception Too_wide

let max_truth_table_vars = 12

(* Build the SOP of [expr] treating [fanins] as its variables (index i
   of the array = variable i). @raise Too_wide beyond
   [max_truth_table_vars]; @raise Invalid_argument on sequential or
   interface operators. *)
let of_fexpr fanins expr =
  let n = Array.length fanins in
  if n > max_truth_table_vars then raise Too_wide;
  let index = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace index v i) fanins;
  let rec ev assignment e =
    match e with
    | Flat.Fconst b -> b
    | Flat.Fnet v -> (
        match Hashtbl.find_opt index v with
        | Some i -> (assignment lsr i) land 1 = 1
        | None -> invalid_arg ("Sop.of_fexpr: unknown fanin " ^ v))
    | Flat.Fnot e -> not (ev assignment e)
    | Flat.Fand es -> List.for_all (ev assignment) es
    | Flat.For_ es -> List.exists (ev assignment) es
    | Flat.Fxor (a, b) -> ev assignment a <> ev assignment b
    | Flat.Fxnor (a, b) -> ev assignment a = ev assignment b
    | Flat.Fbuf e | Flat.Fschmitt e -> ev assignment e
    | Flat.Fdelay _ | Flat.Ftri _ | Flat.Fwor _ ->
        invalid_arg "Sop.of_fexpr: interface operator in logic cone"
  in
  let ms = ref [] in
  for m = (1 lsl n) - 1 downto 0 do
    if ev m expr then ms := m :: !ms
  done;
  of_minterms n !ms

(* Rebuild a (two-level) expression over fanin names. *)
let to_fexpr fanins t =
  let lit i v =
    if i.mask land (1 lsl v) <> 0 then None
    else if i.bits land (1 lsl v) <> 0 then Some (Flat.Fnet fanins.(v))
    else Some (Flat.Fnot (Flat.Fnet fanins.(v)))
  in
  let cube_expr i =
    let lits = List.filter_map (lit i) (List.init t.nvars Fun.id) in
    match lits with
    | [] -> Flat.Fconst true
    | [ l ] -> l
    | ls -> Flat.Fand ls
  in
  match t.implicants with
  | [] -> Flat.Fconst false
  | [ c ] -> cube_expr c
  | cs -> Flat.For_ (List.map cube_expr cs)
