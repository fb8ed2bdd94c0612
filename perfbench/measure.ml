(* The benchmark's arithmetic, kept free of the engine so it can be
   tested on its own: the percentile rule, the result-bag comparator,
   the q-error, span self time, and a small JSON emitter. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                        *)
(* ------------------------------------------------------------------ *)

(* A percentile [q] is reported only when at least ten samples lie
   beyond it: [n * (1 - q) >= 10].  The median needs 20 samples, p95
   needs 200. *)
let min_beyond = 10

let supported ~(q : float) (n : int) : bool =
  float_of_int n *. (1. -. q) >= float_of_int min_beyond -. 1e-9

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile ~(q : float) (xs : float list) : float =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile ~q:0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Result bags                                                        *)
(* ------------------------------------------------------------------ *)

(* Plans that join or aggregate in different orders sum floats in
   different orders, so floats are compared after rounding to
   [float_digits] significant digits.  A bag is the sorted list of
   rendered rows. *)
let float_digits = 9

let render_value (v : Relalg.Value.t) : string =
  match v with
  | Relalg.Value.Float f -> Printf.sprintf "%.*g" float_digits f
  | v -> Relalg.Value.to_string v

let bag (rows : Relalg.Value.t array list) : string list =
  List.sort compare
    (List.map (fun r -> String.concat "|" (Array.to_list (Array.map render_value r))) rows)

(* Rows only in [a] and rows only in [b] (multiset difference both
   ways); both empty means the bags are equal. *)
let bag_diff (a : string list) (b : string list) : string list * string list =
  let rec go a b only_a only_b =
    match (a, b) with
    | [], [] -> (List.rev only_a, List.rev only_b)
    | x :: a', [] -> go a' [] (x :: only_a) only_b
    | [], y :: b' -> go [] b' only_a (y :: only_b)
    | x :: a', y :: b' ->
        let c = compare x y in
        if c = 0 then go a' b' only_a only_b
        else if c < 0 then go a' b (x :: only_a) only_b
        else go a b' only_a (y :: only_b)
  in
  go a b [] []

let bags_equal a b = bag_diff a b = ([], [])

(* ------------------------------------------------------------------ *)
(* Cardinality                                                        *)
(* ------------------------------------------------------------------ *)

(* q-error of an estimate: max(est/act, act/est), both clamped to at
   least one row so an empty result does not divide by zero. *)
let qerror ~(est : float) ~(act : float) : float =
  let e = Float.max 1. est and a = Float.max 1. act in
  Float.max (e /. a) (a /. e)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  req : int;  (** request the span belongs to *)
  name : string;
  parent : int option;
  start : float;  (** seconds *)
  stop : float;
}

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~(lo : float) ~(hi : float) (ivs : (float * float) list) : float =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      ivs
  in
  let rec sweep acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then sweep acc (Some (ca, Float.max cb b)) rest
            else sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0. None (List.sort compare clipped)

(* Self time of every span: its duration minus the part of its
   interval that its children cover.  Returns (span, self seconds). *)
let self_times (spans : span list) : (span * float) list =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace kids p ((s.start, s.stop) :: Option.value ~default:[] (Hashtbl.find_opt kids p))
      | None -> ())
    spans;
  List.map
    (fun s ->
      let children = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
      (s, Float.max 0. (s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children)))
    spans

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string (j : json) : string =
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kv)
      ^ "}"
