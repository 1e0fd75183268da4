(** Object model for ldb's PostScript dialect (Sec. 2, Sec. 5).

    Compared to standard PostScript: font and imaging types are omitted;
    abstract-memory and location types are added; strings are immutable
    (for compatibility with the host language's strings); there are no
    save/restore operators (the host garbage collector reclaims memory);
    there are no substrings or subarrays; interpreter errors raise host
    exceptions; files are read-only: a string and a cursor into it.

    Every object carries an attribute telling explicitly whether it is
    literal or executable. *)

type t = { v : payload; exec : bool }

and payload =
  | Int of int
  | Real of float
  | Bool of bool
  | Str of string
  | Name of string
  | Arr of t array
  | Dict of dict
  | Op of string * (unit -> unit)
      (** built-in operator; the closure captures its interpreter *)
  | Mark
  | Null
  | Mem of Ldb_amemory.Amemory.t       (** abstract memory *)
  | Loc of Ldb_amemory.Amemory.location (** location in an abstract memory *)
  | File of file

and dict = { tbl : (string, t) Hashtbl.t; mutable access_note : string }

and file = {
  mutable buf : string;     (** input in hand; [buf.[pos..]] is unread *)
  mutable pos : int;
  refill : unit -> string;  (** next chunk of a stream; [""] when none is ready *)
  file_name : string;
  mutable line : int;       (** 1-based line of the character at [pos] *)
  mutable bol : int;        (** index in [buf] where that line starts; negative
                                once the start has scrolled out of [buf] *)
  mutable tok_line : int;   (** position of the last token's first character *)
  mutable tok_col : int;
}

exception Error of string * string
(** [(error_name, detail)]: typecheck, stackunderflow, undefined, rangecheck,
    invalidaccess, syntaxerror, ioerror. *)

let err name detail = raise (Error (name, detail))

(* --- constructors ------------------------------------------------------ *)

let lit p = { v = p; exec = false }
let exe p = { v = p; exec = true }

let int n = lit (Int n)
let real f = lit (Real f)
let bool b = lit (Bool b)
let str s = lit (Str s)
let name_lit s = lit (Name s)
let name_exec s = exe (Name s)
let mark = lit Mark
let null = lit Null
let op name f = exe (Op (name, f))
let proc elems = exe (Arr elems)
let arr elems = lit (Arr elems)

let dict_create () = { tbl = Hashtbl.create 16; access_note = "" }
let dict d = lit (Dict d)
let mem m = lit (Mem m)
let loc l = lit (Loc l)

let cvx o = { o with exec = true }
let cvlit o = { o with exec = false }

(* --- dictionary keys ---------------------------------------------------- *)

(** Dictionary keys are normalized to strings: names and strings key by
    their text, integers by their decimal form. *)
let key_of (o : t) : string =
  match o.v with
  | Name s | Str s -> s
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | _ -> err "typecheck" "bad dictionary key"

let dict_get d k = Hashtbl.find_opt d.tbl k
let dict_put d k v = Hashtbl.replace d.tbl k v
let dict_mem d k = Hashtbl.mem d.tbl k
let dict_len d = Hashtbl.length d.tbl

(* --- predicates and coercions ------------------------------------------ *)

let type_name (o : t) =
  match o.v with
  | Int _ -> "integertype"
  | Real _ -> "realtype"
  | Bool _ -> "booleantype"
  | Str _ -> "stringtype"
  | Name _ -> "nametype"
  | Arr _ -> "arraytype"
  | Dict _ -> "dicttype"
  | Op _ -> "operatortype"
  | Mark -> "marktype"
  | Null -> "nulltype"
  | Mem _ -> "memorytype"
  | Loc _ -> "locationtype"
  | File _ -> "filetype"

let to_int (o : t) =
  match o.v with
  | Int n -> n
  | Real f -> int_of_float f
  | _ -> err "typecheck" ("expected integer, got " ^ type_name o)

let to_float (o : t) =
  match o.v with
  | Int n -> float_of_int n
  | Real f -> f
  | _ -> err "typecheck" ("expected number, got " ^ type_name o)

let to_bool (o : t) =
  match o.v with Bool b -> b | _ -> err "typecheck" ("expected boolean, got " ^ type_name o)

let to_str (o : t) =
  match o.v with
  | Str s | Name s -> s
  | _ -> err "typecheck" ("expected string, got " ^ type_name o)

let to_dict (o : t) =
  match o.v with Dict d -> d | _ -> err "typecheck" ("expected dict, got " ^ type_name o)

let to_arr (o : t) =
  match o.v with Arr a -> a | _ -> err "typecheck" ("expected array, got " ^ type_name o)

let to_mem (o : t) =
  match o.v with Mem m -> m | _ -> err "typecheck" ("expected memory, got " ^ type_name o)

let to_loc (o : t) =
  match o.v with Loc l -> l | _ -> err "typecheck" ("expected location, got " ^ type_name o)

(* --- equality ----------------------------------------------------------- *)

let rec equal (a : t) (b : t) =
  match (a.v, b.v) with
  | Int x, Int y -> x = y
  | Real x, Real y -> x = y
  | Int x, Real y | Real y, Int x -> float_of_int x = y
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Name x, Name y -> String.equal x y
  | Str x, Name y | Name x, Str y -> String.equal x y
  | Arr x, Arr y -> x == y
  | Dict x, Dict y -> x == y
  | Mark, Mark -> true
  | Null, Null -> true
  | Op (x, _), Op (y, _) -> String.equal x y
  | Mem x, Mem y -> x == y
  | Loc x, Loc y -> equal_loc x y
  | File x, File y -> x == y
  | _ -> false

and equal_loc (x : Ldb_amemory.Amemory.location) y =
  match (x, y) with
  | Absolute a, Absolute b -> a.space = b.space && a.offset = b.offset
  | Immediate a, Immediate b -> a == b
  | _ -> false

(* --- printing ----------------------------------------------------------- *)

(** [cvs]-style conversion: the text form of a simple object. *)
let rec to_text (o : t) =
  match o.v with
  | Int n -> string_of_int n
  | Real f ->
      let s = Printf.sprintf "%.12g" f in
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
      else s ^ ".0"
  | Bool b -> string_of_bool b
  | Str s -> s
  | Name s -> s
  | Op (n, _) -> n
  | Null -> "null"
  | Mark -> "-mark-"
  | Arr _ -> "-array-"
  | Dict _ -> "-dict-"
  | Mem m -> "-memory:" ^ Ldb_amemory.Amemory.name m ^ "-"
  | Loc l -> Fmt.str "-loc:%a-" Ldb_amemory.Amemory.pp_location l
  | File f -> "-file:" ^ f.file_name ^ "-"

(** [==]-style syntactic form, with cycle-safe shallow nesting. *)
and to_syntax ?(depth = 3) (o : t) =
  match o.v with
  | Str s -> "(" ^ String.concat "" (List.map escape_char (List.init (String.length s) (String.get s))) ^ ")"
  | Name s -> if o.exec then s else "/" ^ s
  | Arr elems ->
      if depth = 0 then if o.exec then "{...}" else "[...]"
      else
        let inner =
          Array.to_list elems |> List.map (to_syntax ~depth:(depth - 1)) |> String.concat " "
        in
        if o.exec then "{" ^ inner ^ "}" else "[" ^ inner ^ "]"
  | Dict d ->
      if depth = 0 then "<<...>>"
      else
        let inner =
          Hashtbl.fold
            (fun k v acc -> ("/" ^ k ^ " " ^ to_syntax ~depth:(depth - 1) v) :: acc)
            d.tbl []
          |> List.sort String.compare |> String.concat " "
        in
        "<<" ^ inner ^ ">>"
  | _ -> to_text o

and escape_char c =
  match c with
  | '(' -> "\\("
  | ')' -> "\\)"
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | c when Char.code c < 0x20 || Char.code c >= 0x7f -> Printf.sprintf "\\%03o" (Char.code c)
  | c -> String.make 1 c

(* --- files --------------------------------------------------------------- *)

(* A file is a string and a cursor into it.  A string file holds all of
   its text from the start; a stream file (the expression-server pipe)
   starts empty and appends whatever its [refill] returns whenever the
   scanner runs off the end.  The column of the cursor is [pos - bol + 1]:
   only newlines touch the line bookkeeping. *)

let no_more () = ""

let file_of_string name s : file =
  { buf = s; pos = 0; refill = no_more; file_name = name;
    line = 1; bol = 0; tok_line = 1; tok_col = 1 }

let file_of_stream name refill : file = { (file_of_string name "") with refill }

(** Append the stream's next chunk, dropping the text before index [from]
    (indexes into [buf] shift down by [from]).  False when no more input
    is ready. *)
let file_refill f ~from =
  match f.refill () with
  | "" -> false
  | chunk ->
      let keep = String.length f.buf - from in
      f.buf <- (if keep = 0 then chunk else String.sub f.buf from keep ^ chunk);
      f.pos <- f.pos - from;
      f.bol <- f.bol - from;
      true

(** Record that the character at index [i] of [buf] is a newline. *)
let file_newline f i =
  f.line <- f.line + 1;
  f.bol <- i + 1

(** Position (line, column) where the most recent token started. *)
let file_token_pos f = (f.tok_line, f.tok_col)
