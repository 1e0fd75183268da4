(** Test-only oracle: the PostScript scanner as it was when every file
    was a character-reading closure with a one-character pushback.  The
    library's string-cursor scanner is checked against it token by token,
    position by position and error by error.  Kept as it was written;
    only the file type moved in beside it. *)

module Value = Ldb_pscript.Value
open Value

type file = {
  read_char : unit -> char option;  (** None at end of stream *)
  mutable pushback : char option;
  file_name : string;
  mutable line : int;       (** 1-based line of the next character *)
  mutable col : int;        (** 1-based column of the next character *)
  mutable prev_line : int;  (** position before the last [file_getc] *)
  mutable prev_col : int;
  mutable tok_line : int;   (** position of the last token's first character *)
  mutable tok_col : int;
}

let file_of_fun name read_char : file =
  { read_char; pushback = None; file_name = name;
    line = 1; col = 1; prev_line = 1; prev_col = 1; tok_line = 1; tok_col = 1 }

let file_of_string name s : file =
  let pos = ref 0 in
  file_of_fun name (fun () ->
      if !pos >= String.length s then None
      else begin
        let c = s.[!pos] in
        incr pos;
        Some c
      end)

let file_getc f =
  let c =
    match f.pushback with
    | Some c ->
        f.pushback <- None;
        Some c
    | None -> f.read_char ()
  in
  (match c with
  | Some c ->
      f.prev_line <- f.line;
      f.prev_col <- f.col;
      if c = '\n' then begin
        f.line <- f.line + 1;
        f.col <- 1
      end
      else f.col <- f.col + 1
  | None -> ());
  c

let file_ungetc f c =
  assert (f.pushback = None);
  f.pushback <- Some c;
  f.line <- f.prev_line;
  f.col <- f.prev_col

(** Position (line, column) where the most recent token started. *)
let file_token_pos f = (f.tok_line, f.tok_col)

type token = Ldb_pscript.Scan.token =
  | TNum of Value.t        (** integer or real *)
  | TStr of string
  | TName of string * bool (** text, literal? *)
  | TProcStart             (** [{] *)
  | TProcEnd               (** [}] *)
  | TEof

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' || c = '\000'
let is_delim c = c = '(' || c = ')' || c = '{' || c = '}' || c = '[' || c = ']' || c = '/' || c = '%'
let is_regular c = not (is_space c) && not (is_delim c)

let rec skip_ws_and_comments f =
  match file_getc f with
  | None -> ()
  | Some c when is_space c -> skip_ws_and_comments f
  | Some '%' ->
      let rec to_eol () =
        match file_getc f with
        | None | Some '\n' -> ()
        | Some _ -> to_eol ()
      in
      to_eol ();
      skip_ws_and_comments f
  | Some c -> file_ungetc f c

(* ( strings ) with nesting and backslash escapes *)
let scan_string f =
  let buf = Buffer.create 32 in
  let rec go depth =
    match file_getc f with
    | None -> err "syntaxerror" "unterminated string"
    | Some '\\' -> (
        match file_getc f with
        | None -> err "syntaxerror" "unterminated escape"
        | Some 'n' -> Buffer.add_char buf '\n'; go depth
        | Some 't' -> Buffer.add_char buf '\t'; go depth
        | Some 'r' -> Buffer.add_char buf '\r'; go depth
        | Some 'b' -> Buffer.add_char buf '\b'; go depth
        | Some 'f' -> Buffer.add_char buf '\012'; go depth
        | Some '\n' -> go depth (* line continuation *)
        | Some ('0' .. '7' as d) ->
            (* up to three octal digits *)
            let v = ref (Char.code d - Char.code '0') in
            let n = ref 1 in
            let fin = ref false in
            while !n < 3 && not !fin do
              match file_getc f with
              | Some ('0' .. '7' as d2) ->
                  v := (!v * 8) + (Char.code d2 - Char.code '0');
                  incr n
              | Some other ->
                  file_ungetc f other;
                  fin := true
              | None -> fin := true
            done;
            Buffer.add_char buf (Char.chr (!v land 0xff));
            go depth
        | Some c -> Buffer.add_char buf c; go depth)
    | Some '(' ->
        Buffer.add_char buf '(';
        go (depth + 1)
    | Some ')' -> if depth = 0 then () else begin Buffer.add_char buf ')'; go (depth - 1) end
    | Some c ->
        Buffer.add_char buf c;
        go depth
  in
  go 0;
  Buffer.contents buf

let scan_word f first =
  let buf = Buffer.create 16 in
  Buffer.add_char buf first;
  let rec go () =
    match file_getc f with
    | None -> ()
    | Some c when is_regular c ->
        Buffer.add_char buf c;
        go ()
    | Some c -> file_ungetc f c
  in
  go ();
  Buffer.contents buf

(** Classify a bare word as number (decimal, real, or radix) or name. *)
let classify (w : string) : token =
  let num_opt =
    match int_of_string_opt w with
    | Some n -> Some (TNum (Value.int n))
    | None -> (
        (* radix form base#digits *)
        match String.index_opt w '#' with
        | Some i when i > 0 -> (
            match int_of_string_opt (String.sub w 0 i) with
            | Some base when base >= 2 && base <= 36 -> (
                let digits = String.sub w (i + 1) (String.length w - i - 1) in
                let value_of_digit c =
                  if c >= '0' && c <= '9' then Some (Char.code c - Char.code '0')
                  else if c >= 'a' && c <= 'z' then Some (Char.code c - Char.code 'a' + 10)
                  else if c >= 'A' && c <= 'Z' then Some (Char.code c - Char.code 'A' + 10)
                  else None
                in
                let rec go acc j =
                  if j >= String.length digits then Some acc
                  else
                    match value_of_digit digits.[j] with
                    | Some d when d < base -> go ((acc * base) + d) (j + 1)
                    | _ -> None
                in
                if String.length digits = 0 then None
                else match go 0 0 with Some v -> Some (TNum (Value.int v)) | None -> None)
            | _ -> None)
        | _ -> (
            match float_of_string_opt w with
            | Some f
              when String.exists (fun c -> c = '.' || c = 'e' || c = 'E') w ->
                Some (TNum (Value.real f))
            | _ -> None))
  in
  match num_opt with Some t -> t | None -> TName (w, false)

(** Read the next token from [f].  The position of the token's first
    character is recorded in the file and can be read back with
    [file_token_pos] until the next token is
    scanned. *)
let token (f : file) : token =
  skip_ws_and_comments f;
  f.tok_line <- f.line;
  f.tok_col <- f.col;
  match file_getc f with
  | None -> TEof
  | Some '(' -> TStr (scan_string f)
  | Some ')' -> err "syntaxerror" "unmatched )"
  | Some '{' -> TProcStart
  | Some '}' -> TProcEnd
  | Some '[' -> TName ("[", false)
  | Some ']' -> TName ("]", false)
  | Some '/' -> (
      match file_getc f with
      | None -> err "syntaxerror" "lone /"
      | Some c when is_regular c -> TName (scan_word f c, true)
      | Some c ->
          file_ungetc f c;
          err "syntaxerror" "bad literal name")
  | Some '<' -> (
      (* only << is supported (no hex strings in the dialect) *)
      match file_getc f with
      | Some '<' -> TName ("<<", false)
      | _ -> err "syntaxerror" "expected <<")
  | Some '>' -> (
      match file_getc f with
      | Some '>' -> TName (">>", false)
      | _ -> err "syntaxerror" "expected >>")
  | Some c when is_regular c -> classify (scan_word f c)
  | Some c -> err "syntaxerror" (Printf.sprintf "unexpected character %C" c)


(** The positioned-tree reader as pslint had it, over the oracle's
    tokens (and the library's node type, so trees compare directly). *)
let parse_file (f : file) : Ldb_pscript.Scan.node list =
  let next_token = token in
  let open Ldb_pscript.Scan in
  let next_id = ref 0 in
  let rec seq ~in_proc acc =
    match next_token f with
    | TEof ->
        if in_proc then Value.err "syntaxerror" "unterminated procedure"
        else List.rev acc
    | TProcEnd ->
        if in_proc then List.rev acc else Value.err "syntaxerror" "unmatched }"
    | tok ->
        let line, col = file_token_pos f in
        let it =
          match tok with
          | TNum v -> (
              match v.Value.v with
              | Value.Int n -> PInt n
              | Value.Real r -> PReal r
              | _ -> assert false)
          | TStr s -> PStr s
          | TName (n, true) -> PLitName n
          | TName (n, false) -> PExecName n
          | TProcStart ->
              incr next_id;
              let id = !next_id in
              PProc { body = seq ~in_proc:true []; proc_id = id }
          | TEof | TProcEnd -> assert false
        in
        seq ~in_proc ({ it; line; col } :: acc)
  in
  seq ~in_proc:false []
