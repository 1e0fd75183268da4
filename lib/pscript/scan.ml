(** Tokenizer for the PostScript dialect.

    Notable dialect points: radix numbers ([16#2a]), literal names
    ([/name]), immediately-evaluated names are not supported, and ['&'] is
    an ordinary name character (the paper's symbol-table code uses names
    like [&elemsize]).

    The scanner works on the file's string by index: blanks are skipped
    and words are cut out with one [String.sub], and a parenthesized
    string without escapes is one [String.sub] too, however long.  That
    keeps the deferral technique of Sec. 5 cheap: large symbol-table
    bodies are wrapped in parentheses, read as strings when the table is
    loaded, and only tokenized when a unit is forced.

    {!program} reads a whole source into a positioned tree.  The
    interpreter's tokenization cache holds it until the source first runs,
    and the static checker (pslint) checks that same tree, so a forced
    symbol-table body is scanned once. *)

open Value

type token =
  | TNum of Value.t        (** integer or real *)
  | TStr of string
  | TName of string * bool (** text, literal? *)
  | TProcStart             (** [{] *)
  | TProcEnd               (** [}] *)
  | TEof

let is_regular = function
  | ' ' | '\t' | '\n' | '\r' | '\012' | '\000'
  | '(' | ')' | '{' | '}' | '[' | ']' | '/' | '%' -> false
  | _ -> true

(** Code of the character at the cursor, refilling a stream, or [-1] at
    the end of input.  Does not consume it. *)
let rec peek f =
  if f.pos < String.length f.buf then Char.code (String.unsafe_get f.buf f.pos)
  else if file_refill f ~from:f.pos then peek f
  else -1

(** Skip blanks and [%] comments (a comment may span stream chunks).
    Loops rather than local closures: this runs before every token. *)
let rec skip_blank f ~in_comment =
  let s = f.buf in
  let n = String.length s in
  let i = ref f.pos and comment = ref in_comment and stop = ref false in
  while (not !stop) && !i < n do
    let c = String.unsafe_get s !i in
    if !comment then begin
      if c = '\n' then begin
        file_newline f !i;
        comment := false
      end;
      incr i
    end
    else
      match c with
      | '\n' -> file_newline f !i; incr i
      | ' ' | '\t' | '\r' | '\012' | '\000' -> incr i
      | '%' -> comment := true; incr i
      | _ -> stop := true
  done;
  f.pos <- !i;
  if (not !stop) && file_refill f ~from:!i then skip_blank f ~in_comment:!comment

(** The word that began at index [start] and continues at the cursor: the
    longest run of regular characters (never a newline, so the line
    bookkeeping is untouched). *)
let rec scan_word f start =
  let s = f.buf in
  let n = String.length s in
  let i = ref f.pos in
  while !i < n && is_regular (String.unsafe_get s !i) do
    incr i
  done;
  f.pos <- !i;
  if !i >= n && file_refill f ~from:start then scan_word f 0
  else String.sub f.buf start (!i - start)

let is_octal c = c >= '0' && c <= '7'

let unescape = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | c -> c

(** ['\001'] at the codes of the characters that end a literal run in a
    string: parentheses, backslash and newline. *)
let string_special =
  String.init 256 (fun i ->
      match Char.chr i with '(' | ')' | '\\' | '\n' -> '\001' | _ -> '\000')

(** The contents of [s.[start, stop)], a string body holding escapes,
    decoded into its [len] characters.  The body was checked by
    {!scan_string}, so every escape is complete. *)
let decode_escapes s start stop len =
  let b = Bytes.create len in
  let i = ref start and j = ref 0 in
  while !i < stop do
    let c = String.unsafe_get s !i in
    if c <> '\\' then begin
      Bytes.unsafe_set b !j c;
      incr i;
      incr j
    end
    else
      match String.unsafe_get s (!i + 1) with
      | '\n' -> i := !i + 2 (* line continuation *)
      | '0' .. '7' as d ->
          (* up to three octal digits *)
          let v = ref (Char.code d - Char.code '0') in
          i := !i + 2;
          let digits = ref 1 in
          while !digits < 3 && !i < stop && is_octal (String.unsafe_get s !i) do
            v := (!v * 8) + Char.code (String.unsafe_get s !i) - Char.code '0';
            incr i;
            incr digits
          done;
          Bytes.unsafe_set b !j (Char.unsafe_chr (!v land 0xff));
          incr j
      | c ->
          Bytes.unsafe_set b !j (unescape c);
          i := !i + 2;
          incr j
  done;
  Bytes.unsafe_to_string b

(** A [( … )] string with nesting and backslash escapes; the opening
    parenthesis is consumed.  One pass finds the closing parenthesis,
    counts the decoded length and keeps the line bookkeeping, running
    over ordinary characters by index.  A body without escapes is then
    one [String.sub]; one with escapes is decoded straight into a string
    of the counted length.  A stream keeps the whole string in [buf]
    until it is closed. *)
let scan_string f =
  let start = ref f.pos and i = ref f.pos in
  let depth = ref 0 and len = ref 0 and closed = ref false in
  (* make [buf.[!i + k]] readable; false at the end of input *)
  let rec within k =
    !i + k < String.length f.buf
    || begin
      let from = !start in
      file_refill f ~from
      && begin
        start := 0;
        i := !i - from;
        within k
      end
    end
  in
  while not !closed do
    if not (within 0) then err "syntaxerror" "unterminated string";
    let s = f.buf in
    let n = String.length s in
    let j = ref !i in
    while !j < n && String.unsafe_get string_special (Char.code (String.unsafe_get s !j)) = '\000' do
      incr j
    done;
    len := !len + (!j - !i);
    i := !j;
    if !j < n then
      match String.unsafe_get s !j with
      | ')' when !depth = 0 -> closed := true
      | ')' -> decr depth; incr len; incr i
      | '(' -> incr depth; incr len; incr i
      | '\n' -> file_newline f !j; incr len; incr i
      | _ -> (
          (* a backslash: the escaped character is never a delimiter *)
          if not (within 1) then err "syntaxerror" "unterminated escape";
          let c = String.unsafe_get f.buf (!i + 1) in
          i := !i + 2;
          match c with
          | '\n' -> file_newline f (!i - 1)
          | '0' .. '7' ->
              incr len;
              let digits = ref 1 in
              while !digits < 3 && within 0 && is_octal (String.unsafe_get f.buf !i) do
                incr digits;
                incr i
              done
          | _ -> incr len)
  done;
  f.pos <- !i + 1;
  let start = !start and stop = !i in
  if !len = stop - start then String.sub f.buf start !len
  else decode_escapes f.buf start stop !len

(** Classify a word that may be a number: decimal (with OCaml's prefixes
    and underscores), radix [base#digits], real, or else a name. *)
let number_or_name (w : string) : token =
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

(** [-]digits, at most 18 of them (so no overflow): the common integer,
    which [int_of_string] reads the way {!number_or_name} would. *)
let plain_decimal w =
  let n = String.length w in
  let start = if String.unsafe_get w 0 = '-' then 1 else 0 in
  let rec digits i = i >= n || (match String.unsafe_get w i with '0' .. '9' -> digits (i + 1) | _ -> false) in
  n > start && n - start <= 18 && digits start

(** Classify a bare word as number (decimal, real, or radix) or name.
    Every number starts with a digit, a sign, a point, an underscore,
    the [i] or [n] of a float spelling, or the vertical tab the C reader
    skips; any other word is a name without trying to parse it. *)
let classify (w : string) : token =
  match String.unsafe_get w 0 with
  | '0' .. '9' | '-' when plain_decimal w -> TNum (Value.int (int_of_string w))
  | '0' .. '9' | '+' | '-' | '.' | '_' | 'i' | 'I' | 'n' | 'N' | '\011' -> number_or_name w
  | _ -> TName (w, false)

(** Read the next token from [f].  The position of the token's first
    character is recorded in the file and can be read back with
    [Value.file_token_pos] until the next token is scanned. *)
let token (f : Value.file) : token =
  skip_blank f ~in_comment:false;
  f.tok_line <- f.line;
  f.tok_col <- f.pos - f.bol + 1;
  let c = peek f in
  if c < 0 then TEof
  else begin
    let start = f.pos in
    f.pos <- start + 1;
    (* a blank was skipped, so this is not a newline *)
    match Char.unsafe_chr c with
    | '(' -> TStr (scan_string f)
    | ')' -> err "syntaxerror" "unmatched )"
    | '{' -> TProcStart
    | '}' -> TProcEnd
    | '[' -> TName ("[", false)
    | ']' -> TName ("]", false)
    | '/' ->
        let c = peek f in
        if c < 0 then err "syntaxerror" "lone /"
        else if is_regular (Char.unsafe_chr c) then begin
          let start = f.pos in
          f.pos <- start + 1;
          TName (scan_word f start, true)
        end
        else err "syntaxerror" "bad literal name"
    | ('<' | '>') as open_ ->
        (* only << and >> (no hex strings in the dialect) *)
        if peek f = Char.code open_ then begin
          f.pos <- f.pos + 1;
          TName ((if open_ = '<' then "<<" else ">>"), false)
        end
        else err "syntaxerror" (if open_ = '<' then "expected <<" else "expected >>")
    | c when is_regular c -> classify (scan_word f start)
    | c -> err "syntaxerror" (Printf.sprintf "unexpected character %C" c)
  end

(* --- positioned trees ----------------------------------------------------- *)

(** A token with the position of its first character; procedure bodies
    are collected, each with an id unique within one {!program}. *)
type node = { it : item; line : int; col : int }

and item =
  | PInt of int
  | PReal of float
  | PStr of string
  | PLitName of string   (** /name *)
  | PExecName of string
  | PProc of proc

and proc = { body : node list; proc_id : int }

(** Nodes up to the end of input, or ([in_proc]) up to the [}] closing a
    procedure whose [{] was just read. *)
let[@tail_mod_cons] rec nodes f ~next_id ~in_proc =
  match token f with
  | TEof -> if in_proc then err "syntaxerror" "unterminated procedure" else []
  | TProcEnd -> if in_proc then [] else err "syntaxerror" "unmatched }"
  | tok ->
      let line = f.tok_line and col = f.tok_col in
      let it =
        match tok with
        | TNum { v = Int n; _ } -> PInt n
        | TNum { v = Real r; _ } -> PReal r
        | TStr s -> PStr s
        | TName (n, true) -> PLitName n
        | TName (n, false) -> PExecName n
        | TProcStart ->
            incr next_id;
            let id = !next_id in
            PProc { body = nodes f ~next_id ~in_proc:true; proc_id = id }
        | TNum _ | TEof | TProcEnd -> assert false
      in
      { it; line; col } :: nodes f ~next_id ~in_proc

(** The body of a procedure whose [{] was just read. *)
let proc_body f = nodes f ~next_id:(ref 0) ~in_proc:true

(** A syntax error and the position of the token that raised it. *)
type syntax_error = { error : string; detail : string; err_line : int; err_col : int }

(** Read a whole file into its positioned tree. *)
let program (f : Value.file) : (node list, syntax_error) result =
  match nodes f ~next_id:(ref 0) ~in_proc:false with
  | prog -> Ok prog
  | exception Value.Error (error, detail) ->
      Stdlib.Error { error; detail; err_line = f.tok_line; err_col = f.tok_col }
