(** The embedded PostScript interpreter (Sec. 2, Sec. 5).

    One interpreter instance supports everything: symbol tables, printing
    procedures, expression evaluation, and the loader table.  The
    dictionary stack is explicitly controlled by PostScript programs; ldb
    rebinds machine-dependent names when it changes architectures simply by
    placing a per-target dictionary on this stack. *)

open Value

exception Stop
exception Exit_loop
exception Quit

type cached_program = (Value.t * int * int) array
(** An executable program: top-level objects (procedures already
    collected) paired with the source position of each, for error
    annotation. *)

type scanned = { mutable form : form }
(** A string scanned once, in the form it was last needed in. *)

and form =
  | Tree of Scan.node list  (** the positioned tree pslint checks *)
  | Program of cached_program
      (** what the first execution lowered the tree to; the tree is
          dropped then, since cached trees would hold many small blocks
          for the collector to mark for as long as the interpreter lives *)

type t = {
  mutable ostack : Value.t list;
  mutable dstack : Value.dict list;  (** top first; bottom is systemdict *)
  systemdict : Value.dict;
  userdict : Value.dict;
  out : Buffer.t;        (** destination of print/Put *)
  pp : Pp.t;
  mutable registered : string list;  (** systemdict operator names, reverse registration order *)
  progcache : (string, scanned) Hashtbl.t;
      (** tokenization cache: string body -> its scan, so deferred
          symbol-table bodies and repeated [run_string]s scan once *)
  mutable scan_hits : int;    (** statistics: cache hits *)
  mutable scan_misses : int;  (** statistics: strings actually scanned *)
}

(** Past this many distinct strings the cache is emptied rather than grown
    (the expression server evaluates an unbounded stream of small one-shot
    strings; symbol-table bodies are few and large). *)
let progcache_limit = 512

let create_raw () =
  let systemdict = dict_create () in
  let userdict = dict_create () in
  let out = Buffer.create 1024 in
  {
    ostack = [];
    dstack = [ userdict; systemdict ];
    systemdict;
    userdict;
    out;
    pp = Pp.create out;
    registered = [];
    progcache = Hashtbl.create 64;
    scan_hits = 0;
    scan_misses = 0;
  }

(* --- operator registration ------------------------------------------------ *)

(** Install a builtin in systemdict.  Registration is collision-safe: a
    duplicate name is a bug in the installer (the second definition would
    silently shadow the first), so it fails fast. *)
let register t name v =
  if dict_mem t.systemdict name then
    invalid_arg ("duplicate operator registration: " ^ name)
  else begin
    dict_put t.systemdict name v;
    (match v.Value.v with Value.Op _ -> t.registered <- name :: t.registered | _ -> ())
  end

let register_op t name f = register t name (Value.op name f)

(** Every operator registered so far, in registration order.  The static
    checker's signature table is tested for exhaustiveness against this. *)
let registered_ops t = List.rev t.registered

(* --- operand stack ------------------------------------------------------ *)

let push t v = t.ostack <- v :: t.ostack

let pop t =
  match t.ostack with
  | v :: rest ->
      t.ostack <- rest;
      v
  | [] -> err "stackunderflow" "pop on empty stack"

let peek t = match t.ostack with v :: _ -> v | [] -> err "stackunderflow" "empty stack"

let pop_int t = to_int (pop t)
let pop_float t = to_float (pop t)
let pop_bool t = to_bool (pop t)
let pop_str t = to_str (pop t)
let pop_dict t = to_dict (pop t)
let pop_mem t = to_mem (pop t)
let pop_loc t = to_loc (pop t)

let depth t = List.length t.ostack

(* --- dictionary stack ---------------------------------------------------- *)

let lookup t (n : string) : Value.t option =
  let rec go = function
    | [] -> None
    | d :: rest -> ( match dict_get d n with Some v -> Some v | None -> go rest)
  in
  go t.dstack

let lookup_exn t n =
  match lookup t n with Some v -> v | None -> err "undefined" n

let current_dict t = match t.dstack with d :: _ -> d | [] -> assert false

let define t n v = dict_put (current_dict t) n v

let begin_dict t d = t.dstack <- d :: t.dstack

let end_dict t =
  match t.dstack with
  | _ :: (_ :: _ :: _ as rest) -> t.dstack <- rest
  | _ -> err "dictstackunderflow" "end"

(* --- execution ------------------------------------------------------------ *)

let rec exec_value t (v : Value.t) =
  if not v.exec then push t v
  else
    match v.v with
    | Name n -> exec_value t (lookup_exn t n)
    | Op (_, f) -> f ()
    | Arr elems -> exec_proc t elems
    | Str s -> exec_string t "%string" s
    | File f -> run_file t f
    | Int _ | Real _ | Bool _ | Dict _ | Mark | Null | Mem _ | Loc _ -> push t v

(** Execute the body of a procedure: nested procedures are pushed, not
    executed. *)
and exec_proc t (elems : Value.t array) =
  Array.iter
    (fun (o : Value.t) ->
      match o.v with
      | Arr _ when o.exec -> push t o
      | _ -> if o.exec then exec_value t o else push t o)
    elems

(** Scan and execute tokens from a file until end of stream.  [Stop]
    propagates to the caller ([stopped] catches it), which is how the
    expression server tells ldb to stop listening to the pipe.

    Errors raised while executing a token are annotated with the position
    of the token that triggered them, so a runtime [typecheck] names a
    source location and not just an operator. *)
and run_file t (f : Value.file) =
  let continue_ = ref true in
  while !continue_ do
    match Scan.token f with
    | Scan.TEof -> continue_ := false
    | tok -> (
        try exec_token t f tok
        with Error (name, detail) when not (has_position detail) ->
          let line, col = Value.file_token_pos f in
          raise (Error (name, Printf.sprintf "%s [%s:%d:%d]" detail f.Value.file_name line col)))
  done

and has_position detail =
  (* already annotated by an inner (e.g. deferred-string) interpretation *)
  let n = String.length detail in
  let rec go i = i < n - 1 && ((detail.[i] = ' ' && detail.[i + 1] = '[') || go (i + 1)) in
  go 0

and exec_token t f (tok : Scan.token) =
  match tok with
  | Scan.TEof -> ()
  | Scan.TNum v -> push t v
  | Scan.TStr s -> push t (str s)
  | Scan.TName (n, true) -> push t (name_lit n)
  | Scan.TName (n, false) -> exec_value t (name_exec n)
  | Scan.TProcStart -> push t (proc (Array.of_list (List.map value_of_node (Scan.proc_body f))))
  | Scan.TProcEnd -> err "syntaxerror" "unmatched }"

(** The object a scanned node denotes; procedures become executable
    arrays. *)
and value_of_node (n : Scan.node) : Value.t =
  match n.Scan.it with
  | Scan.PInt i -> int i
  | Scan.PReal r -> real r
  | Scan.PStr s -> str s
  | Scan.PLitName s -> name_lit s
  | Scan.PExecName s -> name_exec s
  | Scan.PProc p -> proc (Array.of_list (List.map value_of_node p.Scan.body))

(** Execute a scanned program, annotating errors with the recorded token
    positions (the same annotation [run_file] produces while scanning). *)
and exec_program t ~(name : string) (prog : cached_program) =
  Array.iter
    (fun ((v : Value.t), line, col) ->
      try
        match v.v with
        | Arr _ when v.exec -> push t v (* top-level procedures are pushed *)
        | _ -> if v.exec then exec_value t v else push t v
      with Error (en, detail) when not (has_position detail) ->
        raise (Error (en, Printf.sprintf "%s [%s:%d:%d]" detail name line col)))
    prog

(** The tokenization cache: scan [s] once and reuse its tree and program
    across re-executions (deferred unit bodies, repeated [run_string]s).
    A syntax error is returned, not cached. *)
and scan_string t ~(name : string) (s : string) : (scanned, Scan.syntax_error) result =
  match Hashtbl.find_opt t.progcache s with
  | Some e ->
      t.scan_hits <- t.scan_hits + 1;
      Ok e
  | None -> (
      t.scan_misses <- t.scan_misses + 1;
      match Scan.program (file_of_string name s) with
      | Stdlib.Error _ as e -> e
      | Ok tree ->
          let e = { form = Tree tree } in
          if Hashtbl.length t.progcache >= progcache_limit then Hashtbl.reset t.progcache;
          Hashtbl.replace t.progcache s e;
          Ok e)

(** Execute the result of {!scan_string}: a syntax error is raised now,
    as the interpreter's own [syntaxerror]. *)
and exec_scanned t ~(name : string) = function
  | Ok e ->
      let prog =
        match e.form with
        | Program p -> p
        | Tree tree ->
            let lower (n : Scan.node) = (value_of_node n, n.Scan.line, n.Scan.col) in
            let p = Array.of_list (List.map lower tree) in
            e.form <- Program p;
            p
      in
      exec_program t ~name prog
  | Stdlib.Error (se : Scan.syntax_error) -> err se.Scan.error se.Scan.detail

and exec_string t (name : string) (s : string) = exec_scanned t ~name (scan_string t ~name s)

let run_string t (s : string) = exec_string t "%string" s

(** The positioned tree of [s], given its entry [e] from {!scan_string}:
    the cached tree until [s] first runs, a fresh scan (counted as a
    miss) after that. *)
let tree t ~(name : string) (s : string) (e : scanned) : Scan.node list =
  match e.form with
  | Tree tree -> tree
  | Program _ -> (
      t.scan_misses <- t.scan_misses + 1;
      match Scan.program (file_of_string name s) with
      | Ok tree -> tree
      | Stdlib.Error _ -> assert false (* [s] scanned cleanly before *))

(** Tokenization-cache statistics: (hits, misses). *)
let scan_stats t = (t.scan_hits, t.scan_misses)

(** Drain accumulated print output. *)
let take_output t =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  t.pp.Pp.column <- 0;
  s
