(** PostScript symbol-table emission (Sec. 2).

    Each symbol becomes a dictionary bound to an S-name; local symbols are
    linked into an uplink tree; procedures carry a [loci] array of stopping
    points; statics and stopping points are located through anchor-symbol
    procedures ([LazyData]) interpreted at debug time; type dictionaries
    carry a declaration template, a printing procedure, and whatever
    machine-dependent data (element sizes, field offsets) that procedure
    needs.

    With [~defer:true] (the default) the body of the unit's definitions is
    wrapped in parentheses so the debugger's scanner reads it as one string
    and tokenizes it only when the unit is first needed — the Sec. 5
    deferral technique (a ~40% startup saving in the paper). *)

open Ldb_machine

(** Static verification of the emitted table (pslint, Sec. 2): a finding
    in generated PostScript is a compiler bug, so it fails the build. *)
let lint_body ~(unit_name : string) (body : string) =
  let env = Ldb_pscheck.Pscheck.debugger_env () in
  match Ldb_pscheck.Pscheck.check_program ~env ~deep:true ~name:(unit_name ^ ":pstab") body with
  | [] -> ()
  | fs ->
      let msgs = List.map Ldb_pscheck.Lattice.finding_to_string fs in
      failwith ("psemit: generated symbol table fails pslint:\n" ^ String.concat "\n" msgs)

let ps_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '(' -> Buffer.add_string buf "\\("
      | ')' -> Buffer.add_string buf "\\)"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pstr s = "(" ^ ps_escape s ^ ")"

type emitter = {
  buf : Buffer.t;
  arch : Arch.t;
  tag : string;
  mutable ntype : int;
  types : (Ctype.t * string) list ref;  (** memo: type -> T-name *)
}

let out e fmt = Fmt.kstr (fun s -> Buffer.add_string e.buf s) fmt

(* --- type dictionaries ---------------------------------------------------- *)

let rec type_name (e : emitter) (t : Ctype.t) : string =
  match List.find_opt (fun (t', _) -> Ctype.equal t' t) !(e.types) with
  | Some (_, n) -> n
  | None ->
      e.ntype <- e.ntype + 1;
      let n = Printf.sprintf "T%d$%s" e.ntype e.tag in
      e.types := (t, n) :: !(e.types);
      (* declare first so recursive types (struct node *next) can refer to
         the dictionary before it is filled *)
      out e "/%s 8 dict def\n" n;
      fill_type e n t;
      n

and printer_for (e : emitter) (t : Ctype.t) : string =
  match t with
  | Ctype.Char -> "{CHAR}"
  | Ctype.Short -> "{SHORT}"
  | Ctype.Int -> "{INT}"
  | Ctype.Unsigned -> "{UNSIGNED}"
  | Ctype.Float -> "{FLOAT}"
  | Ctype.Double -> "{DOUBLE}"
  | Ctype.LongDouble -> if Arch.equal e.arch M68k then "{LDOUBLE}" else "{DOUBLE}"
  | Ctype.Ptr Ctype.Char -> "{CSTRING}"
  | Ctype.Ptr _ | Ctype.Func _ -> "{POINTER}"
  | Ctype.Array _ -> "{ARRAY}"
  | Ctype.Struct _ -> "{STRUCT}"
  | Ctype.Void -> "{POINTER}"

and fill_type (e : emitter) (n : string) (t : Ctype.t) =
  out e "%s /decl %s put\n" n (pstr (Ctype.decl_string t));
  out e "%s /printer %s put\n" n (printer_for e t);
  out e "%s /size %d put\n" n (Ctype.size e.arch t);
  (match t with
  | Ctype.Array (elem, count) ->
      (* machine-dependent data for the machine-independent ARRAY printer *)
      let en = type_name e elem in
      out e "%s /elemtype %s put\n" n en;
      out e "%s /elemsize %d put\n" n (Ctype.size e.arch elem);
      out e "%s /arraysize %d put\n" n (count * Ctype.size e.arch elem);
      out e "%s /count %d put\n" n count
  | Ctype.Struct sd when sd.Ctype.complete ->
      let fields =
        List.map
          (fun (f : Ctype.field) ->
            Printf.sprintf "[ %s %d %s ]" (pstr f.Ctype.fname) f.Ctype.foffset
              (type_name e f.Ctype.fty))
          sd.Ctype.fields
      in
      out e "%s /fields [ %s ] put\n" n (String.concat " " fields)
  | Ctype.Ptr inner when not (Ctype.equal inner Ctype.Char) ->
      let en = type_name e inner in
      out e "%s /pointee %s put\n" n en
  | _ -> ())

(* --- where procedures ------------------------------------------------------- *)

let where_text (ud : Sym.unit_debug) (s : Sym.t) : string option =
  match s.Sym.where with
  | None -> None
  | Some (Sym.In_reg r) ->
      (* computed when the symbol table is interpreted: Regset0 comes from
         the per-architecture dictionary the debugger keeps on the
         dictionary stack *)
      Some (Printf.sprintf "%d Regset0 Absolute" r)
  | Some (Sym.Frame off) ->
      (* interpreted per frame: FrameLoc is machine-dependent PostScript *)
      Some (Printf.sprintf "{%d FrameLoc}" off)
  | Some (Sym.Global label) ->
      if s.Sym.kind = Sym.Kfunc then Some (Printf.sprintf "{%s GlobalCodeLoc}" (pstr label))
      else Some (Printf.sprintf "{%s GlobalLoc}" (pstr label))
  | Some (Sym.Anchored idx) ->
      Some (Printf.sprintf "{%s %d LazyData}" (pstr ud.Sym.ud_anchor) idx)

let sym_ref tag = function
  | None -> "null"
  | Some (s : Sym.t) -> Printf.sprintf "%s$%s" (Sym.sname s) tag

let kind_string = function
  | Sym.Kvar -> "variable"
  | Sym.Kparam -> "parameter"
  | Sym.Kfunc -> "procedure"

(* --- symbol entries --------------------------------------------------------- *)

let emit_sym (e : emitter) (ud : Sym.unit_debug) (s : Sym.t) ~(extra : string list) =
  let tn = type_name e s.Sym.sym_ty in
  out e "/%s$%s <<\n" (Sym.sname s) e.tag;
  out e "  /name %s\n" (pstr s.Sym.sym_name);
  out e "  /type %s\n" tn;
  out e "  /sourcefile %s /sourcey %d /sourcex %d\n" (pstr s.Sym.sfile) s.Sym.spos.Lex.line
    s.Sym.spos.Lex.col;
  out e "  /kind %s\n" (pstr (kind_string s.Sym.kind));
  (match where_text ud s with
  | Some w -> out e "  /where %s\n" w
  | None -> ());
  out e "  /uplink %s\n" (sym_ref e.tag s.Sym.uplink);
  (* compiler-proven validity ranges over the function's stop indexes:
     a flat [lo hi fact ...] array, absent when the analysis does not
     track this variable *)
  if s.Sym.validity <> [] then
    out e "  /validity [ %s ]\n"
      (String.concat " "
         (List.map
            (fun (lo, hi, f) -> Printf.sprintf "%d %d %d" lo hi f)
            s.Sym.validity));
  List.iter (fun line -> out e "  %s\n" line) extra;
  out e ">> def\n"

(** Emit every symbol reachable through the uplink chains of a function, in
    definition order (uplink targets first). *)
let emit_chain (e : emitter) (ud : Sym.unit_debug) ~(emitted : (int, unit) Hashtbl.t)
    (tip : Sym.t option) =
  let rec collect acc = function
    | None -> acc
    | Some (s : Sym.t) ->
        if Hashtbl.mem emitted s.Sym.sid then acc else collect (s :: acc) s.Sym.uplink
  in
  (* collect from every stopping point's scope *)
  let syms = collect [] tip in
  List.iter
    (fun (s : Sym.t) ->
      if not (Hashtbl.mem emitted s.Sym.sid) then begin
        Hashtbl.replace emitted s.Sym.sid ();
        emit_sym e ud s ~extra:[]
      end)
    syms

(* --- whole unit -------------------------------------------------------------- *)

(** Linker label of a function symbol, from its location info. *)
let func_label (s : Sym.t) : string option =
  match s.Sym.where with Some (Sym.Global label) -> Some label | _ -> None

(** Emit the PostScript symbol table for one unit.  Returns the structured
    pieces (the driver merges several units into a top-level dictionary).
    With [~compress:true] (requires [~defer:true]) the deferred body ships
    LZW-compressed, to be decompressed transparently when the unit is
    forced — the paper compressed its tables the same way (Sec. 7). *)
let emit_unit ?(defer = true) ?(compress = false) (ud : Sym.unit_debug) : Asm.ps_pieces =
  let tag = String.map (fun c -> if c = '.' || c = '/' || c = '-' then '_' else c) ud.Sym.ud_name in
  let e = { buf = Buffer.create 4096; arch = ud.Sym.ud_arch; tag; ntype = 0; types = ref [] } in
  let emitted = Hashtbl.create 64 in

  (* file-scope statics and globals *)
  List.iter
    (fun s ->
      Hashtbl.replace emitted s.Sym.sid ();
      emit_sym e ud s ~extra:[])
    ud.Sym.ud_statics;
  List.iter
    (fun s ->
      Hashtbl.replace emitted s.Sym.sid ();
      emit_sym e ud s ~extra:[])
    ud.Sym.ud_globals;

  (* the unit's statics dictionary, shared by every procedure entry *)
  out e "/Statics$%s <<" tag;
  List.iter
    (fun (s : Sym.t) -> out e " /%s %s$%s" s.Sym.sym_name (Sym.sname s) tag)
    ud.Sym.ud_statics;
  out e " >> def\n";

  (* procedures *)
  let proc_names = ref [] in
  let externs = ref [] in
  List.iter
    (fun (fd : Sym.func_debug) ->
      (* local symbols first (uplink targets must exist before use) *)
      List.iter (fun (sp : Sym.stop_point) -> emit_chain e ud ~emitted sp.Sym.sp_scope)
        fd.Sym.fd_stops;
      (* loci: [sourcey sourcex {objloc} entry] per stopping point *)
      let loci =
        List.map
          (fun (sp : Sym.stop_point) ->
            Printf.sprintf "[ %d %d {%s %d LazyData} %s ]" sp.Sym.sp_pos.Lex.line
              sp.Sym.sp_pos.Lex.col (pstr ud.Sym.ud_anchor) sp.Sym.sp_anchor
              (sym_ref tag sp.Sym.sp_scope))
          fd.Sym.fd_stops
      in
      let formals =
        match List.rev fd.Sym.fd_params with
        | last :: _ -> sym_ref tag (Some last)
        | [] -> "null"
      in
      let saved =
        String.concat " "
          (List.map (fun (r, off) -> Printf.sprintf "[ %d %d ]" r off) fd.Sym.fd_saved_regs)
      in
      let extra =
        [
          Printf.sprintf "/formals %s" formals;
          Printf.sprintf "/loci [\n    %s\n  ]" (String.concat "\n    " loci);
          Printf.sprintf "/statics Statics$%s" tag;
          (* machine-dependent additions, like the 68020 register-save
             masks the paper mentions: frame size and register-variable
             save slots for the stack walker *)
          Printf.sprintf "/framesize %d" fd.Sym.fd_frame_size;
          Printf.sprintf "/raoffset %d" fd.Sym.fd_ra_offset;
          Printf.sprintf "/savedregs [ %s ]" saved;
        ]
      in
      Hashtbl.replace emitted fd.Sym.fd_sym.Sym.sid ();
      emit_sym e ud fd.Sym.fd_sym ~extra;
      proc_names := Printf.sprintf "%s$%s" (Sym.sname fd.Sym.fd_sym) tag :: !proc_names;
      externs :=
        (fd.Sym.fd_sym.Sym.sym_name, Printf.sprintf "%s$%s" (Sym.sname fd.Sym.fd_sym) tag)
        :: !externs)
    ud.Sym.ud_funcs;
  List.iter
    (fun (s : Sym.t) ->
      externs := (s.Sym.sym_name, Printf.sprintf "%s$%s" (Sym.sname s) tag) :: !externs)
    ud.Sym.ud_globals;

  let procs = List.rev !proc_names in
  (* the unit's result dictionary, read by the debugger after forcing *)
  out e "/UNITRESULT$%s <<\n" tag;
  out e "  /procs [ %s ]\n" (String.concat " " procs);
  out e "  /externs << %s >>\n"
    (String.concat " "
       (List.map (fun (n, s) -> Printf.sprintf "/%s %s" n s) (List.rev !externs)));
  out e "  /statics Statics$%s\n" tag;
  out e ">> def\n";

  let body = Buffer.contents e.buf in
  lint_body ~unit_name:ud.Sym.ud_name body;
  let compress = compress && defer in
  let defs =
    if defer then
      (* Sec. 5 deferral: the whole body reads as one string; UNITBODY is
         executed (tokenized) only when the unit is first needed.  The body
         is re-escaped so that scanning the outer string reproduces it
         exactly.  A compressed body is the LZW stream of the source text,
         escaped the same way (the scanner preserves arbitrary bytes). *)
      let payload = if compress then Ldb_util.Lzw.compress body else body in
      Printf.sprintf "/UNITBODY$%s (%s) def\n" tag (ps_escape payload)
    else Printf.sprintf "/UNITBODY$%s {%s} def\n" tag body
  in
  (* demand hints for the top-level units dictionary: which procedures and
     global data the unit defines (by source name and linker label) and
     which source lines carry stopping points *)
  let funcs =
    List.filter_map
      (fun (fd : Sym.func_debug) ->
        Option.map
          (fun label -> (fd.Sym.fd_sym.Sym.sym_name, label))
          (func_label fd.Sym.fd_sym))
      ud.Sym.ud_funcs
    @ List.filter_map
        (fun (s : Sym.t) -> Option.map (fun label -> (s.Sym.sym_name, label)) (func_label s))
        ud.Sym.ud_globals
  in
  let lines =
    List.fold_left
      (fun acc (fd : Sym.func_debug) ->
        List.fold_left
          (fun acc (sp : Sym.stop_point) ->
            let l = sp.Sym.sp_pos.Lex.line in
            match acc with
            | None -> Some (l, l)
            | Some (lo, hi) -> Some (min lo l, max hi l))
          acc fd.Sym.fd_stops)
      None ud.Sym.ud_funcs
  in
  {
    Asm.pp_defs = defs;
    pp_procs = procs;
    pp_externs = List.rev !externs;
    pp_statics =
      List.map
        (fun (s : Sym.t) -> (s.Sym.sym_name, Printf.sprintf "%s$%s" (Sym.sname s) tag))
        ud.Sym.ud_statics;
    pp_sourcemap = [ (ud.Sym.ud_name, procs) ];
    pp_anchors = [ ud.Sym.ud_anchor ];
    pp_funcs = funcs;
    pp_lines = lines;
    pp_encoding = (if compress then Some "lzw" else None);
  }
