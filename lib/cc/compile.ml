(** The compiler facade: C source to an object file.

    [compile ~arch ~debug ~file src] runs the full pipeline: parse,
    semantic analysis / IR generation, per-target code generation,
    SIM-MIPS delay-slot scheduling, anchor emission, and (with [-g])
    PostScript and stabs symbol tables. *)

open Ldb_machine

exception Error of string

(** The front end: parse and translate one unit to IR (with its debug
    information under [~debug]).  [compile] continues from here; the IR
    lint runs over it directly ([Irlint.check_unit ~file (front ...)]). *)
let front ?(debug = true) ~(arch : Arch.t) ~(file : string) (src : string) : Sema.unit_ir =
  let fail (m, (p : Lex.pos)) =
    raise (Error (Printf.sprintf "%s:%d:%d: %s" file p.Lex.line p.Lex.col m))
  in
  let ast =
    try Parse.parse_unit ~file ~arch src with
    | Parse.Error (m, p) | Lex.Error (m, p) -> fail (m, p)
  in
  try Sema.translate ~arch ~debug ast with Sema.Error (m, p) -> fail (m, p)

(** [~validity:false] skips the validity annotation pass (the
    symbol-table bench measures what the ranges cost). *)
let compile ?(debug = true) ?(defer = true) ?(compress = false) ?(optimize = true)
    ?(validity = true) ~(arch : Arch.t) ~(file : string) (src : string) : Asm.t =
  let target = Target.of_arch arch in
  let ui = front ~debug ~arch ~file src in
  if validity then Validity.annotate_unit ui;
  let unit_tag =
    String.map (fun c -> if c = '.' || c = '/' || c = '-' then '_' else c) file
  in
  let text = ref [] in
  let pool = ref [] in
  let frame_sizes = Hashtbl.create 8 in
  List.iter
    (fun fi ->
      let t, d, fsize =
        try Gen.gen_func target ~unit_tag fi with Gen.Error m -> raise (Error m)
      in
      Hashtbl.replace frame_sizes fi.Sema.fi_label fsize;
      (* the generator finalizes the frame plan; propagate it to the
         debug information so the runtime procedure table and the stack
         walker agree *)
      (match fi.Sema.fi_debug with
      | Some fd ->
          fd.Sym.fd_frame_size <- fsize;
          fd.Sym.fd_ra_offset <- fsize - 4
      | None -> ());
      text := !text @ t;
      pool := !pool @ d)
    ui.Sema.ui_funcs;
  (* peephole cleanup, before scheduling so delay-slot guarantees hold *)
  let text = ref (if optimize then fst (Peephole.run target !text) else !text) in
  (* SIM-MIPS: repair load-delay hazards *)
  let text, _sched_stats =
    if Arch.has_load_delay arch then begin
      let t, st = Sched.schedule_filled !text in
      (match Sched.verify t with
      | None -> ()
      | Some i -> raise (Error (Printf.sprintf "%s: scheduler left a hazard at %d" file i)));
      (t, Some st)
    end
    else (!text, None)
  in
  (* anchor symbol: one relocated word per static / stopping point *)
  let anchor_data =
    match ui.Sema.ui_debug with
    | Some ud ->
        let slots = Sym.anchor_slots_in_order ud in
        if slots = [] then []
        else
          (Asm.Dalign 4 :: Asm.Dlabel ud.Sym.ud_anchor
          :: List.map (fun l -> Asm.Dwordsym (l, 0)) slots)
    | None -> []
  in
  let ps = Option.map (fun ud -> Psemit.emit_unit ~defer ~compress ud) ui.Sema.ui_debug in
  let stabs = match ui.Sema.ui_debug with Some ud -> Stabsemit.emit_unit ud | None -> "" in
  let rpt =
    List.map
      (fun fi ->
        let fsize =
          match Hashtbl.find_opt frame_sizes fi.Sema.fi_label with
          | Some s -> s
          | None -> fi.Sema.fi_frame_size
        in
        (fi.Sema.fi_label, fsize, fsize - 4))
      ui.Sema.ui_funcs
  in
  {
    Asm.o_arch = arch;
    o_unit = file;
    o_text = text;
    o_data = ui.Sema.ui_data @ !pool @ anchor_data;
    o_globals = ui.Sema.ui_globals;
    o_debug = ui.Sema.ui_debug;
    o_ps = ps;
    o_stabs = stabs;
    o_rpt = rpt;
  }

(** Instruction count and encoded size of an object's text (benchmarks). *)
let text_stats (o : Asm.t) =
  let target = Target.of_arch o.Asm.o_arch in
  (Asm.insn_count o.Asm.o_text, Asm.text_size target o.Asm.o_text)
