(** Abstract assembly and object-file records produced by the code
    generator and consumed by the linker. *)

open Ldb_machine

type text_item =
  | Ins of Insn.t
  | InsR of Insn.t * string * int
      (** instruction whose 32-bit immediate is relocated to
          [addr(symbol) + addend] at link time *)
  | Label of string

type data_item =
  | Dlabel of string
  | Dword of int32
  | Dwordsym of string * int  (** relocated word: addr(symbol)+addend *)
  | Dbytes of string
  | Dspace of int
  | Dalign of int

(** Replace the 32-bit immediate carried by an instruction (used by the
    linker to apply relocations). *)
let set_imm (i : Insn.t) (v : int32) : Insn.t =
  match i with
  | Li (rd, _) -> Li (rd, v)
  | Alui (op, rd, rs, _) -> Alui (op, rd, rs, v)
  | Load (sz, rd, rs, _) -> Load (sz, rd, rs, v)
  | Loadu (sz, rd, rs, _) -> Loadu (sz, rd, rs, v)
  | Store (sz, rv, rs, _) -> Store (sz, rv, rs, v)
  | Fload (sz, fd, rs, _) -> Fload (sz, fd, rs, v)
  | Fstore (sz, fv, rs, _) -> Fstore (sz, fv, rs, v)
  | Br (c, rs, rt, _) -> Br (c, rs, rt, v)
  | Jmp _ -> Jmp v
  | Call _ -> Call v
  | i -> i

(** Structured pieces of a unit's PostScript symbol table, kept separate so
    the compiler driver can merge several units into one top-level
    dictionary (Sec. 2: "A top-level dictionary describes a single
    compilation unit or any combination of compilation units"). *)
type ps_pieces = {
  pp_defs : string;  (** the S-name definitions (optionally deferred) *)
  pp_procs : string list;  (** S-names of procedure entries, in order *)
  pp_externs : (string * string) list;  (** extern name -> S-name *)
  pp_statics : (string * string) list;  (** unit-static name -> S-name *)
  pp_sourcemap : (string * string list) list;  (** file -> proc S-names *)
  pp_anchors : string list;  (** anchor symbol names used *)
  pp_funcs : (string * string) list;
      (** source-level name -> linker label of every procedure, shipped in
          the top-level units dictionary so the debugger can force exactly
          the unit that defines a queried procedure *)
  pp_lines : (int * int) option;
      (** min/max source line carrying a stopping point, the demand hint
          for line-to-stop queries; [None] when the unit has no loci *)
  pp_encoding : string option;
      (** transfer encoding of the deferred body ([Some "lzw"]), decoded
          transparently when the unit is forced *)
}

type t = {
  o_arch : Arch.t;
  o_unit : string;
  o_text : text_item list;
  o_data : data_item list;
  o_globals : string list;  (** labels visible to other units *)
  o_debug : Sym.unit_debug option;  (** present when compiled with -g *)
  o_ps : ps_pieces option;  (** PostScript symbol table (with -g) *)
  o_stabs : string;  (** machine-dependent binary stabs (with -g) *)
  o_rpt : (string * int * int) list;
      (** (proc label, frame size, ra offset) for the SIM-MIPS runtime
          procedure table *)
}

(** Number of machine instructions in a text stream (labels excluded). *)
let insn_count items =
  List.fold_left (fun n -> function Ins _ | InsR _ -> n + 1 | Label _ -> n) 0 items

(** Encoded size in bytes of a text stream on [target]. *)
let text_size (target : Target.t) items =
  List.fold_left
    (fun n -> function
      | Ins i | InsR (i, _, _) -> n + Target.insn_length target i
      | Label _ -> n)
    0 items
