(** lcc-style intermediate representation: typed operator trees plus a thin
    layer of statement-level control flow.

    Like lcc's IR, operators carry a type suffix; [operator_count] reports
    the size of the nominal (operator × type) table, the figure the paper
    compares against lcc's 112 operators when sizing the expression
    server's PostScript rewriter. *)

type ty = I1 | U1 | I2 | U2 | I4 | U4 | F4 | F8 | F10 | P4 | V

let ty_name = function
  | I1 -> "I1" | U1 -> "U1" | I2 -> "I2" | U2 -> "U2" | I4 -> "I4" | U4 -> "U4"
  | F4 -> "F4" | F8 -> "F8" | F10 -> "F10" | P4 -> "P4" | V -> "V"

let ty_bytes = function
  | I1 | U1 -> 1
  | I2 | U2 -> 2
  | I4 | U4 | F4 | P4 -> 4
  | F8 -> 8
  | F10 -> 10
  | V -> 0

let is_float_ty = function F4 | F8 | F10 -> true | _ -> false

(** Memory type of a C type on [arch]. *)
let of_ctype (arch : Ldb_machine.Arch.t) (t : Ctype.t) : ty =
  match t with
  | Ctype.Void -> V
  | Ctype.Char -> I1
  | Ctype.Short -> I2
  | Ctype.Int -> I4
  | Ctype.Unsigned -> U4
  | Ctype.Float -> F4
  | Ctype.Double -> F8
  | Ctype.LongDouble -> if Ldb_machine.Arch.equal arch M68k then F10 else F8
  | Ctype.Ptr _ | Ctype.Array _ | Ctype.Func _ -> P4
  | Ctype.Struct _ -> V (* aggregates are manipulated by address *)

type binop = Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr
type relop = Req | Rne | Rlt | Rle | Rgt | Rge

type exp =
  | Cnst of ty * int32
  | Cnstf of float                       (** floating constant, computed as F8 *)
  | Addrg of string                      (** address of a label (global/static/string) *)
  | Addrl of int                         (** frame-base-relative address *)
  | Reguse of int                        (** register-allocated variable *)
  | Indir of ty * exp                    (** load; narrow loads widen to I4/U4,
                                             float loads widen to F8 *)
  | Bin of ty * binop * exp * exp        (** computation type: I4, U4 or F8 *)
  | Cmp of ty * relop * exp * exp        (** 0/1 result; ty is the operand type *)
  | Cvt of ty * ty * exp                 (** from, to *)
  | Asgn of ty * exp * exp               (** mem[addr] <- value; yields the value *)
  | Regasgn of int * exp                 (** reg <- value; yields the value *)
  | Call of ty * string * exp list       (** direct call by label *)
  | Callind of ty * exp * exp list

type stmt =
  | Sexp of exp
  | Slabel of string
  | Sjump of string
  | Scjump of ty * relop * exp * exp * string  (** conditional branch *)
  | Sret of exp option
  | Sstop of int * string                      (** stopping point: id, text label *)

(** The computed type of an expression's value. *)
let type_of = function
  | Cnst (t, _) -> t
  | Cnstf _ -> F8
  | Addrg _ | Addrl _ -> P4
  | Reguse _ -> I4
  | Indir ((t : ty), _) -> (
      match t with
      | I1 | I2 | I4 -> I4
      | U1 | U2 | U4 -> U4
      | F4 | F8 | F10 -> F8
      | P4 -> P4
      | V -> V)
  | Bin (t, _, _, _) -> t
  | Cmp _ -> I4
  | Cvt (_, t, _) -> t
  | Asgn (t, _, _) -> (
      match t with F4 | F8 | F10 -> F8 | I1 | I2 -> I4 | U1 | U2 -> U4 | t -> t)
  | Regasgn _ -> I4
  | Call (t, _, _) | Callind (t, _, _) -> t

let is_float_exp e = is_float_ty (type_of e)

(* --- pretty printing ----------------------------------------------------- *)

let binop_name = function
  | Add -> "ADD" | Sub -> "SUB" | Mul -> "MUL" | Div -> "DIV" | Rem -> "MOD"
  | Band -> "BAND" | Bor -> "BOR" | Bxor -> "BXOR" | Shl -> "LSH" | Shr -> "RSH"

let relop_name = function
  | Req -> "EQ" | Rne -> "NE" | Rlt -> "LT" | Rle -> "LE" | Rgt -> "GT" | Rge -> "GE"

let rec pp_exp ppf = function
  | Cnst (t, v) -> Fmt.pf ppf "CNST%s(%ld)" (ty_name t) v
  | Cnstf f -> Fmt.pf ppf "CNSTF8(%g)" f
  | Addrg s -> Fmt.pf ppf "ADDRG(%s)" s
  | Addrl o -> Fmt.pf ppf "ADDRL(%d)" o
  | Reguse r -> Fmt.pf ppf "REG(%d)" r
  | Indir (t, e) -> Fmt.pf ppf "INDIR%s(%a)" (ty_name t) pp_exp e
  | Bin (t, op, a, b) -> Fmt.pf ppf "%s%s(%a,%a)" (binop_name op) (ty_name t) pp_exp a pp_exp b
  | Cmp (t, op, a, b) -> Fmt.pf ppf "%s%s(%a,%a)" (relop_name op) (ty_name t) pp_exp a pp_exp b
  | Cvt (f, t, e) -> Fmt.pf ppf "CV%s%s(%a)" (ty_name f) (ty_name t) pp_exp e
  | Asgn (t, a, v) -> Fmt.pf ppf "ASGN%s(%a,%a)" (ty_name t) pp_exp a pp_exp v
  | Regasgn (r, v) -> Fmt.pf ppf "ASGNREG(%d,%a)" r pp_exp v
  | Call (t, f, args) ->
      Fmt.pf ppf "CALL%s(%s%a)" (ty_name t) f
        (fun ppf -> List.iter (Fmt.pf ppf ",%a" pp_exp))
        args
  | Callind (t, f, args) ->
      Fmt.pf ppf "CALLI%s(%a%a)" (ty_name t) pp_exp f
        (fun ppf -> List.iter (Fmt.pf ppf ",%a" pp_exp))
        args

(** Size of the nominal operator x type table, lcc-style (cf. lcc's 112
    operators).  This is the table the expression server's rewriter covers. *)
let operator_count =
  let mem_tys = 9 (* I1 U1 I2 U2 I4 U4 F4 F8 P4; F10 counted per target *) in
  let cnst = 4 (* CNSTI4 CNSTU4 CNSTP4 CNSTF8 *) in
  let addr = 3 (* ADDRG ADDRL REG *) in
  let indir = mem_tys in
  let asgn = mem_tys + 1 (* + ASGNREG *) in
  let bin = 10 * 2 (* I4/U4 *) + (5 * 1) (* ADD SUB MUL DIV on F8, plus NEG folded *) in
  let cmp = 6 * 3 (* I4 U4 F8 *) in
  let cvt = 12 (* II widen/narrow, IF, FI, FF pairs *) in
  let call = 3 (* CALLI CALLF CALLV *) in
  let control = 4 (* LABEL JUMP CJUMP RET *) in
  cnst + addr + indir + asgn + bin + cmp + cvt + call + control
