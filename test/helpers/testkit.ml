(** Shared helpers for the test suites: canned programs, debug-session
    construction, and qcheck generators. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host

let fib_c = {|
void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    { int i;
      for (i=2; i<n; i++)
          a[i] = a[i-1] + a[i-2];
    }
    { int j;
      for (j=0; j<n; j++)
          printf("%d ", a[j]);
    }
    printf("\n");
}

int main(void)
{
    fib(10);
    return 0;
}
|}

(** Build and run a program to completion, returning status and output. *)
let run_program ~arch sources =
  let img, _ = Ldb_link.Driver.build ~arch sources in
  let proc = Ldb_link.Link.load img in
  let status = Proc.run proc in
  (status, Proc.output proc)

(** Expect a clean exit and return (status, stdout). *)
let run_ok ~arch sources =
  match run_program ~arch sources with
  | Proc.Exited n, out -> (n, out)
  | Proc.Stopped (s, code), out ->
      Alcotest.failf "program stopped with %s (code %#x), output %S" (Signal.name s) code out
  | Proc.Running, out -> Alcotest.failf "program ran out of fuel, output %S" out

(** The same program must behave identically on every architecture. *)
let run_all_archs sources ~expect_status ~expect_out =
  List.iter
    (fun arch ->
      let st, out = run_ok ~arch sources in
      Alcotest.(check int) (Arch.name arch ^ " status") expect_status st;
      Alcotest.(check string) (Arch.name arch ^ " output") expect_out out)
    Arch.all

type session = {
  d : Ldb.t;
  tg : Ldb.target;
  proc : Host.process;
}

(** A connected, paused debug session for [sources]. *)
let debug_session ?debug ?defer ?compress ~arch sources : session =
  let d = Ldb.create () in
  let proc, tg =
    Host.spawn d ?debug ?defer ?compress ~arch ~name:(Arch.name arch) sources
  in
  { d; tg; proc }

(** Unwrap a run/step result; a [`Dead_process] error fails the test. *)
let ok : (Ldb.state, Ldb.dead) result -> Ldb.state = function
  | Ok st -> st
  | Error (`Dead_process m) -> Alcotest.failf "dead process: %s" m

let ok_unit : (unit, Ldb.dead) result -> unit = function
  | Ok () -> ()
  | Error (`Dead_process m) -> Alcotest.failf "dead process: %s" m

(** Continue until the nth stop (1 = first). *)
let continue_n (s : session) n =
  let rec go k last =
    if k = 0 then last
    else
      match ok (Ldb.continue_ s.d s.tg) with
      | Ldb.Stopped _ as st -> go (k - 1) st
      | st -> st
  in
  go n (Ldb.Running)

let top (s : session) = Ldb.top_frame s.d s.tg

(* --- the stop refresh an IDE does --------------------------------------------- *)

(** A recursion whose bottom is hit four times at depths 3..6, for
    {!inspect_script}.  [loc] in a [walk] frame is read again after the
    call below it returns, so a store into it changes the output. *)
let walk_c = {|
int bottom(int x)
{
    int y;
    y = x * 2;
    return y;
}

int walk(int d, int acc)
{
    int loc;
    loc = acc + d;
    if (d == 0) return bottom(loc);
    return walk(d - 1, loc) + loc;
}

int main(void)
{
    int i;
    int s;
    s = 0;
    for (i = 0; i < 4; i++)
        s = s + walk(3 + i, i);
    printf("%d\n", s);
    return 0;
}
|}

let walk_vars = function
  | "bottom" -> [ "x"; "y" ]
  | "walk" -> [ "d"; "acc"; "loc" ]
  | "main" -> [ "i"; "s" ]
  | _ -> []

(** Over a session on {!walk_c}: break at [bottom], and at every stop
    walk the stack, print every variable of every frame and store into
    [loc] two frames up; then run to exit.  Returns the transcript.
    [guard] wraps each idempotent step (a retry repeats it whole) and
    [resume] each continue, so fault tests can put recovery around
    them. *)
let inspect_script ?(guard = fun f -> f ()) ?resume (d : Ldb.t) (tg : Ldb.target) : string =
  let resume = match resume with Some r -> r | None -> fun () -> ok (Ldb.continue_ d tg) in
  let b = Buffer.create 1024 in
  let line s = Buffer.add_string b (s ^ "\n") in
  line (guard (fun () -> Printf.sprintf "break %#x" (Ldb.break_function d tg "bottom")));
  let rec stops k =
    match resume () with
    | Ldb.Stopped _ ->
        line
          (guard (fun () ->
               String.concat "\n"
                 (List.map
                    (fun fr ->
                      let fn = Ldb.frame_function d tg fr in
                      fn ^ ":"
                      ^ String.concat ","
                          (List.map
                             (fun v ->
                               v ^ "="
                               ^
                               try String.trim (Ldb.print_value d tg fr v)
                               with Ldb.Error m -> "!" ^ m)
                             (walk_vars fn)))
                    (Ldb.backtrace d tg))));
        line
          (guard (fun () ->
               let fr = List.nth (Ldb.backtrace d tg) 2 in
               ok_unit (Ldb.assign_int d tg fr "loc" (100 + k));
               Printf.sprintf "loc := %d" (100 + k)));
        stops (k + 1)
    | Ldb.Exited n -> line (Printf.sprintf "exit %d" n)
    | _ -> line "not stopped"
  in
  stops 0;
  Buffer.contents b

(** Make [ep]'s nub look like one that predates [Fetch_block]: each
    outgoing block request is resealed with an unknown opcode, so the nub
    answers "bad request" and the debugger falls back to plain fetches
    for the rest of the connection.  Runs before any hook [ep] already
    has (a fault injector).  Returns the count of rewritten requests. *)
let without_block_fetch (ep : Ldb_nub.Chan.endpoint) : int ref =
  let rewritten = ref 0 in
  let forward =
    match ep.Ldb_nub.Chan.on_send with
    | Some hook -> hook
    | None -> Ldb_nub.Chan.deliver ep
  in
  Ldb_nub.Chan.set_on_send ep
    (Some
       (fun s ->
         let h = Ldb_util.Codec.Framing.header_len in
         if String.length s > h && s.[h] = 'M' then begin
           incr rewritten;
           forward
             (Ldb_nub.Frame.seal ~seq:(Ldb_util.Codec.get_u32 s 2)
                ("Z" ^ String.sub s (h + 1) (String.length s - h - 1)))
         end
         else forward s));
  rewritten

let arch_testable = Alcotest.testable Arch.pp Arch.equal

(** qcheck: arbitrary abstract instruction (well-formed for [arch]). *)
let gen_insn (arch : Arch.t) : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let nregs = Arch.nregs arch and nfregs = Arch.nfregs arch in
  let reg = int_bound (nregs - 1) in
  let freg = int_bound (nfregs - 1) in
  let imm = map Int32.of_int (int_range (-1000000) 1000000) in
  let aluop =
    oneofl [ Insn.Add; Sub; Mul; Div; Rem; Divu; Remu; And; Or; Xor; Shl; Shr; Slt; Sltu ]
  in
  let cond = oneofl [ Insn.Eq; Ne; Lt; Le; Gt; Ge ] in
  let size = oneofl [ Insn.S8; S16; S32 ] in
  let fsize =
    if Arch.max_float_bits arch = 80 then oneofl [ Insn.F32; F64; F80 ]
    else oneofl [ Insn.F32; F64 ]
  in
  oneof
    [
      map2 (fun r v -> Insn.Li (r, v)) reg imm;
      map2 (fun a b -> Insn.Mov (a, b)) reg reg;
      (aluop >>= fun op -> map3 (fun a b c -> Insn.Alu (op, a, b, c)) reg reg reg);
      (aluop >>= fun op -> map3 (fun a b v -> Insn.Alui (op, a, b, v)) reg reg imm);
      (size >>= fun sz -> map3 (fun a b v -> Insn.Load (sz, a, b, v)) reg reg imm);
      (size >>= fun sz -> map3 (fun a b v -> Insn.Loadu (sz, a, b, v)) reg reg imm);
      (size >>= fun sz -> map3 (fun a b v -> Insn.Store (sz, a, b, v)) reg reg imm);
      (fsize >>= fun sz -> map3 (fun a b v -> Insn.Fload (sz, a, b, v)) freg reg imm);
      (fsize >>= fun sz -> map3 (fun a b v -> Insn.Fstore (sz, a, b, v)) freg reg imm);
      map3 (fun a b c -> Insn.Falu (Insn.Fadd, a, b, c)) freg freg freg;
      (cond >>= fun c -> map3 (fun r a b -> Insn.Fcmp (c, r, a, b)) reg freg freg);
      map2 (fun a b -> Insn.Fmov (a, b)) freg freg;
      map2 (fun f r -> Insn.Cvtif (f, r)) freg reg;
      map2 (fun r f -> Insn.Cvtfi (r, f)) reg freg;
      (cond >>= fun c ->
       map3 (fun a b v -> Insn.Br (c, a, b, Int32.logand v 0xffffffl)) reg reg imm);
      map (fun v -> Insn.Jmp (Int32.logand v 0xffffffl)) imm;
      map (fun r -> Insn.Jr r) reg;
      map (fun v -> Insn.Call (Int32.logand v 0xffffffl)) imm;
      map (fun r -> Insn.Callr r) reg;
      return Insn.Ret;
      map (fun r -> Insn.Push r) reg;
      map (fun r -> Insn.Pop r) reg;
      return Insn.Nop;
      return Insn.Break;
      map (fun n -> Insn.Syscall (n land 0xf)) (int_bound 15);
    ]

let qtest name ?(count = 200) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(** qcheck: arbitrary well-formed core dump — shared by the post-mortem
    and replay suites (a replay checkpoint embeds a core). *)
let core_gen : Core.t QCheck.Gen.t =
  let module Crc32 = Ldb_util.Crc32 in
  let open QCheck.Gen in
    oneofl Arch.all >>= fun arch ->
    let t = Target.of_arch arch in
    int_bound 31 >>= fun signal ->
    int_bound 0xffffff >>= fun code ->
    int_bound 0xffffff >>= fun pc ->
    int_bound 0xffffff >>= fun ctx_addr ->
    array_repeat (Target.nregs t)
      (map Int32.of_int (int_range (-0x40000000) 0x3fffffff))
    >>= fun regs ->
    oneofl [ 8; 10 ] >>= fun freg_bytes ->
    array_repeat (Target.nfregs t)
      (string_size ~gen:char (return freg_bytes))
    >>= fun fregs ->
    list_size (int_bound 4)
      ( oneofl [ "code"; "data"; "ctx"; "stack" ] >>= fun name ->
        int_bound 0x3ffff0 >>= fun base ->
        string_size ~gen:char (int_range 1 64) >>= fun bytes ->
        return
          { Core.sec_name = name; sec_base = base; sec_bytes = bytes;
            sec_crc = Crc32.string bytes; sec_ok = true } )
    >>= fun sections ->
    return
  { Core.co_arch = arch; co_signal = signal; co_code = code; co_pc = pc;
    co_ctx_addr = ctx_addr; co_regs = regs; co_freg_bytes = freg_bytes;
    co_fregs = fregs; co_sections = sections }

let gen_core : Core.t QCheck.arbitrary = QCheck.make core_gen
