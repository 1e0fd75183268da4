(** Tests for the expression server: the lookup round trip, arithmetic,
    array/struct/pointer expressions, assignments, type reconstruction,
    and error handling — on all four targets. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Eval = Ldb_exprserver.Eval
module Exprserver = Ldb_exprserver.Exprserver

let check = Alcotest.check

let prog =
  {|
struct point { int x; int y; };
static int table[6];
int gv = 11;
double gd = 0.5;

int work(int n, double scale)
{
    struct point p;
    int i;
    int *ip;
    p.x = 7; p.y = 9;
    for (i = 0; i < 6; i++) table[i] = i * i;
    ip = &p.x;
    printf("%d %g %d\n", n, scale, *ip);
    return 0;
}
int main(void) { return work(5, 1.25); }
|}

(* printf is at line 16 *)

type ctx = { s : Testkit.session; fr : Ldb_ldb.Frame.t; sess : Eval.session }

let make_ctx arch =
  let s = Testkit.debug_session ~arch [ ("e.c", prog) ] in
  ignore (Ldb.break_line s.Testkit.d s.Testkit.tg ~line:16);
  ignore (Ldb.continue_ s.Testkit.d s.Testkit.tg);
  let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
  { s; fr; sess = Eval.start ~arch }

let ev ctx expr = Eval.eval_string ctx.s.Testkit.d ctx.s.Testkit.tg ctx.fr ctx.sess expr

let evt ctx expr = Eval.evaluate ctx.s.Testkit.d ctx.s.Testkit.tg ctx.fr ctx.sess expr

let test_basics_all_archs () =
  List.iter
    (fun arch ->
      let ctx = make_ctx arch in
      let an = Arch.name arch in
      check Alcotest.string (an ^ " constant") "42" (ev ctx "42");
      check Alcotest.string (an ^ " parameter") "5" (ev ctx "n");
      check Alcotest.string (an ^ " arithmetic") "26" (ev ctx "n * n + 1");
      check Alcotest.string (an ^ " global") "11" (ev ctx "gv");
      check Alcotest.string (an ^ " static array") "16" (ev ctx "table[4]");
      check Alcotest.string (an ^ " index expr") "25" (ev ctx "table[n]");
      check Alcotest.string (an ^ " struct field") "7" (ev ctx "p.x");
      check Alcotest.string (an ^ " struct arith") "63" (ev ctx "p.x * p.y");
      check Alcotest.string (an ^ " comparison") "1" (ev ctx "p.x < p.y");
      check Alcotest.string (an ^ " double param") "1.25" (ev ctx "scale");
      check Alcotest.string (an ^ " float arith") "2.75" (ev ctx "scale * 2.0 + 0.25");
      check Alcotest.string (an ^ " mixed") "6.25" (ev ctx "n * scale");
      check Alcotest.string (an ^ " deref") "7" (ev ctx "*ip"))
    Arch.all

let test_types_reported () =
  let ctx = make_ctx Sparc in
  let _, ty = evt ctx "n" in
  check Alcotest.string "int type" "int" ty;
  let _, ty = evt ctx "scale" in
  check Alcotest.string "double type" "double" ty;
  let v, ty = evt ctx "ip" in
  check Alcotest.string "pointer type" "int *" ty;
  Alcotest.(check bool) "pointer formatted hex" true
    (String.length v > 2 && String.sub v 0 2 = "0x")

let test_assignment_through_server () =
  List.iter
    (fun arch ->
      let ctx = make_ctx arch in
      let an = Arch.name arch in
      check Alcotest.string (an ^ " assign returns value") "99" (ev ctx "gv = 99");
      check Alcotest.string (an ^ " visible after") "99" (ev ctx "gv");
      check Alcotest.string (an ^ " compound exprs") "100" (ev ctx "gv + 1");
      (* assignment through a pointer *)
      ignore (ev ctx "*ip = 70");
      check Alcotest.string (an ^ " struct field updated") "70" (ev ctx "p.x"))
    [ Mips; Vax ]

let test_sizeof_and_casts () =
  let ctx = make_ctx M68k in
  check Alcotest.string "sizeof int" "4" (ev ctx "sizeof(int)");
  (* struct definitions reach the server through lookups; prime it the way
     a user would, by first mentioning a struct-typed variable *)
  ignore (ev ctx "p.x");
  check Alcotest.string "sizeof struct" "8" (ev ctx "sizeof(struct point)");
  check Alcotest.string "cast double->int" "1" (ev ctx "(int)scale");
  check Alcotest.string "cast int->double" "5.0" (ev ctx "(double)n")

let test_errors () =
  let ctx = make_ctx Vax in
  (match ev ctx "nonexistent + 1" with
  | exception Eval.Error _ -> ()
  | v -> Alcotest.failf "undefined variable evaluated to %s" v);
  (match ev ctx "n +" with
  | exception Eval.Error _ -> ()
  | _ -> Alcotest.fail "syntax error not reported");
  (* procedure calls into the target are future work, as in the paper *)
  match ev ctx "work(1, 2.0)" with
  | exception Eval.Error m ->
      Alcotest.(check bool) "mentions calls" true
        (let has sub =
           let nn = String.length sub in
           let rec go i = i + nn <= String.length m && (String.sub m i nn = sub || go (i + 1)) in
           go 0
         in
         has "call")
  | v -> Alcotest.failf "call evaluated to %s" v

let test_server_state_lifecycle () =
  (* bindings are discarded between expressions, struct types persist *)
  let ctx = make_ctx Sparc in
  ignore (ev ctx "p.x");
  check Alcotest.int "bindings discarded" 0 (List.length ctx.sess.Eval.server.Exprserver.bindings);
  Alcotest.(check bool) "struct types kept" true
    (Hashtbl.mem ctx.sess.Eval.server.Exprserver.structs "point")

(* --- the pipe as a chunked stream ---------------------------------------------- *)

module Chan = Ldb_nub.Chan
module Scan = Ldb_pscript.Scan

let drain_tokens (f : Ldb_pscript.Value.file) =
  let rec go acc =
    match Scan.token f with
    | Scan.TEof -> List.rev acc
    | Scan.TName (n, _) -> go (n :: acc)
    | Scan.TStr s -> go (("(" ^ s ^ ")") :: acc)
    | Scan.TNum v -> go (Ldb_pscript.Value.to_text v :: acc)
    | Scan.TProcStart -> go ("{" :: acc)
    | Scan.TProcEnd -> go ("}" :: acc)
  in
  go []

let test_pipe_chunks () =
  let ldb_end, srv_end = Chan.pair () in
  (* a reply written in two pieces, cut inside a name, before ldb drains *)
  Chan.send srv_end "(int) ExpressionServer.re";
  Chan.send srv_end "sult\n";
  let f = Eval.drain_file ldb_end in
  (match Scan.token f with
  | Scan.TStr "int" -> ()
  | _ -> Alcotest.fail "expected (int)");
  check Alcotest.int "the first refill took everything ready" 0 (Chan.available ldb_end);
  check Alcotest.(list string) "the name cut in two reads whole"
    [ "ExpressionServer.result" ] (drain_tokens f);
  (* the stream ends when nothing is ready, and resumes when more is *)
  Chan.send srv_end "3 mul\n";
  check Alcotest.(list string) "resumes" [ "3"; "mul" ] (drain_tokens f)

let test_replies_in_two_pieces () =
  let exprs = [ "n"; "n * scale + table[2]"; "p.x * p.y"; "ip"; "gv - n" ] in
  let plain = make_ctx Mips in
  let want = List.map (evt plain) exprs in
  (* every message from the server reaches the pipe as two deliveries,
     cut at a different place each time *)
  let ctx = make_ctx Mips in
  let ep = ctx.sess.Eval.server.Exprserver.ep in
  let cut = ref 0 in
  Chan.set_on_send ep
    (Some
       (fun msg ->
         incr cut;
         let k = min (String.length msg) (!cut mod 7 * 3) in
         Chan.deliver ep (String.sub msg 0 k);
         Chan.deliver ep (String.sub msg k (String.length msg - k))));
  let got = List.map (evt ctx) exprs in
  check Alcotest.(list (pair string string)) "split replies evaluate identically" want got

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "exprserver"
    [
      ( "evaluation",
        [ case "basics on all targets" test_basics_all_archs;
          case "types" test_types_reported;
          case "assignment" test_assignment_through_server;
          case "sizeof and casts" test_sizeof_and_casts ] );
      ( "pipe",
        [ case "chunked refills" test_pipe_chunks;
          case "replies delivered in two pieces" test_replies_in_two_pieces ] );
      ( "protocol",
        [ case "errors" test_errors; case "server state lifecycle" test_server_state_lifecycle ] );
    ]
